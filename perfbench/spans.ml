(* In-memory span recorder for the traced benchmark run.

   Spans are opened only by the benchmark's own code, around its calls
   into the library.  Each span has a name, a start, an end, a parent
   and the id of the case it belongs to.  Handler executions are too
   many to be spans (B-DFS alone makes millions of calls), so the
   [Timed] wrapper adds each call's count and duration to the
   innermost open span instead.  A span's self time is its duration
   minus the time its child spans and its handler calls cover. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  id : int;
  name : string;
  case_id : int;
  parent : int;  (** [-1] for a case root *)
  start_ns : int;
  mutable stop_ns : int;
  mutable child_ns : int;
  mutable handler_ns : int;
  mutable handler_calls : int;
}

let enabled = ref false
let finished : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let next_case = ref 0

let open_span ~case_id name =
  let parent = match !stack with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = !next_id;
      name;
      case_id;
      parent;
      start_ns = now_ns ();
      stop_ns = 0;
      child_ns = 0;
      handler_ns = 0;
      handler_calls = 0;
    }
  in
  incr next_id;
  stack := s :: !stack;
  s

let close_span s =
  s.stop_ns <- now_ns ();
  (match !stack with
  | _ :: (p :: _ as rest) ->
      p.child_ns <- p.child_ns + (s.stop_ns - s.start_ns);
      stack := rest
  | _ :: [] | [] -> stack := []);
  finished := s :: !finished

let within s f =
  match f () with
  | r ->
      close_span s;
      r
  | exception e ->
      close_span s;
      raise e

(** [span name f] runs [f] inside a child span of the innermost open
    one; just [f ()] when tracing is off. *)
let span name f =
  if not !enabled then f ()
  else
    let case_id = match !stack with s :: _ -> s.case_id | [] -> -1 in
    within (open_span ~case_id name) f

(** [case name f] runs [f] inside a new root span with a fresh case
    id, shared by every span opened below it. *)
let case name f =
  if not !enabled then f ()
  else begin
    let case_id = !next_case in
    incr next_case;
    within (open_span ~case_id ("case." ^ name)) f
  end

let handler_done t0 =
  match !stack with
  | s :: _ ->
      s.handler_ns <- s.handler_ns + (now_ns () - t0);
      s.handler_calls <- s.handler_calls + 1
  | [] -> ()

(* Handler time of the live sims that the online driver runs.  It is
   kept apart from the spans' handler time, which is the checker's, so
   that the checker's exploration time (its own clock minus its
   handlers) is not charged for the live sim's handlers. *)
let live_handler_ns = ref 0
let live_handler_calls = ref 0

let live_handler_done t0 =
  live_handler_ns := !live_handler_ns + (now_ns () - t0);
  incr live_handler_calls

(** Forwards every call of [P] unchanged, timing the three handlers
    that execute a transition ([enabled_actions] is a query and stays
    in the caller's self time) and passing each call's start to
    [R.record].  Used only in traced runs, so the untraced run calls
    the protocol directly. *)
module Timed_with
    (R : sig
      val record : int -> unit
    end)
    (P : Dsm.Protocol.S) :
  Dsm.Protocol.S
    with type state = P.state
     and type message = P.message
     and type action = P.action = struct
  include P

  let handle_message ~self s env =
    let t0 = now_ns () in
    match P.handle_message ~self s env with
    | r ->
        R.record t0;
        r
    | exception e ->
        R.record t0;
        raise e

  let handle_action ~self s a =
    let t0 = now_ns () in
    match P.handle_action ~self s a with
    | r ->
        R.record t0;
        r
    | exception e ->
        R.record t0;
        raise e

  let on_recover ~self s =
    let t0 = now_ns () in
    let r = P.on_recover ~self s in
    R.record t0;
    r
end

(** Charges each call to the innermost open span. *)
module Timed = Timed_with (struct
  let record = handler_done
end)

(** Charges each call to the live-sim totals above. *)
module Timed_live = Timed_with (struct
  let record = live_handler_done
end)

(** [Timed (P)] (or [Timed_live (P)] with [~live:true]) in a traced
    pass, [P] itself otherwise. *)
let maybe_timed (type s m a) ?(live = false) ~traced
    (module P : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a) =
  if traced && live then
    (module Timed_live (P) : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a)
  else if traced then
    (module Timed (P) : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a)
  else
    (module P : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a)

let duration_ns s = s.stop_ns - s.start_ns
let self_ns s = duration_ns s - s.child_ns - s.handler_ns

let reset () =
  finished := [];
  stack := [];
  live_handler_ns := 0;
  live_handler_calls := 0

let to_json s =
  Dsm.Json.Obj
    [
      ("id", Dsm.Json.Int s.id);
      ("name", Dsm.Json.String s.name);
      ("case", Dsm.Json.Int s.case_id);
      ("parent", Dsm.Json.Int s.parent);
      ("start_ns", Dsm.Json.Int s.start_ns);
      ("end_ns", Dsm.Json.Int s.stop_ns);
      ("self_ns", Dsm.Json.Int (self_ns s));
      ("handler_ns", Dsm.Json.Int s.handler_ns);
      ("handler_calls", Dsm.Json.Int s.handler_calls);
    ]
