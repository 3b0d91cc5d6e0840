type event = {
  node : Dsm.Node_id.t;
  label : Dsm.Fingerprint.t;
  requires : Dsm.Fingerprint.t option;
  produces : Dsm.Fingerprint.t list;
}

type sequence = event list

type verdict = Valid of event list | Invalid | Budget_exhausted

exception Out_of_budget

(* Per-call observability: search-step histograms separate the cheap
   prefilter rejections (0 steps) from the searches that actually
   backtrack, and the verdict counters make "how often does soundness
   save us" a first-class number.  All cells are atomic, so the
   deferred-verification worker domains record concurrently. *)
let record obs ~kind ~steps verdict =
  match obs with
  | None -> ()
  | Some scope ->
      Obs.Metrics.observe (Obs.histogram scope "soundness.steps") steps;
      Obs.Metrics.incr (Obs.counter scope ("soundness.checks." ^ kind));
      Obs.Metrics.incr
        (Obs.counter scope
           (match verdict with
           | Valid _ -> "soundness.valid"
           | Invalid -> "soundness.invalid"
           | Budget_exhausted -> "soundness.budget_exhausted"))

let verdict_string = function
  | Valid _ -> "valid"
  | Invalid -> "invalid"
  | Budget_exhausted -> "budget_exhausted"

(* Flight-recorder view of the same call: one [ev = "soundness"]
   record per interleaving search, with its effort and outcome.  Only
   wired on the sequential verification path — worker-domain emissions
   would make record order scheduling-dependent. *)
let record_trace trace ~kind ~steps verdict =
  match trace with
  | None -> ()
  | Some tr ->
      ignore
        (Obs.Trace.emit tr ~ev:"soundness"
           [
             ("kind", Dsm.Json.String kind);
             ("steps", Dsm.Json.Int steps);
             ("verdict", Dsm.Json.String (verdict_string verdict));
             ( "witness_events",
               match verdict with
               | Valid order -> Dsm.Json.Int (List.length order)
               | Invalid | Budget_exhausted -> Dsm.Json.Null );
           ])

(* ----- interned search state ----- *)

(* Every fingerprint one call can touch gets a dense id, so the net is
   an [int array] of counts and a search configuration is the pair
   (component positions, net counts).  The search keeps a hash of the
   current configuration up to date as it moves — each move adds a
   precomputed delta — and a memo set compares stored configurations
   element by element, so it holds exactly the configurations added to
   it: no digest, no false sharing. *)

(* Weights of the configuration hash: one per (component, vertex)
   position, one per copy of a message in the net. *)
let pos_weight i v = Hashtbl.hash (0, i, v)
let msg_weight f = Hashtbl.hash (1, f)

(* The net of one search: a count per interned fingerprint, and the
   sparse set of the ids whose count is nonzero — the messages in
   flight, [live.(0 .. size - 1)] in no particular order, with
   [slot.(f)] the position of [f] in [live].  A call interns every
   message any edge can produce, but only a few are in flight at once,
   so the memo keys below are built from and compared against [live],
   never the whole counts array.  Each search owns its net: the
   deferred verification runs searches on several domains at once. *)
type net = {
  counts : int array;
  live : int array;
  slot : int array;
  mutable size : int;
}

let add_msg net f =
  let c = net.counts.(f) in
  if c = 0 then begin
    net.slot.(f) <- net.size;
    net.live.(net.size) <- f;
    net.size <- net.size + 1
  end;
  net.counts.(f) <- c + 1

let remove_msg net f =
  let c = net.counts.(f) - 1 in
  net.counts.(f) <- c;
  if c = 0 then begin
    let last = net.live.(net.size - 1) in
    net.live.(net.slot.(f)) <- last;
    net.slot.(last) <- net.slot.(f);
    net.size <- net.size - 1
  end

module Memo = struct
  (* An open-addressing set of configurations, probed linearly from
     their hash.  A stored configuration is one small [int array]: its
     hash, what the search knows of it, the positions, then (message,
     count) pairs for the messages in flight, in the order of
     [net.live].  Small arrays are allocated in the minor heap; one
     growing arena, allocated in the major heap, was no faster. *)
  type t = { mutable slots : int array array; mutable count : int }

  (* What the search knows of a stored configuration. *)
  let failed = 0  (* no way on from here: memoised *)
  let on_path = 1  (* on the current depth-first path *)
  let open_ = 2  (* visited, but no verdict that may be reused *)

  let header = 2
  let absent : int array = [||]

  (* [n] must be a power of two. *)
  let create n = { slots = Array.make n absent; count = 0 }

  (* The stored pairs name distinct messages, each with a positive
     count; if every one of them matches the current net and there are
     as many as messages in flight now, the two nets are equal.  Loops,
     not local functions: this runs on every search step. *)
  let same key h positions net =
    let np = Array.length positions in
    key.(0) = h
    && Array.length key = header + np + (2 * net.size)
    &&
    let ok = ref true and i = ref 0 in
    while !ok && !i < np do
      ok := key.(header + !i) = positions.(!i);
      incr i
    done;
    let j = ref (header + np) in
    while !ok && !j < Array.length key do
      ok := net.counts.(key.(!j)) = key.(!j + 1);
      j := !j + 2
    done;
    !ok

  (* The stored current configuration, or [absent]. *)
  let find t h positions net =
    let mask = Array.length t.slots - 1 in
    let i = ref (h land mask) in
    while t.slots.(!i) != absent && not (same t.slots.(!i) h positions net) do
      i := (!i + 1) land mask
    done;
    t.slots.(!i)

  let status key = key.(1)
  let set_status key status = key.(1) <- status

  let place slots key =
    let mask = Array.length slots - 1 in
    let i = ref (key.(0) land mask) in
    while slots.(!i) != absent do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- key

  (* Stores the current configuration, known to be absent, as
     [status]; returns the stored key. *)
  let add t h positions net status =
    let np = Array.length positions in
    let key = Array.make (header + np + (2 * net.size)) status in
    key.(0) <- h;
    Array.blit positions 0 key header np;
    for j = 0 to net.size - 1 do
      let f = net.live.(j) in
      key.(header + np + (2 * j)) <- f;
      key.(header + np + (2 * j) + 1) <- net.counts.(f)
    done;
    t.count <- t.count + 1;
    if 2 * t.count > Array.length t.slots then begin
      let old = t.slots in
      t.slots <- Array.make (2 * Array.length old) absent;
      Array.iter (fun k -> if k != absent then place t.slots k) old
    end;
    place t.slots key;
    key
end

(* Fingerprints are MD5 digests: their first bytes are already a
   hash. *)
module Fp_tbl = Hashtbl.Make (struct
  type t = Dsm.Fingerprint.t

  let equal = Dsm.Fingerprint.equal

  let hash fp =
    if String.length fp >= 8 then Int64.to_int (String.get_int64_le fp 0)
    else Hashtbl.hash fp
end)

module Int_tbl = Hashtbl.Make (Int)

let intern ids fp =
  match Fp_tbl.find_opt ids fp with
  | Some i -> i
  | None ->
      let i = Fp_tbl.length ids in
      Fp_tbl.add ids fp i;
      i

(* An event with its fingerprints interned, as a move of component
   [comp] from position [here] to [next]. *)
type move = {
  ev : event;
  req : int;  (* interned [ev.requires]; -1 for internal actions *)
  prods : int array;  (* interned [ev.produces] *)
  next : int;  (* position after the move *)
  neutral : bool;  (* a self-edge that leaves the net unchanged *)
  delta : int;  (* what the move adds to the configuration hash *)
}

let make_move ids ev ~comp ~here ~next =
  let req = match ev.requires with Some fp -> intern ids fp | None -> -1 in
  let prods = Array.of_list (List.map (intern ids) ev.produces) in
  let neutral =
    here = next
    && match prods with [||] -> req < 0 | [| p |] -> req = p | _ -> false
  in
  let delta =
    Array.fold_left
      (fun d p -> d + msg_weight p)
      (pos_weight comp next - pos_weight comp here
      - if req >= 0 then msg_weight req else 0)
      prods
  in
  { ev; req; prods; next; neutral; delta }

(* A fresh net over every fingerprint interned so far, [initial_net]
   loaded. *)
let make_net ids initial_net =
  let init = List.map (intern ids) initial_net in
  let n = Fp_tbl.length ids in
  let net =
    {
      counts = Array.make n 0;
      live = Array.make n 0;
      slot = Array.make n 0;
      size = 0;
    }
  in
  List.iter (add_msg net) init;
  net

let config_hash positions net =
  let h = ref 0 in
  Array.iteri (fun i v -> h := !h + pos_weight i v) positions;
  for j = 0 to net.size - 1 do
    let f = net.live.(j) in
    h := !h + (net.counts.(f) * msg_weight f)
  done;
  !h

let enabled net m = m.req < 0 || net.counts.(m.req) > 0

let apply net m =
  if m.req >= 0 then remove_msg net m.req;
  for k = 0 to Array.length m.prods - 1 do
    add_msg net m.prods.(k)
  done

let undo net m =
  for k = 0 to Array.length m.prods - 1 do
    remove_msg net m.prods.(k)
  done;
  if m.req >= 0 then add_msg net m.req

(* ----- sequence engine ----- *)

let check ?obs ?trace ?(budget = 200_000) ~initial_net sequences =
  let n = Array.length sequences in
  let ids = Fp_tbl.create 64 in
  let seqs =
    Array.mapi
      (fun comp s ->
        Array.of_list
          (List.mapi (fun p ev -> make_move ids ev ~comp ~here:p ~next:(p + 1)) s))
      sequences
  in
  let net = make_net ids initial_net in
  (* Necessary condition checked before any search: every consumed
     message must be produced somewhere (by another event or the
     initial net), with multiplicity.  Most invalid combinations of
     node states fail here, in time linear in the number of events. *)
  let balanced () =
    let bal = Array.copy net.counts in
    Array.iter
      (Array.iter (fun m ->
           Array.iter (fun p -> bal.(p) <- bal.(p) + 1) m.prods;
           if m.req >= 0 then bal.(m.req) <- bal.(m.req) - 1))
      seqs;
    Array.for_all (fun c -> c >= 0) bal
  in
  let positions = Array.make n 0 in
  let steps = ref 0 in
  (* Failed configurations are memoised.  The net is a function of the
     positions here, so the net half of the key never separates two
     configurations the positions do not. *)
  let failed = Memo.create 256 in
  let h = ref (config_hash positions net) in
  let rec all_done i =
    i >= n || (positions.(i) = Array.length seqs.(i) && all_done (i + 1))
  in
  let rec dfs order =
    incr steps;
    if !steps > budget then raise Out_of_budget;
    if all_done 0 then Some (List.rev order)
    else begin
      let hk = !h in
      if Memo.find failed hk positions net != Memo.absent then None
      else begin
        let result = ref None in
        let i = ref 0 in
        while Option.is_none !result && !i < n do
          let p = positions.(!i) in
          (if p < Array.length seqs.(!i) then
             let m = seqs.(!i).(p) in
             if enabled net m then begin
               positions.(!i) <- p + 1;
               apply net m;
               h := hk + m.delta;
               match dfs (m.ev :: order) with
               | Some _ as ok -> result := ok
               | None ->
                   undo net m;
                   h := hk;
                   positions.(!i) <- p
             end);
          incr i
        done;
        if Option.is_none !result then
          ignore (Memo.add failed hk positions net Memo.failed);
        !result
      end
    end
  in
  let verdict =
    if not (balanced ()) then Invalid
    else
      match dfs [] with
      | Some order -> Valid order
      | None -> Invalid
      | exception Out_of_budget -> Budget_exhausted
  in
  record obs ~kind:"sequence" ~steps:!steps verdict;
  record_trace trace ~kind:"sequence" ~steps:!steps verdict;
  verdict

(* ----- DAG engine ----- *)

type node_graph = {
  root : int;
  target : int;
  edges : (int * event * int) list;
}

type summary = {
  required : Dsm.Fingerprint.Set.t option;
  produced : Dsm.Fingerprint.Set.t;
}

(* One component's half of the prefilter.  [required] holds the
   messages consumed on EVERY root->target path ([None]: the target is
   not reachable from the root); [produced] every message any edge of
   the component generates. *)
let summarize g =
  let produced =
    List.fold_left
      (fun s (_, ev, _) ->
        List.fold_left (fun s fp -> Dsm.Fingerprint.Set.add fp s) s ev.produces)
      Dsm.Fingerprint.Set.empty g.edges
  in
  let required =
    if g.target = g.root then Some Dsm.Fingerprint.Set.empty
    else begin
      let incoming = Hashtbl.create 64 in
      List.iter
        (fun (u, ev, v) ->
          Hashtbl.replace incoming v
            ((u, ev.requires)
            :: Option.value ~default:[] (Hashtbl.find_opt incoming v)))
        g.edges;
      (* must(v): messages consumed on every cycle-free root->v path;
         [None] = no root path.  Memoisation across on-path contexts
         can only shrink the set, which keeps the filter sound. *)
      let memo : (int, Dsm.Fingerprint.Set.t option) Hashtbl.t =
        Hashtbl.create 64
      in
      let rec must v on_path =
        if v = g.root then Some Dsm.Fingerprint.Set.empty
        else if List.mem v on_path then None
        else
          match Hashtbl.find_opt memo v with
          | Some r -> r
          | None ->
              let contribs =
                List.filter_map
                  (fun (u, req) ->
                    match must u (v :: on_path) with
                    | None -> None
                    | Some s -> (
                        match req with
                        | Some fp -> Some (Dsm.Fingerprint.Set.add fp s)
                        | None -> Some s))
                  (Option.value ~default:[] (Hashtbl.find_opt incoming v))
              in
              let r =
                match contribs with
                | [] -> None
                | first :: rest ->
                    Some (List.fold_left Dsm.Fingerprint.Set.inter first rest)
              in
              Hashtbl.replace memo v r;
              r
      in
      must g.target []
    end
  in
  { required; produced }

(* Necessary condition, checked before any search: every message that
   is consumed on every root->target path of some component must be
   producible — by any edge of any component, or by the initial net.
   Most hopeless combinations (a component whose history depends on a
   node pinned at its snapshot state) die here, in a few set lookups
   per required message. *)
let prefilter ?obs ?trace ~initial_net summaries =
  let producible fp =
    List.exists (Dsm.Fingerprint.equal fp) initial_net
    || Array.exists (fun s -> Dsm.Fingerprint.Set.mem fp s.produced) summaries
  in
  Array.for_all
    (fun s ->
      match s.required with
      | None -> false
      | Some r -> Dsm.Fingerprint.Set.for_all producible r)
    summaries
  || begin
       record obs ~kind:"dag" ~steps:0 Invalid;
       record_trace trace ~kind:"dag" ~steps:0 Invalid;
       false
     end

(* Memoised forward search over the product of the component DAGs.
   Vertices are renumbered densely per component (the root first);
   [adj.(i).(v)] lists the moves out of vertex [v] with an edge listed
   later in [edges] tried first. *)
let search_dag ~steps ~budget ~initial_net graphs =
  let n = Array.length graphs in
  let ids = Fp_tbl.create 64 in
  let targets = Array.make n 0 in
  let adj =
    Array.mapi
      (fun i g ->
        let vid = Int_tbl.create 64 in
        let vertex v =
          match Int_tbl.find_opt vid v with
          | Some d -> d
          | None ->
              let d = Int_tbl.length vid in
              Int_tbl.add vid v d;
              d
        in
        ignore (vertex g.root);
        targets.(i) <- vertex g.target;
        List.iter
          (fun (u, _, v) ->
            ignore (vertex u);
            ignore (vertex v))
          g.edges;
        let out = Array.make (Int_tbl.length vid) [] in
        List.iter
          (fun (u, ev, v) ->
            let du = vertex u in
            out.(du) <-
              make_move ids ev ~comp:i ~here:du ~next:(vertex v) :: out.(du))
          g.edges;
        Array.map Array.of_list out)
      graphs
  in
  let net = make_net ids initial_net in
  let positions = Array.make n 0 in
  (* Self-edges and cycles allow walks that return to an earlier
     configuration before it is memoised as failed; an on-path mark
     cuts them.  The net is NOT a function of positions in a DAG
     (different paths to one vertex produce different multisets), so
     it is part of the key. *)
  let seen = Memo.create 256 in
  let h = ref (config_hash positions net) in
  let rec arrived i = i >= n || (positions.(i) = targets.(i) && arrived (i + 1)) in
  (* Returns (result, clean): [clean] is false when the subtree was cut
     by the on-path guard somewhere, in which case the failure must not
     be cached — the same configuration reached along another path
     could still succeed. *)
  let rec dfs order =
    incr steps;
    if !steps > budget then raise Out_of_budget;
    if arrived 0 then (Some (List.rev order), true)
    else begin
      let hk = !h in
      let stored = Memo.find seen hk positions net in
      let status =
        if stored == Memo.absent then Memo.open_ else Memo.status stored
      in
      if status = Memo.failed then (None, true)
      else if status = Memo.on_path then (None, false)
      else begin
        let stored =
          if stored == Memo.absent then
            Memo.add seen hk positions net Memo.on_path
          else begin
            Memo.set_status stored Memo.on_path;
            stored
          end
        in
        let result = ref None in
        let clean = ref true in
        let i = ref 0 in
        while Option.is_none !result && !i < n do
          let here = positions.(!i) in
          let moves = adj.(!i).(here) in
          let k = ref 0 in
          while Option.is_none !result && !k < Array.length moves do
            let m = moves.(!k) in
            if (not m.neutral) && enabled net m then begin
              positions.(!i) <- m.next;
              apply net m;
              h := hk + m.delta;
              match dfs (m.ev :: order) with
              | (Some _ as ok), _ -> result := ok
              | None, sub_clean ->
                  if not sub_clean then clean := false;
                  undo net m;
                  h := hk;
                  positions.(!i) <- here
            end;
            incr k
          done;
          incr i
        done;
        Memo.set_status stored
          (if Option.is_none !result && !clean then Memo.failed
           else Memo.open_);
        (!result, !clean)
      end
    end
  in
  fst (dfs [])

let check_dag ?obs ?trace ?(budget = 200_000) ?summaries ~initial_net graphs =
  let summaries =
    match summaries with
    | Some s when Array.length s = Array.length graphs -> s
    | Some _ -> invalid_arg "Soundness.check_dag: one summary per graph"
    | None -> Array.map summarize graphs
  in
  if not (prefilter ?obs ?trace ~initial_net summaries) then Invalid
  else begin
    let steps = ref 0 in
    let verdict =
      match search_dag ~steps ~budget ~initial_net graphs with
      | Some order -> Valid order
      | None -> Invalid
      | exception Out_of_budget -> Budget_exhausted
    in
    record obs ~kind:"dag" ~steps:!steps verdict;
    record_trace trace ~kind:"dag" ~steps:!steps verdict;
    verdict
  end
