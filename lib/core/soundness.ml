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

module Memo = struct
  (* configuration hash -> stored configurations.  A stored
     configuration is the positions followed by (message, count)
     pairs for the messages in flight, in id order: a net holds few
     of the fingerprints a call interns, so this is much smaller
     than the full counts array. *)
  type t = (int, int array) Hashtbl.t

  let create n : t = Hashtbl.create n

  let key positions counts =
    let np = Array.length positions in
    let inflight =
      Array.fold_left (fun k c -> if c > 0 then k + 1 else k) 0 counts
    in
    let key = Array.make (np + (2 * inflight)) 0 in
    Array.blit positions 0 key 0 np;
    let j = ref np in
    Array.iteri
      (fun f c ->
        if c > 0 then begin
          key.(!j) <- f;
          key.(!j + 1) <- c;
          j := !j + 2
        end)
      counts;
    key

  let same key positions counts =
    let np = Array.length positions in
    let rec pos i = i >= np || (key.(i) = positions.(i) && pos (i + 1)) in
    let rec net j f =
      if f >= Array.length counts then j = Array.length key
      else if counts.(f) = 0 then net j (f + 1)
      else
        j + 1 < Array.length key
        && key.(j) = f
        && key.(j + 1) = counts.(f)
        && net (j + 2) (f + 1)
    in
    pos 0 && net np 0

  let mem (t : t) h positions counts =
    List.exists (fun key -> same key positions counts) (Hashtbl.find_all t h)

  let add (t : t) h key = Hashtbl.add t h key

  (* Drops the configuration added last under [h] — the current one,
     when additions and removals nest as on a depth-first path. *)
  let remove (t : t) h = Hashtbl.remove t h
end

let intern ids fp =
  match Hashtbl.find_opt ids fp with
  | Some i -> i
  | None ->
      let i = Hashtbl.length ids in
      Hashtbl.add ids fp i;
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

(* The net as counts per interned fingerprint, [initial_net] loaded. *)
let make_net ids initial_net =
  let init = List.map (intern ids) initial_net in
  let counts = Array.make (Hashtbl.length ids) 0 in
  List.iter (fun i -> counts.(i) <- counts.(i) + 1) init;
  counts

let config_hash positions counts =
  let h = ref 0 in
  Array.iteri (fun i v -> h := !h + pos_weight i v) positions;
  Array.iteri (fun f c -> h := !h + (c * msg_weight f)) counts;
  !h

let enabled counts m = m.req < 0 || counts.(m.req) > 0

let apply counts m =
  if m.req >= 0 then counts.(m.req) <- counts.(m.req) - 1;
  Array.iter (fun p -> counts.(p) <- counts.(p) + 1) m.prods

let undo counts m =
  Array.iter (fun p -> counts.(p) <- counts.(p) - 1) m.prods;
  if m.req >= 0 then counts.(m.req) <- counts.(m.req) + 1

(* ----- sequence engine ----- *)

let check ?obs ?trace ?(budget = 200_000) ~initial_net sequences =
  let n = Array.length sequences in
  let ids = Hashtbl.create 64 in
  let seqs =
    Array.mapi
      (fun comp s ->
        Array.of_list
          (List.mapi (fun p ev -> make_move ids ev ~comp ~here:p ~next:(p + 1)) s))
      sequences
  in
  let counts = make_net ids initial_net in
  (* Necessary condition checked before any search: every consumed
     message must be produced somewhere (by another event or the
     initial net), with multiplicity.  Most invalid combinations of
     node states fail here, in time linear in the number of events. *)
  let balanced () =
    let bal = Array.copy counts in
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
  let h = ref (config_hash positions counts) in
  let rec all_done i =
    i >= n || (positions.(i) = Array.length seqs.(i) && all_done (i + 1))
  in
  let rec dfs order =
    incr steps;
    if !steps > budget then raise Out_of_budget;
    if all_done 0 then Some (List.rev order)
    else begin
      let hk = !h in
      if Memo.mem failed hk positions counts then None
      else begin
        let result = ref None in
        let i = ref 0 in
        while Option.is_none !result && !i < n do
          let p = positions.(!i) in
          (if p < Array.length seqs.(!i) then
             let m = seqs.(!i).(p) in
             if enabled counts m then begin
               positions.(!i) <- p + 1;
               apply counts m;
               h := hk + m.delta;
               match dfs (m.ev :: order) with
               | Some _ as ok -> result := ok
               | None ->
                   undo counts m;
                   h := hk;
                   positions.(!i) <- p
             end);
          incr i
        done;
        if Option.is_none !result then
          Memo.add failed hk (Memo.key positions counts);
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
  let ids = Hashtbl.create 64 in
  let targets = Array.make n 0 in
  let adj =
    Array.mapi
      (fun i g ->
        let vid = Hashtbl.create 64 in
        let vertex v = intern vid v in
        ignore (vertex g.root);
        targets.(i) <- vertex g.target;
        List.iter
          (fun (u, _, v) ->
            ignore (vertex u);
            ignore (vertex v))
          g.edges;
        let out = Array.make (Hashtbl.length vid) [] in
        List.iter
          (fun (u, ev, v) ->
            let du = vertex u in
            out.(du) <-
              make_move ids ev ~comp:i ~here:du ~next:(vertex v) :: out.(du))
          g.edges;
        Array.map Array.of_list out)
      graphs
  in
  let counts = make_net ids initial_net in
  let positions = Array.make n 0 in
  let failed = Memo.create 256 in
  (* Self-edges and cycles allow walks that return to an earlier
     configuration before it is memoised as failed; an on-path set
     cuts them.  The net is NOT a function of positions in a DAG
     (different paths to one vertex produce different multisets), so
     it is part of the key. *)
  let on_path = Memo.create 64 in
  let h = ref (config_hash positions counts) in
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
      if Memo.mem failed hk positions counts then (None, true)
      else if Memo.mem on_path hk positions counts then (None, false)
      else begin
        let key = Memo.key positions counts in
        Memo.add on_path hk key;
        let result = ref None in
        let clean = ref true in
        let i = ref 0 in
        while Option.is_none !result && !i < n do
          let here = positions.(!i) in
          let moves = adj.(!i).(here) in
          let k = ref 0 in
          while Option.is_none !result && !k < Array.length moves do
            let m = moves.(!k) in
            if (not m.neutral) && enabled counts m then begin
              positions.(!i) <- m.next;
              apply counts m;
              h := hk + m.delta;
              match dfs (m.ev :: order) with
              | (Some _ as ok), _ -> result := ok
              | None, sub_clean ->
                  if not sub_clean then clean := false;
                  undo counts m;
                  h := hk;
                  positions.(!i) <- here
            end;
            incr k
          done;
          incr i
        done;
        Memo.remove on_path hk;
        if Option.is_none !result && !clean then Memo.add failed hk key;
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
