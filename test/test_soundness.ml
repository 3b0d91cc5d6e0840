(* Tests for the a-posteriori soundness-verification engine. *)

let check = Alcotest.check
let fail = Alcotest.fail

let fp s = Dsm.Fingerprint.of_string s

(* Shorthand event builder. *)
let ev ?requires ?(produces = []) node label =
  {
    Lmc.Soundness.node;
    label = fp label;
    requires = Option.map fp requires;
    produces = List.map fp produces;
  }

let is_valid = function Lmc.Soundness.Valid _ -> true | _ -> false
let is_invalid = function Lmc.Soundness.Invalid -> true | _ -> false

(* ---------- sequence checker ---------- *)

let test_empty_sequences () =
  check Alcotest.bool "trivially valid" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] [| []; []; [] |]))

let test_local_only () =
  let seqs = [| [ ev 0 "a"; ev 0 "b" ]; [ ev 1 "c" ] |] in
  check Alcotest.bool "local events always schedulable" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_simple_send_receive () =
  let seqs =
    [| [ ev 0 "send" ~produces:[ "m" ] ]; [ ev 1 "recv" ~requires:"m" ] |]
  in
  check Alcotest.bool "producer before consumer" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_missing_producer () =
  let seqs = [| []; [ ev 1 "recv" ~requires:"ghost" ] |] in
  check Alcotest.bool "unproduced message rejected" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_initial_net_supplies () =
  let seqs = [| []; [ ev 1 "recv" ~requires:"m" ] |] in
  check Alcotest.bool "initial net satisfies" true
    (is_valid (Lmc.Soundness.check ~initial_net:[ fp "m" ] seqs))

let test_multiplicity () =
  (* one production, two consumptions: invalid *)
  let seqs =
    [|
      [ ev 0 "send" ~produces:[ "m" ] ];
      [ ev 1 "r1" ~requires:"m" ];
      [ ev 2 "r2" ~requires:"m" ];
    |]
  in
  check Alcotest.bool "multiplicity respected" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs));
  (* two productions satisfy both *)
  let seqs2 =
    [|
      [ ev 0 "send" ~produces:[ "m"; "m" ] ];
      [ ev 1 "r1" ~requires:"m" ];
      [ ev 2 "r2" ~requires:"m" ];
    |]
  in
  check Alcotest.bool "two copies two consumers" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs2))

let test_loopback () =
  (* a node consumes a message it produced itself earlier *)
  let seqs =
    [| [ ev 0 "send" ~produces:[ "self" ]; ev 0 "recv" ~requires:"self" ] |]
  in
  check Alcotest.bool "loopback valid" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_ordering_constraint () =
  (* node 0's sequence consumes before it produces: only valid if some
     other node supplies the message — here nobody does. *)
  let seqs =
    [| [ ev 0 "recv" ~requires:"m"; ev 0 "send" ~produces:[ "m" ] ] |]
  in
  check Alcotest.bool "cannot consume before producing" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_cross_dependency () =
  (* classic handshake: 0 sends req, 1 replies, 0 consumes reply *)
  let seqs =
    [|
      [ ev 0 "send" ~produces:[ "req" ]; ev 0 "recv" ~requires:"resp" ];
      [ ev 1 "serve" ~requires:"req" ~produces:[ "resp" ] ];
    |]
  in
  match Lmc.Soundness.check ~initial_net:[] seqs with
  | Lmc.Soundness.Valid order ->
      check Alcotest.int "all events scheduled" 3 (List.length order);
      (* the witness must be causally ordered *)
      let labels = List.map (fun (e : Lmc.Soundness.event) -> e.label) order in
      let pos l =
        let rec go i = function
          | [] -> -1
          | x :: rest -> if Dsm.Fingerprint.equal x l then i else go (i + 1) rest
        in
        go 0 labels
      in
      check Alcotest.bool "send before serve" true
        (pos (fp "send") < pos (fp "serve"));
      check Alcotest.bool "serve before recv" true
        (pos (fp "serve") < pos (fp "recv"))
  | _ -> fail "handshake should be valid"

let test_deadlock_cycle () =
  (* 0 waits for 1's message and vice versa: deadlocked, invalid *)
  let seqs =
    [|
      [ ev 0 "r0" ~requires:"m1"; ev 0 "s0" ~produces:[ "m0" ] ];
      [ ev 1 "r1" ~requires:"m0"; ev 1 "s1" ~produces:[ "m1" ] ];
    |]
  in
  check Alcotest.bool "circular wait invalid" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_budget () =
  (* Many independent local events explode the interleaving count; with
     budget 1 the verdict must be Budget_exhausted, not a wrong answer.
     (Budget 1 cannot even finish scheduling one event chain.) *)
  let seqs =
    Array.init 4 (fun n -> List.init 5 (fun i -> ev n (Printf.sprintf "l%d_%d" n i)))
  in
  match Lmc.Soundness.check ~budget:1 ~initial_net:[] seqs with
  | Lmc.Soundness.Budget_exhausted -> ()
  | Lmc.Soundness.Valid _ -> fail "budget 1 cannot complete"
  | Lmc.Soundness.Invalid -> fail "must not prove invalidity under budget"

(* ---------- the primer example (§2) ---------- *)

let test_primer_invalid_state () =
  (* "----r": node 4 received the token, nobody sent anything. *)
  let seqs = [| []; []; []; []; [ ev 4 "recv" ~requires:"m14" ] |] in
  check Alcotest.bool "----r rejected" true
    (is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

let test_primer_valid_state () =
  (* "s---r" with the forwarding chain present in the sequences. *)
  let seqs =
    [|
      [ ev 0 "start" ~produces:[ "m01"; "m02" ] ];
      [ ev 1 "fwd" ~requires:"m01" ~produces:[ "m13"; "m14" ] ];
      [];
      [];
      [ ev 4 "recv" ~requires:"m14" ];
    |]
  in
  check Alcotest.bool "s---r valid" true
    (is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

(* ---------- DAG checker ---------- *)

let graph ~root ~target edges = { Lmc.Soundness.root; target; edges }

let test_dag_trivial () =
  let graphs = [| graph ~root:0 ~target:0 [] |] in
  check Alcotest.bool "root=target valid" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_linear () =
  let graphs =
    [|
      graph ~root:0 ~target:2
        [ (0, ev 0 "a" ~produces:[ "m" ], 1); (1, ev 0 "b", 2) ];
      graph ~root:0 ~target:1 [ (0, ev 1 "c" ~requires:"m", 1) ];
    |]
  in
  check Alcotest.bool "linear chain valid" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_branch_selection () =
  (* Two paths to the target; only the one producing "m" lets node 1
     proceed.  The search must find the producing branch. *)
  let graphs =
    [|
      graph ~root:0 ~target:2
        [
          (0, ev 0 "silent", 1);
          (1, ev 0 "silent2", 2);
          (0, ev 0 "noisy" ~produces:[ "m" ], 3);
          (3, ev 0 "noisy2", 2);
        ];
      graph ~root:0 ~target:1 [ (0, ev 1 "recv" ~requires:"m", 1) ];
    |]
  in
  check Alcotest.bool "finds producing branch" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_unreachable_target () =
  (* target 5 has no incoming path from root *)
  let graphs = [| graph ~root:0 ~target:5 [ (0, ev 0 "a", 1) ] |] in
  check Alcotest.bool "unreachable target invalid" true
    (is_invalid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_must_consume_filter () =
  (* Every path to the target consumes "ghost"; nobody produces it.
     The feasibility filter must reject without search. *)
  let graphs =
    [|
      graph ~root:0 ~target:2
        [
          (0, ev 0 "a" ~requires:"ghost", 1);
          (1, ev 0 "b", 2);
          (0, ev 0 "c", 3);
          (3, ev 0 "d" ~requires:"ghost", 2);
        ];
    |]
  in
  check Alcotest.bool "must-consume filter rejects" true
    (is_invalid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_optional_consume_not_filtered () =
  (* One path avoids "ghost": must stay valid. *)
  let graphs =
    [|
      graph ~root:0 ~target:2
        [
          (0, ev 0 "a" ~requires:"ghost", 1);
          (1, ev 0 "b", 2);
          (0, ev 0 "c", 3);
          (3, ev 0 "d", 2);
        ];
    |]
  in
  check Alcotest.bool "alternative path found" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_cycle_tolerated () =
  (* A cycle 1 <-> 2 plus a proper path to the target. *)
  let graphs =
    [|
      graph ~root:0 ~target:3
        [
          (0, ev 0 "a", 1);
          (1, ev 0 "b", 2);
          (2, ev 0 "back", 1);
          (2, ev 0 "done", 3);
        ];
    |]
  in
  check Alcotest.bool "cycle does not loop forever" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let test_dag_initial_net () =
  let graphs =
    [| graph ~root:0 ~target:1 [ (0, ev 0 "r" ~requires:"m", 1) ] |]
  in
  check Alcotest.bool "without net invalid" true
    (is_invalid (Lmc.Soundness.check_dag ~initial_net:[] graphs));
  check Alcotest.bool "with net valid" true
    (is_valid (Lmc.Soundness.check_dag ~initial_net:[ fp "m" ] graphs))

(* Replays a witness order edge by edge: each event must leave its
   component's current vertex and be enabled by the net; at the end
   every component must stand on its target. *)
let replays ~initial_net (graphs : Lmc.Soundness.node_graph array) order =
  let pos = Array.map (fun (g : Lmc.Soundness.node_graph) -> g.root) graphs in
  let net = Hashtbl.create 16 in
  let count fp = Option.value ~default:0 (Hashtbl.find_opt net fp) in
  List.iter (fun fp -> Hashtbl.replace net fp (count fp + 1)) initial_net;
  let step (e : Lmc.Soundness.event) =
    let i = e.node in
    match
      List.find_opt
        (fun (u, (e' : Lmc.Soundness.event), _) ->
          u = pos.(i) && Dsm.Fingerprint.equal e'.label e.label)
        graphs.(i).edges
    with
    | None -> false
    | Some (_, _, v) -> (
        match e.requires with
        | Some r when count r = 0 -> false
        | req ->
            Option.iter (fun r -> Hashtbl.replace net r (count r - 1)) req;
            List.iter (fun p -> Hashtbl.replace net p (count p + 1)) e.produces;
            pos.(i) <- v;
            true)
  in
  List.for_all step order
  && Array.for_all2 (fun p (g : Lmc.Soundness.node_graph) -> p = g.target) pos graphs

(* Node 0 reaches vertex 2 along two paths and then sends "go"; node 1
   needs "go" and then [need] copies of "m".  The path tried first
   leaves the wrong net at vertex 2 and fails; the second reaches the
   same positions with the net node 1 needs.  A memo that confuses the
   two configurations — by ignoring which messages are in flight, or
   how many — calls the combination invalid. *)
let memo_case ~first ~second ~need =
  [|
    graph ~root:0 ~target:4
      [
        (0, ev 0 "second" ~produces:second, 3);
        (3, ev 0 "y", 2);
        (0, ev 0 "first" ~produces:first, 1);
        (1, ev 0 "x", 2);
        (2, ev 0 "go" ~produces:[ "go" ], 4);
      ];
    graph ~root:0 ~target:(1 + List.length need)
      ((0, ev 1 "start" ~requires:"go", 1)
      :: List.mapi
           (fun i m -> (i + 1, ev 1 (Printf.sprintf "r%d" i) ~requires:m, i + 2))
           need);
  |]

(* Two components race [len] steps each, every step handing the next
   one a private message, for the one copy of "z" their last steps both
   need; [copies] producers of "z" can each give one.  A third edge
   would produce 40 more messages but needs one nobody sends, so the
   search interns every one of them and never puts one in flight.  With
   one copy the search must visit every interleaving of the two races
   to fail: without an exact failed-configuration memo that is
   C(2 len, len) of them, far beyond the budget. *)
let race_case ~len ~copies =
  let racer comp name =
    let m i = Printf.sprintf "%s%d" name i in
    graph ~root:0 ~target:(len + 1)
      ((0, ev comp (m 0) ~produces:[ m 0 ], 1)
      :: (len, ev comp "take" ~requires:"z", len + 1)
      :: List.init (len - 1) (fun i ->
             (i + 1, ev comp (m (i + 1)) ~requires:(m i) ~produces:[ m (i + 1) ],
              i + 2)))
  in
  [|
    racer 0 "a";
    racer 1 "b";
    graph ~root:0 ~target:copies
      ((0, ev 2 "never" ~requires:"ghost"
             ~produces:(List.init 40 (Printf.sprintf "w%d")), copies + 1)
      :: List.init copies (fun i ->
             (i, ev 2 (Printf.sprintf "z%d" i) ~produces:[ "z" ], i + 1)));
  |]

let test_dag_memo_exact () =
  check Alcotest.bool "message identity" true
    (is_valid
       (Lmc.Soundness.check_dag ~initial_net:[]
          (memo_case ~first:[ "n" ] ~second:[ "m" ] ~need:[ "m" ])));
  check Alcotest.bool "message multiplicity" true
    (is_valid
       (Lmc.Soundness.check_dag ~initial_net:[]
          (memo_case ~first:[ "m" ] ~second:[ "m"; "m" ] ~need:[ "m"; "m" ])));
  (* Every backtrack takes a message out of flight again: the search
     must still know each configuration it failed from, and never take
     one for another. *)
  check Alcotest.bool "few in flight among many interned: failure" true
    (is_invalid
       (Lmc.Soundness.check_dag ~budget:20_000 ~initial_net:[]
          (race_case ~len:10 ~copies:1)));
  let graphs = race_case ~len:10 ~copies:2 in
  match Lmc.Soundness.check_dag ~budget:20_000 ~initial_net:[] graphs with
  | Lmc.Soundness.Valid order ->
      check Alcotest.bool "few in flight among many interned: witness replays"
        true
        (replays ~initial_net:[] graphs order)
  | _ -> fail "two copies of z: expected a witness"

(* ---------- property: projections of real runs are valid ---------- *)

(* Generate a random valid run: a sequence of events where each event
   either is local or consumes a previously produced, not yet consumed
   message addressed to its node; some events produce messages to
   random nodes.  The per-node projections must always check Valid. *)
let gen_valid_run =
  let open QCheck.Gen in
  let num_nodes = 3 in
  let* steps = int_range 1 14 in
  let rec build i pending acc seed =
    if i >= steps then return (List.rev acc)
    else
      let* node = int_range 0 (num_nodes - 1) in
      let* produce_count = int_range 0 2 in
      let label = Printf.sprintf "e%d" i in
      let* produced_dsts =
        flatten_l (List.init produce_count (fun _ -> int_range 0 (num_nodes - 1)))
      in
      let produced =
        List.mapi (fun j dst -> (dst, Printf.sprintf "m%d_%d_%d" seed i j)) produced_dsts
      in
      let deliverable = List.filter (fun (dst, _) -> dst = node) pending in
      let* consume =
        match deliverable with
        | [] -> return None
        | l ->
            let* flip = bool in
            if flip then
              let* k = int_range 0 (List.length l - 1) in
              return (Some (List.nth l k))
            else return None
      in
      let event =
        ev node label
          ?requires:(Option.map snd consume)
          ~produces:(List.map snd produced)
      in
      let pending =
        let without =
          match consume with
          | Some c -> List.filter (fun x -> x != c) pending
          | None -> pending
        in
        produced @ without
      in
      build (i + 1) pending (event :: acc) seed
  in
  let* seed = int_range 0 10_000 in
  build 0 [] [] seed

let prop_valid_run_projections =
  QCheck.Test.make ~count:300 ~name:"per-node projections of a real run verify"
    (QCheck.make gen_valid_run)
    (fun events ->
      let seqs =
        Array.init 3 (fun n ->
            List.filter (fun (e : Lmc.Soundness.event) -> e.node = n) events)
      in
      is_valid (Lmc.Soundness.check ~initial_net:[] seqs))

let prop_valid_run_projections_dag =
  QCheck.Test.make ~count:300
    ~name:"linearised DAGs of a real run verify (check_dag)"
    (QCheck.make gen_valid_run)
    (fun events ->
      let graphs =
        Array.init 3 (fun n ->
            let seq =
              List.filter (fun (e : Lmc.Soundness.event) -> e.node = n) events
            in
            let arr = Array.of_list seq in
            {
              Lmc.Soundness.root = 0;
              target = Array.length arr;
              edges = List.init (Array.length arr) (fun i -> (i, arr.(i), i + 1));
            })
      in
      is_valid (Lmc.Soundness.check_dag ~initial_net:[] graphs))

let prop_ghost_requirement_invalid =
  QCheck.Test.make ~count:300 ~name:"appending a ghost consumption invalidates"
    (QCheck.make gen_valid_run)
    (fun events ->
      let poisoned =
        events @ [ ev 0 "ghost-recv" ~requires:"never-produced-anywhere" ]
      in
      let seqs =
        Array.init 3 (fun n ->
            List.filter (fun (e : Lmc.Soundness.event) -> e.node = n) poisoned)
      in
      is_invalid (Lmc.Soundness.check ~initial_net:[] seqs))

(* ---------- differential: check_dag against a brute-force search ---------- *)

(* Random small component graphs: a root->target chain (each link
   present with high probability) plus random extra edges — back edges,
   cross edges and self-edges — and sometimes a neutral self-edge that
   consumes and re-produces one message.  Messages come from a
   three-letter alphabet, so consumptions often find producers.  Extra
   edges always consume, which keeps most (not all) configuration
   spaces finite, so the reference below can decide them. *)
let gen_dag_case =
  let open QCheck.Gen in
  let msg = oneofl [ "a"; "b"; "c" ] in
  let gen_event ?(ratio = 0.5) comp k =
    let* requires = opt ~ratio msg in
    let* produces = list_size (int_range 0 (if k < 100 then 2 else 1)) msg in
    return (ev comp (Printf.sprintf "c%d_e%d" comp k) ?requires ~produces)
  in
  let gen_component comp =
    let* v = int_range 1 4 in
    let* chain =
      flatten_l
        (List.init (v - 1) (fun i ->
             let* keep = float_bound_inclusive 1.0 in
             let* e = gen_event comp i in
             return (if keep < 0.9 then [ (i, e, i + 1) ] else [])))
    in
    let* extra =
      list_size (int_range 0 4)
        (let* u = int_range 0 (v - 1) in
         let* w = int_range 0 (v - 1) in
         return (u, w))
    in
    let* extra =
      flatten_l
        (List.mapi
           (fun j (u, w) ->
             let* e = gen_event ~ratio:1.0 comp (100 + j) in
             return (u, e, w))
           extra)
    in
    let* neutral = opt ~ratio:0.3 (pair (int_range 0 (v - 1)) msg) in
    let neutral =
      match neutral with
      | None -> []
      | Some (u, m) ->
          [ (u, ev comp (Printf.sprintf "c%d_n" comp) ~requires:m ~produces:[ m ], u) ]
    in
    return (graph ~root:0 ~target:(v - 1) (List.concat chain @ extra @ neutral))
  in
  let* k = int_range 2 4 in
  let* graphs = flatten_l (List.init k gen_component) in
  let* initial_net = list_size (int_range 1 2) msg in
  return (Array.of_list graphs, List.map fp initial_net)

let print_dag_case (graphs, initial_net) =
  let short fp = String.sub (Dsm.Fingerprint.to_hex fp) 0 6 in
  let pev (e : Lmc.Soundness.event) =
    Printf.sprintf "%s%s->[%s]" (short e.label)
      (match e.requires with Some r -> "?" ^ short r | None -> "")
      (String.concat "," (List.map short e.produces))
  in
  String.concat "\n"
    (Printf.sprintf "net [%s]" (String.concat "," (List.map short initial_net))
    :: Array.to_list
         (Array.mapi
            (fun i (g : Lmc.Soundness.node_graph) ->
              Printf.sprintf "comp %d: %d->%d %s" i g.root g.target
                (String.concat " "
                   (List.map
                      (fun (u, e, v) -> Printf.sprintf "(%d %s %d)" u (pev e) v)
                      g.edges)))
            graphs))

type reference = Reachable | Unreachable | Unknown

(* Exhaustive breadth-first search over (positions, net counts) with an
   exact visited set: every enabled edge of every component is a move.
   The configuration space can be infinite (productive cycles), so the
   search gives up — [Unknown] — after [cap] configurations. *)
let reference_search ?(cap = 5_000) ~initial_net
    (graphs : Lmc.Soundness.node_graph array) =
  let n = Array.length graphs in
  let ids = Hashtbl.create 8 in
  let id fp =
    match Hashtbl.find_opt ids fp with
    | Some i -> i
    | None ->
        let i = Hashtbl.length ids in
        Hashtbl.add ids fp i;
        i
  in
  let edges =
    Array.map
      (fun (g : Lmc.Soundness.node_graph) ->
        List.map
          (fun (u, (e : Lmc.Soundness.event), v) ->
            (u, Option.map id e.requires, List.map id e.produces, v))
          g.edges)
      graphs
  in
  List.iter (fun fp -> ignore (id fp)) initial_net;
  (* a configuration: positions, then one count per message *)
  let start = Array.make (n + Hashtbl.length ids) 0 in
  Array.iteri (fun i (g : Lmc.Soundness.node_graph) -> start.(i) <- g.root) graphs;
  List.iter (fun fp -> start.(n + id fp) <- start.(n + id fp) + 1) initial_net;
  let goal c =
    let ok = ref true in
    Array.iteri
      (fun i (g : Lmc.Soundness.node_graph) -> if c.(i) <> g.target then ok := false)
      graphs;
    !ok
  in
  let visited = Hashtbl.create 1024 in
  let queue = Queue.create () in
  Hashtbl.replace visited start ();
  Queue.push start queue;
  let rec loop () =
    if Queue.is_empty queue then Unreachable
    else if Hashtbl.length visited > cap then Unknown
    else
      let c = Queue.pop queue in
      if goal c then Reachable
      else begin
        for i = 0 to n - 1 do
          List.iter
            (fun (u, req, prods, v) ->
              let enabled =
                u = c.(i)
                && match req with None -> true | Some r -> c.(n + r) > 0
              in
              if enabled then begin
                let c' = Array.copy c in
                Option.iter (fun r -> c'.(n + r) <- c'.(n + r) - 1) req;
                List.iter (fun p -> c'.(n + p) <- c'.(n + p) + 1) prods;
                c'.(i) <- v;
                if not (Hashtbl.mem visited c') then begin
                  Hashtbl.replace visited c' ();
                  Queue.push c' queue
                end
              end)
            edges.(i)
        done;
        loop ()
      end
  in
  loop ()

let dag_case = QCheck.make ~print:print_dag_case gen_dag_case

(* Each [check_dag] call owns its search state: the deferred
   verification pass runs calls on several domains at once.  Two
   domains deciding the same cases side by side — the random ones of
   the differential property and the longer races above — must agree
   with the sequential run: verdicts, witnesses and search steps. *)
let test_dag_concurrent_domains () =
  let cases =
    QCheck.Gen.generate ~rand:(Random.State.make [| 14 |]) ~n:400 gen_dag_case
    @ List.init 12 (fun i ->
          (race_case ~len:(4 + (i / 2)) ~copies:(1 + (i mod 2)), []))
  in
  let verdicts () =
    List.map
      (fun (graphs, initial_net) ->
        let obs = Obs.create () in
        let v =
          Lmc.Soundness.check_dag ~obs ~budget:20_000 ~initial_net graphs
        in
        let steps =
          Obs.Metrics.histogram_snapshot (Obs.histogram obs "soundness.steps")
        in
        (v, steps.Obs.Metrics.sum))
      cases
  in
  let expected = verdicts () in
  let domains = List.init 2 (fun _ -> Domain.spawn verdicts) in
  List.iteri
    (fun i d ->
      check Alcotest.bool
        (Printf.sprintf "domain %d = sequential" i)
        true
        (Domain.join d = expected))
    domains

(* A [Valid] order must replay and a reachable target must not be
   called [Invalid].  A search verdict must match the reference exactly
   whenever the reference decides; a prefilter rejection only has to
   be sound, because the prefilter also decides spaces that are
   infinite (a productive cycle away from an unreachable target). *)
let prop_dag_matches_reference =
  QCheck.Test.make ~count:500 ~name:"check_dag agrees with brute-force search"
    dag_case (fun (graphs, initial_net) ->
      let admissible =
        Lmc.Soundness.prefilter ~initial_net
          (Array.map Lmc.Soundness.summarize graphs)
      in
      match Lmc.Soundness.check_dag ~budget:20_000 ~initial_net graphs with
      | Lmc.Soundness.Valid order ->
          replays ~initial_net graphs order
          && reference_search ~initial_net graphs <> Unreachable
      | Lmc.Soundness.Invalid when not admissible ->
          reference_search ~initial_net graphs <> Reachable
      | Lmc.Soundness.Invalid -> (
          match reference_search ~initial_net graphs with
          | Unreachable -> true
          | Reachable -> false
          | Unknown -> QCheck.assume_fail ())
      | Lmc.Soundness.Budget_exhausted -> QCheck.assume_fail ())

let prop_dag_summaries_agree =
  QCheck.Test.make ~count:500
    ~name:"check_dag with precomputed summaries = without" dag_case
    (fun (graphs, initial_net) ->
      let summaries = Array.map Lmc.Soundness.summarize graphs in
      Lmc.Soundness.check_dag ~budget:20_000 ~summaries ~initial_net graphs
      = Lmc.Soundness.check_dag ~budget:20_000 ~initial_net graphs)

(* ---------- Combination ---------- *)

let test_combination_product () =
  let seen = ref [] in
  let r =
    Lmc.Combination.iter
      [| [| 1; 2 |]; [| 10 |]; [| 100; 200 |] |]
      (fun tuple ->
        seen := Array.to_list tuple :: !seen;
        `Continue)
  in
  check Alcotest.bool "completed" true (r = `Done);
  check
    Alcotest.(list (list int))
    "all tuples in order"
    [ [ 1; 10; 100 ]; [ 1; 10; 200 ]; [ 2; 10; 100 ]; [ 2; 10; 200 ] ]
    (List.rev !seen)

let test_combination_stop () =
  let count = ref 0 in
  let r =
    Lmc.Combination.iter
      [| [| 1; 2; 3 |]; [| 1; 2; 3 |] |]
      (fun _ ->
        incr count;
        if !count = 4 then `Stop else `Continue)
  in
  check Alcotest.bool "stopped" true (r = `Stopped);
  check Alcotest.int "early exit" 4 !count

let test_combination_empty () =
  let count = ref 0 in
  let r =
    Lmc.Combination.iter
      [| [| 1 |]; [||]; [| 2 |] |]
      (fun _ ->
        incr count;
        `Continue)
  in
  check Alcotest.bool "empty axis yields nothing" true (r = `Done);
  check Alcotest.int "no tuples" 0 !count;
  let r0 = Lmc.Combination.iter [||] (fun _ -> `Continue) in
  check Alcotest.bool "no axes yields nothing" true (r0 = `Done)

let test_combination_cardinal () =
  check Alcotest.int "2*1*3" 6
    (Lmc.Combination.cardinal [| [| 1; 2 |]; [| 0 |]; [| 1; 2; 3 |] |]);
  check Alcotest.int "with empty axis" 0
    (Lmc.Combination.cardinal [| [| 1; 2 |]; [||] |])

let test_combination_buffer_reuse () =
  (* the callback tuple is reused: retained copies must be explicit *)
  let first = ref None in
  ignore
    (Lmc.Combination.iter
       [| [| 1; 2 |] |]
       (fun tuple ->
         (match !first with
         | None -> first := Some tuple
         | Some t ->
             check Alcotest.bool "same buffer" true (t == tuple))
         ;
         `Continue))

let () =
  Alcotest.run "soundness"
    [
      ( "sequences",
        [
          Alcotest.test_case "empty" `Quick test_empty_sequences;
          Alcotest.test_case "local only" `Quick test_local_only;
          Alcotest.test_case "send/receive" `Quick test_simple_send_receive;
          Alcotest.test_case "missing producer" `Quick test_missing_producer;
          Alcotest.test_case "initial net" `Quick test_initial_net_supplies;
          Alcotest.test_case "multiplicity" `Quick test_multiplicity;
          Alcotest.test_case "loopback" `Quick test_loopback;
          Alcotest.test_case "ordering" `Quick test_ordering_constraint;
          Alcotest.test_case "cross dependency" `Quick test_cross_dependency;
          Alcotest.test_case "deadlock" `Quick test_deadlock_cycle;
          Alcotest.test_case "budget" `Quick test_budget;
        ] );
      ( "primer",
        [
          Alcotest.test_case "----r invalid" `Quick test_primer_invalid_state;
          Alcotest.test_case "s---r valid" `Quick test_primer_valid_state;
        ] );
      ( "dag",
        [
          Alcotest.test_case "trivial" `Quick test_dag_trivial;
          Alcotest.test_case "linear" `Quick test_dag_linear;
          Alcotest.test_case "branch selection" `Quick test_dag_branch_selection;
          Alcotest.test_case "unreachable target" `Quick
            test_dag_unreachable_target;
          Alcotest.test_case "must-consume filter" `Quick
            test_dag_must_consume_filter;
          Alcotest.test_case "optional consume" `Quick
            test_dag_optional_consume_not_filtered;
          Alcotest.test_case "cycle" `Quick test_dag_cycle_tolerated;
          Alcotest.test_case "initial net" `Quick test_dag_initial_net;
          Alcotest.test_case "memo keys are exact" `Quick test_dag_memo_exact;
          Alcotest.test_case "concurrent domains" `Quick
            test_dag_concurrent_domains;
        ] );
      ( "combination",
        [
          Alcotest.test_case "product" `Quick test_combination_product;
          Alcotest.test_case "stop" `Quick test_combination_stop;
          Alcotest.test_case "empty" `Quick test_combination_empty;
          Alcotest.test_case "cardinal" `Quick test_combination_cardinal;
          Alcotest.test_case "buffer reuse" `Quick
            test_combination_buffer_reuse;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_valid_run_projections;
            prop_valid_run_projections_dag;
            prop_ghost_requirement_invalid;
            prop_dag_matches_reference;
            prop_dag_summaries_agree;
          ] );
    ]
