(* Tests for the local model checker — the paper's contribution. *)

let check = Alcotest.check
let fail = Alcotest.fail

module Tree = Protocols.Tree.Make (Protocols.Tree.Paper_config)
module L_tree = Lmc.Checker.Make (Tree)
module G_tree = Mc_global.Bdfs.Make (Tree)

module Ping2 = Protocols.Ping.Make (struct
  let num_servers = 2
end)

module L_ping = Lmc.Checker.Make (Ping2)
module G_ping = Mc_global.Bdfs.Make (Ping2)

module Chain4 = Protocols.Chain.Make (struct
  let length = 4
end)

module L_chain = Lmc.Checker.Make (Chain4)

let tree_init () = Dsm.Protocol.initial_system (module Tree)
let ping_init () = Dsm.Protocol.initial_system (module Ping2)

(* ---------- the primer (§2, Fig. 4) ---------- *)

let test_primer_numbers () =
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.bool "completed" true r.completed;
  (* Fig. 4: the four system states -----, s----, s---r and the
     invalid ----r *)
  check Alcotest.int "4 system states" 4 r.system_states_created;
  (* ----r violates received-implies-sent but is unsound *)
  check Alcotest.int "1 preliminary violation" 1 r.preliminary_violations;
  check Alcotest.int "1 rejection" 1 r.soundness_rejections;
  check Alcotest.bool "no sound violation" true (r.sound_violation = None);
  (* node stores: node 0 gains Sent, node 4 gains Received *)
  check Alcotest.(array int) "per-node states" [| 2; 1; 1; 1; 2 |]
    r.node_states;
  (* I+ holds the four tree messages and never shrinks *)
  check Alcotest.int "I+ size" 4 r.net_messages;
  check Alcotest.bool "fewer transitions than global" true
    (r.transitions < 16)

let test_primer_sound_violation_confirmed () =
  (* The reachable state s---r, flagged by a trigger invariant, must be
     confirmed by soundness verification with a replayable schedule. *)
  let trigger =
    Dsm.Invariant.make ~name:"received" (fun sys ->
        if sys.(4) = Protocols.Tree.Received && sys.(0) = Protocols.Tree.Sent
        then Some "target received"
        else None)
  in
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.General
      ~invariant:trigger (tree_init ())
  in
  match r.sound_violation with
  | None -> fail "reachable violation not confirmed"
  | Some v ->
      check Alcotest.bool "schedule non-empty" true (v.schedule <> []);
      check Alcotest.int "schedule length = depth" v.system_depth
        (List.length v.schedule);
      (* replay the schedule on the global semantics *)
      let states = tree_init () in
      let net = ref Net.Multiset.empty in
      List.iter
        (fun step ->
          match step with
          | Dsm.Trace.Execute (n, a) ->
              let s', out = Tree.handle_action ~self:n states.(n) a in
              states.(n) <- s';
              net := Net.Multiset.add_list out !net
          | Dsm.Trace.Deliver env ->
              (match Net.Multiset.remove env !net with
              | Some net' -> net := net'
              | None -> fail "schedule consumes an unsent message");
              let node = env.Dsm.Envelope.dst in
              let s', out = Tree.handle_message ~self:node states.(node) env in
              states.(node) <- s';
              net := Net.Multiset.add_list out !net
          | Dsm.Trace.Crash n ->
              states.(n) <- Tree.on_recover ~self:n states.(n))
        v.schedule;
      check Alcotest.bool "replay reaches the reported state" true
        (states.(0) = v.system.(0) && states.(4) = v.system.(4))

(* ---------- toggles ---------- *)

let test_no_system_states () =
  let cfg = { L_tree.default_config with create_system_states = false } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.int "no system states" 0 r.system_states_created;
  check Alcotest.int "no preliminary violations" 0 r.preliminary_violations;
  check Alcotest.bool "exploration unaffected" true (r.total_node_states = 7)

let test_no_soundness () =
  let cfg = { L_tree.default_config with verify_soundness = false } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.int "preliminary still counted" 1 r.preliminary_violations;
  check Alcotest.int "no soundness calls" 0 r.soundness_calls;
  check Alcotest.bool "nothing reported" true (r.sound_violation = None)

let test_sequences_mode () =
  (* the paper's explicit sequence enumeration handles the primer *)
  let cfg = { L_tree.default_config with soundness_via_sequences = true } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  check Alcotest.int "rejects ----r" 1 r.soundness_rejections;
  check Alcotest.bool "no false positive" true (r.sound_violation = None)

let test_observer_hook () =
  let seen = ref 0 in
  let cfg =
    { L_tree.default_config with
      on_new_node_state = Some (fun _ _ -> incr seen) }
  in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  (* fires once per non-root state *)
  check Alcotest.int "observer saw non-root states" (r.total_node_states - 5)
    !seen

let test_transition_budget () =
  let cfg = { L_ping.default_config with max_transitions = Some 2 } in
  let r =
    L_ping.run cfg ~strategy:L_ping.General ~invariant:Ping2.no_excess_pongs
      (ping_init ())
  in
  check Alcotest.bool "truncated" false r.completed

let test_depth_bound () =
  let cfg = { L_tree.default_config with max_depth = Some 1 } in
  let r =
    L_tree.run cfg ~strategy:L_tree.General
      ~invariant:Tree.received_implies_sent (tree_init ())
  in
  (* within one event per node: node 0 reaches Sent; node 4 reaches
     Received (the forwarded token is in I+ even though the forwarding
     nodes never changed state) *)
  check Alcotest.int "seven node states" 7 r.total_node_states;
  check Alcotest.bool "bounded depth" true (r.max_system_depth <= 1)

let test_local_action_bound () =
  let cfg = { L_ping.default_config with local_action_bound = Some 0 } in
  let r =
    L_ping.run cfg ~strategy:L_ping.General ~invariant:Ping2.no_excess_pongs
      (ping_init ())
  in
  (* no local actions allowed: nothing ever happens *)
  check Alcotest.int "only roots" 3 r.total_node_states;
  check Alcotest.int "no messages" 0 r.net_messages

let test_initial_snapshot_violation_is_sound () =
  (* A live state that already violates must be reported immediately
     with an empty schedule. *)
  let trigger =
    Dsm.Invariant.make ~name:"never" (fun _ -> Some "always fails")
  in
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.General
      ~invariant:trigger (tree_init ())
  in
  match r.sound_violation with
  | Some v ->
      check Alcotest.int "empty schedule" 0 (List.length v.schedule);
      check Alcotest.int "depth 0" 0 v.system_depth
  | None -> fail "live violation not reported"

let test_deferred_soundness () =
  (* deferral decides the same verdicts as inline checking *)
  let trigger =
    Dsm.Invariant.make ~name:"received" (fun sys ->
        if sys.(4) = Protocols.Tree.Received && sys.(0) = Protocols.Tree.Sent
        then Some "target received"
        else None)
  in
  let run cfg =
    L_tree.run cfg ~strategy:L_tree.General ~invariant:trigger (tree_init ())
  in
  let inline = run L_tree.default_config in
  let deferred = run { L_tree.default_config with defer_soundness = true } in
  check Alcotest.bool "both confirm" true
    (inline.sound_violation <> None && deferred.sound_violation <> None);
  (* and the unreachable ----r stays rejected under deferral *)
  let deferred_neg =
    L_tree.run
      { L_tree.default_config with defer_soundness = true }
      ~strategy:L_tree.General ~invariant:Tree.received_implies_sent
      (tree_init ())
  in
  check Alcotest.bool "no false positive deferred" true
    (deferred_neg.sound_violation = None);
  check Alcotest.int "rejection counted" 1 deferred_neg.soundness_rejections

let test_parallel_verification_agrees () =
  (* multi-domain deferred verification = serial verdicts *)
  let trigger =
    Dsm.Invariant.make ~name:"one-pong" (fun sys ->
        if List.length sys.(0).Protocols.Ping.pongs >= 1 then Some "hit"
        else None)
  in
  let run domains =
    L_ping.run
      {
        L_ping.default_config with
        defer_soundness = true;
        verify_domains = domains;
        stop_on_violation = false;
      }
      ~strategy:L_ping.General ~invariant:trigger (ping_init ())
  in
  let serial = run 1 and parallel = run 4 in
  check Alcotest.bool "both confirm" true
    (serial.sound_violation <> None && parallel.sound_violation <> None);
  check Alcotest.int "same rejections" serial.soundness_rejections
    parallel.soundness_rejections;
  check Alcotest.int "same prefilter rejections"
    serial.soundness_prefilter_rejections
    parallel.soundness_prefilter_rejections;
  check Alcotest.int "same calls" serial.soundness_calls
    parallel.soundness_calls

let test_deferred_cache_overflow_falls_back () =
  (* with a tiny cache, overflowing combos are verified inline, so
     nothing is lost *)
  let trigger =
    Dsm.Invariant.make ~name:"both-pongs" (fun sys ->
        if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "hit"
        else None)
  in
  let r =
    L_ping.run
      {
        L_ping.default_config with
        defer_soundness = true;
        max_rejected_cache = 1;
      }
      ~strategy:L_ping.General ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool "still confirmed" true (r.sound_violation <> None)

(* ---------- automatic pruning (the paper's future work) ---------- *)

(* The differential oracle for the creation strategy: [Automatic]
   reaches the same sound verdict as the full product ([General]) at
   every exploration width, every witness it reports replays to a
   violating system state, and it meets exactly [General]'s preliminary
   violations — run to the end (within [max_depth], for spaces that
   never end), and cut short by a transition budget, where both
   strategies must have judged the same violating combinations against
   the same predecessor DAGs. *)
let strategies_agree ?max_depth (type s m a)
    (module P : Dsm.Protocol.S
      with type state = s
       and type message = m
       and type action = a) (invariant : s Dsm.Invariant.t) =
  let module L = Lmc.Checker.Make (P) in
  let module W = Lmc.Witness.Make (P) in
  let init = Dsm.Protocol.initial_system (module P) in
  let found strategy domains =
    let r = L.run { L.default_config with domains } ~strategy ~invariant init in
    (match (strategy, r.sound_violation) with
    | L.Automatic, Some v -> (
        match W.replay ~init v.schedule with
        | Some final when Dsm.Invariant.check invariant final <> None -> ()
        | _ -> fail (P.name ^ ": automatic witness does not replay"))
    | _ -> ());
    r.sound_violation <> None
  in
  let prelims strategy =
    (L.run
       { L.default_config with stop_on_violation = false; max_depth }
       ~strategy ~invariant init)
      .preliminary_violations
  in
  let truncated strategy budget =
    let r =
      L.run
        {
          L.default_config with
          stop_on_violation = false;
          max_depth;
          max_transitions = Some budget;
        }
        ~strategy ~invariant init
    in
    (r.sound_violation <> None, r.preliminary_violations)
  in
  let expected = found L.General 1 in
  List.for_all
    (fun domains ->
      found L.General domains = expected
      && found L.Automatic domains = expected)
    [ 1; 2 ]
  && prelims L.General = prelims L.Automatic
  && List.for_all
       (fun budget -> truncated L.General budget = truncated L.Automatic budget)
       [ 5; 17; 60 ]

(* Random synthetic protocols under every invariant shape: keyed
   pairwise (node-dependent keys, an order-sensitive conflict),
   nodewise, and conjunctions of each plus a mixed (opaque) one. *)
type synth = {
  seed : int;
  nodes : int;
  max_state : int;
  kinds : int;
  shape : int;
  a : int;
  b : int;
}

let synth_gen =
  QCheck.Gen.(
    map
      (fun (seed, nodes, max_state, kinds, (shape, a, b)) ->
        { seed; nodes; max_state; kinds; shape; a; b })
      (tup5 (int_bound 10_000) (int_range 2 4) (int_range 2 4)
         (int_range 1 2)
         (triple (int_bound 4) (int_range 1 4) (int_bound 2))))

let synth_print c =
  Printf.sprintf "seed=%d nodes=%d max_state=%d kinds=%d shape=%d a=%d b=%d"
    c.seed c.nodes c.max_state c.kinds c.shape c.a c.b

let synth_agree c =
  let module P = Protocols.Synthetic.Make (struct
    let seed = c.seed
    let num_nodes = c.nodes
    let max_state = c.max_state
    let kinds = c.kinds
  end) in
  let keyed a b =
    Dsm.Invariant.for_all_pairs ~name:"keyed"
      ~key:(fun n s -> if s >= a then Some (s + n) else None)
      ~conflict:(fun x y ->
        if ((2 * x) + y) mod 3 = b then Some "conflict" else None)
  in
  let local a =
    Dsm.Invariant.for_all_nodes ~name:"local" (fun n s ->
        if s = (a + n) mod (c.max_state + 1) then Some "hit" else None)
  in
  let invariant =
    match c.shape with
    | 0 -> keyed c.a c.b
    | 1 -> local c.a
    | 2 ->
        Dsm.Invariant.conj
          [ keyed c.a c.b; keyed (c.a + 1) ((c.b + 1) mod 3) ]
    | 3 -> Dsm.Invariant.conj [ local c.a; local (c.a + 2) ]
    | _ -> Dsm.Invariant.conj [ keyed c.a c.b; local c.a ]
  in
  strategies_agree (module P) invariant

let prop_automatic_agrees_with_general =
  QCheck.Test.make ~count:60 ~name:"automatic = general on synthetic"
    (QCheck.make ~print:synth_print synth_gen)
    synth_agree

(* A reachable violation whose conflicting pair was seeded before the
   third state it needs existed: that state has no key and its messages
   only give the pair a new predecessor, so only the completion of the
   older seed, when the third state is created, builds the violating
   combination. *)
let test_late_partner_completes_seed () =
  check Alcotest.bool "automatic = general" true
    (synth_agree
       {
         seed = 9032;
         nodes = 4;
         max_state = 4;
         kinds = 1;
         shape = 2;
         a = 4;
         b = 2;
       })

(* Keys are compared as values.  Every node state here builds its key
   afresh, so equal keys are physically distinct lists; they must still
   share one interned id — each pair of distinct keys is put to
   [conflict] once per run, however many entries carry them — and the
   pruning must still meet every violating combination [General]
   meets. *)
let test_automatic_fresh_keys () =
  let module P = Protocols.Synthetic.Make (struct
    let seed = 41
    let num_nodes = 3
    let max_state = 4
    let kinds = 2
  end) in
  let module L = Lmc.Checker.Make (P) in
  let invariant =
    Dsm.Invariant.for_all_pairs ~name:"fresh-keys"
      ~key:(fun n s -> if s >= 1 then Some [ (s + n) mod 3; 7 ] else None)
      ~conflict:(fun x y ->
        if List.hd x = (List.hd y + 1) mod 3 then Some "split" else None)
  in
  check Alcotest.bool "automatic = general" true
    (strategies_agree (module P) invariant);
  let init = Dsm.Protocol.initial_system (module P) in
  let run ?(domains = 1) strategy =
    let obs = Obs.create () in
    let r =
      L.run
        { L.default_config with stop_on_violation = false; domains; obs }
        ~strategy ~invariant init
    in
    (r, Obs.Metrics.value (Obs.counter obs "lmc.conflict_evals"))
  in
  let general, _ = run L.General in
  let auto, evals = run L.Automatic in
  check Alcotest.int "conflict tests at two domains" evals
    (snd (run ~domains:2 L.Automatic));
  check Alcotest.bool "violations to meet" true
    (general.preliminary_violations > 0);
  check Alcotest.int "same preliminary violations"
    general.preliminary_violations auto.preliminary_violations;
  check Alcotest.bool "same verdict" true
    (Option.is_some general.sound_violation
    = Option.is_some auto.sound_violation);
  (* three distinct keys: at most 3 x 3 ordered pairs, where the keyed
     entries make dozens *)
  check Alcotest.bool
    (Printf.sprintf "one conflict test per pair of distinct keys (%d)" evals)
    true
    (evals > 0 && evals <= 9)

(* The same oracle on every bundled runner that completes in under a
   second. *)
let test_automatic_agrees_on_bundled () =
  let case (type s m a) name
      (module P : Dsm.Protocol.S
        with type state = s
         and type message = m
         and type action = a) invariant =
    if not (strategies_agree ~max_depth:6 (module P) invariant) then
      fail (name ^ ": automatic and general disagree")
  in
  let module Paxos_cfg (B : sig
    val bug : Protocols.Paxos_core.bug
  end) =
  struct
    include Protocols.Paxos.Bench_config

    let bug = B.bug
  end in
  let module Paxos = Protocols.Paxos.Make (Paxos_cfg (struct
    let bug = Protocols.Paxos_core.No_bug
  end)) in
  let module Paxos_bug = Protocols.Paxos.Make (Paxos_cfg (struct
    let bug = Protocols.Paxos_core.Last_response_wins
  end)) in
  let module Chain8 = Protocols.Chain.Make (struct
    let length = 8
  end) in
  let module Randtree (B : sig
    val bug : Protocols.Randtree.bug
  end) =
  Protocols.Randtree.Make (struct
    let num_nodes = 4
    let max_children = 2
    let max_attempts = 1
    let bug = B.bug
  end) in
  let module Rt = Randtree (struct
    let bug = Protocols.Randtree.No_bug
  end) in
  let module Rt_bug = Randtree (struct
    let bug = Protocols.Randtree.Double_bookkeeping
  end) in
  let module Tpc (B : sig
    val bug : Protocols.Twophase.bug
  end) =
  Protocols.Twophase.Make (struct
    let num_nodes = 4
    let no_voters = [ 2 ]
    let bug = B.bug
  end) in
  let module Tpc_ok = Tpc (struct
    let bug = Protocols.Twophase.No_bug
  end) in
  let module Tpc_bug = Tpc (struct
    let bug = Protocols.Twophase.Commit_on_majority
  end) in
  let module Ring (B : sig
    val bug : Protocols.Ring_election.bug
  end) =
  Protocols.Ring_election.Make (struct
    let num_nodes = 3
    let starters = [ 0; 1 ]
    let bug = B.bug
  end) in
  let module Ring_ok = Ring (struct
    let bug = Protocols.Ring_election.No_bug
  end) in
  let module Ring_bug = Ring (struct
    let bug = Protocols.Ring_election.Forward_smaller
  end) in
  let module Mutex (B : sig
    val bug : Protocols.Token_mutex.bug
  end) =
  Protocols.Token_mutex.Make (struct
    let num_nodes = 3
    let contenders = [ 1; 2 ]
    let max_regenerations = 1
    let bug = B.bug
  end) in
  let module Mutex_ok = Mutex (struct
    let bug = Protocols.Token_mutex.No_bug
  end) in
  let module Mutex_bug = Mutex (struct
    let bug = Protocols.Token_mutex.Regenerate_token
  end) in
  let module Abp (B : sig
    val bug : Protocols.Alternating_bit.bug
  end) =
  Protocols.Alternating_bit.Make (struct
    let data = [ 10; 20 ]
    let max_retransmits = 1
    let bug = B.bug
  end) in
  let module Abp_ok = Abp (struct
    let bug = Protocols.Alternating_bit.No_bug
  end) in
  let module Abp_bug = Abp (struct
    let bug = Protocols.Alternating_bit.Ignore_bit
  end) in
  let module Fifo_ok = Protocols.Fifo.Make (Abp_ok) in
  let module Fifo_bug = Protocols.Fifo.Make (Abp_bug) in
  let module Pb (B : sig
    val bug : Protocols.Pb_store.bug
  end) =
  Protocols.Pb_store.Make (struct
    let key = 7
    let value = 42
    let bug = B.bug
  end) in
  let module Pb_ok = Pb (struct
    let bug = Protocols.Pb_store.No_bug
  end) in
  let module Pb_bug = Pb (struct
    let bug = Protocols.Pb_store.Ack_before_replication
  end) in
  let module Pb_crash = Pb (struct
    let bug = Protocols.Pb_store.Lose_acked_writes_on_recovery
  end) in
  let module Swim_ns = Protocols.Swim.Make (struct
    let num_servers = 4
    let bug = Protocols.Swim.No_suspicion
  end) in
  let module Flood = Protocols.Lint_fixtures.Sym_flood in
  case "tree" (module Tree) Tree.received_implies_sent;
  case "chain" (module Chain8) Chain8.prefix_closed;
  case "ping" (module Ping2) Ping2.no_excess_pongs;
  case "randtree" (module Rt) Rt.disjointness;
  case "randtree-buggy" (module Rt_bug) Rt_bug.disjointness;
  case "paxos" (module Paxos) Paxos.safety;
  case "paxos-buggy" (module Paxos_bug) Paxos_bug.safety;
  case "2pc" (module Tpc_ok) Tpc_ok.atomicity;
  case "2pc-buggy" (module Tpc_bug) Tpc_bug.atomicity;
  case "ring" (module Ring_ok) Ring_ok.agreement;
  case "ring-buggy" (module Ring_bug) Ring_bug.agreement;
  case "mutex" (module Mutex_ok) Mutex_ok.mutual_exclusion;
  case "mutex-buggy" (module Mutex_bug) Mutex_bug.mutual_exclusion;
  case "abp" (module Fifo_ok) (Fifo_ok.lift_invariant Abp_ok.prefix_delivery);
  case "abp-buggy" (module Fifo_bug)
    (Fifo_bug.lift_invariant Abp_bug.prefix_delivery);
  case "pb-store" (module Pb_ok) Pb_ok.read_your_writes;
  case "pb-store-buggy" (module Pb_bug) Pb_bug.read_your_writes;
  case "pb-store-crash" (module Pb_crash) Pb_crash.read_your_writes;
  case "swim-nosuspect" (module Swim_ns) Swim_ns.membership_safety;
  case "sym-flood" (module Flood)
    (Dsm.Invariant.for_all_pairs ~name:"bounded-progress-gap"
       ~key:(fun _ s -> Some s)
       ~conflict:(fun a b ->
         if abs (a - b) > 100 then Some "progress gap" else None))

let test_automatic_prunes_nodewise () =
  let module RTB = Protocols.Randtree.Make (struct
    let num_nodes = 4
    let max_children = 2
    let max_attempts = 1
    let bug = Protocols.Randtree.Double_bookkeeping
  end) in
  let module L = Lmc.Checker.Make (RTB) in
  let init = Dsm.Protocol.initial_system (module RTB) in
  let gen =
    L.run L.default_config ~strategy:L.General ~invariant:RTB.disjointness
      init
  in
  let auto =
    L.run L.default_config ~strategy:L.Automatic ~invariant:RTB.disjointness
      init
  in
  check Alcotest.bool "both find the bug" true
    (gen.sound_violation <> None && auto.sound_violation <> None);
  check Alcotest.bool "automatic creates far fewer combinations" true
    (auto.system_states_created * 2 < gen.system_states_created);
  (* every automatic combination is a preliminary violation by
     construction *)
  check Alcotest.int "no wasted combinations" auto.system_states_created
    auto.preliminary_violations

let test_automatic_falls_back_for_opaque_invariants () =
  (* invariants built with [make] carry no shape: behave like General *)
  let trigger =
    Dsm.Invariant.make ~name:"both-pongs" (fun sys ->
        if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "hit"
        else None)
  in
  let auto =
    L_ping.run L_ping.default_config ~strategy:L_ping.Automatic
      ~invariant:trigger (ping_init ())
  in
  let gen =
    L_ping.run L_ping.default_config ~strategy:L_ping.General
      ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool "same verdict" true
    ((auto.sound_violation <> None) = (gen.sound_violation <> None));
  check Alcotest.int "same combinations" gen.system_states_created
    auto.system_states_created

let test_automatic_initial_violation () =
  (* a live snapshot that already violates a pairwise invariant must be
     reported by the Automatic strategy immediately *)
  let disagree =
    Dsm.Invariant.for_all_pairs ~name:"states-agree"
      ~key:(fun _ s -> Some s)
      ~conflict:(fun a b -> if a <> b then Some "differ" else None)
  in
  let snapshot =
    [| Protocols.Tree.Sent; Protocols.Tree.Waiting; Protocols.Tree.Waiting;
       Protocols.Tree.Waiting; Protocols.Tree.Waiting |]
  in
  let r =
    L_tree.run L_tree.default_config ~strategy:L_tree.Automatic
      ~invariant:disagree snapshot
  in
  match r.sound_violation with
  | Some v -> check Alcotest.int "depth 0" 0 v.system_depth
  | None -> fail "live pairwise violation missed"

(* ---------- monotonic network ---------- *)

let test_network_monotone () =
  (* the chain delivers 3 messages; LMC's I+ retains all of them *)
  let r =
    L_chain.run L_chain.default_config ~strategy:L_chain.General
      ~invariant:Chain4.prefix_closed
      (Dsm.Protocol.initial_system (module Chain4))
  in
  check Alcotest.int "all messages retained" 3 r.net_messages;
  check Alcotest.bool "completed" true r.completed

(* ---------- cross-checker agreement ---------- *)

(* For a list of trigger invariants over ping, B-DFS and LMC must agree
   on reachability: B-DFS finds a violating state iff LMC confirms a
   sound violation. *)
let cross_check_ping name trigger expected_reachable =
  let g =
    G_ping.run G_ping.default_config ~invariant:trigger (ping_init ())
  in
  let l =
    L_ping.run L_ping.default_config ~strategy:L_ping.General
      ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool (name ^ ": B-DFS reachability") expected_reachable
    (g.violation <> None);
  check Alcotest.bool (name ^ ": LMC agrees") expected_reachable
    (l.sound_violation <> None)

let test_cross_reachable_states () =
  cross_check_ping "one pong"
    (Dsm.Invariant.make ~name:"one-pong" (fun sys ->
         if List.length sys.(0).Protocols.Ping.pongs >= 1 then Some "hit"
         else None))
    true;
  cross_check_ping "both pongs"
    (Dsm.Invariant.make ~name:"two-pongs" (fun sys ->
         if List.length sys.(0).Protocols.Ping.pongs >= 2 then Some "hit"
         else None))
    true;
  cross_check_ping "server 1 before ping impossible"
    (Dsm.Invariant.make ~name:"served-unpinged" (fun sys ->
         if sys.(1).Protocols.Ping.served && not sys.(0).Protocols.Ping.pinged
         then Some "hit"
         else None))
    false;
  cross_check_ping "pong without serve impossible"
    (Dsm.Invariant.make ~name:"pong-unserved" (fun sys ->
         if
           List.mem 1 sys.(0).Protocols.Ping.pongs
           && not sys.(1).Protocols.Ping.served
         then Some "hit"
         else None))
    false

(* LMC also flags cross-node states that are unreachable and must
   reject all of them. *)
let test_unsound_combination_rejected () =
  (* server 2 served while server 1 unserved AND client has server 1's
     pong: the pong implies server 1 served — unreachable. *)
  let trigger =
    Dsm.Invariant.make ~name:"impossible-combo" (fun sys ->
        if
          List.mem 1 sys.(0).Protocols.Ping.pongs
          && not sys.(1).Protocols.Ping.served
        then Some "hit"
        else None)
  in
  let r =
    L_ping.run L_ping.default_config ~strategy:L_ping.General
      ~invariant:trigger (ping_init ())
  in
  check Alcotest.bool "combinations were flagged" true
    (r.preliminary_violations > 0);
  check Alcotest.int "all rejected" r.preliminary_violations
    r.soundness_rejections;
  check Alcotest.bool "none reported" true (r.sound_violation = None)

(* qcheck over tree shapes: the received-implies-sent invariant never
   produces a sound violation, on any topology. *)
let prop_tree_invariant_never_sound =
  QCheck.Test.make ~count:30 ~name:"received-implies-sent sound on all trees"
    QCheck.(pair (int_range 2 5) (int_range 0 1000))
    (fun (n, seed) ->
      (* random tree over n nodes: parent of i is a random j < i *)
      let rng = Sim.Rng.create ~seed in
      let children = Array.make n [] in
      for i = 1 to n - 1 do
        let parent = Sim.Rng.int rng i in
        children.(parent) <- children.(parent) @ [ i ]
      done;
      let module T = Protocols.Tree.Make (struct
        let children = children
        let origin = 0
        let target = n - 1
      end) in
      let module L = Lmc.Checker.Make (T) in
      let r =
        L.run L.default_config ~strategy:L.General
          ~invariant:T.received_implies_sent
          (Dsm.Protocol.initial_system (module T))
      in
      r.completed && r.sound_violation = None)

(* qcheck: B-DFS and LMC agree on chain reachability of the last hop *)
let prop_chain_agreement =
  QCheck.Test.make ~count:15 ~name:"chain: B-DFS and LMC agree on reachability"
    QCheck.(int_range 2 7)
    (fun n ->
      let module C = Protocols.Chain.Make (struct
        let length = n
      end) in
      let module G = Mc_global.Bdfs.Make (C) in
      let module L = Lmc.Checker.Make (C) in
      let trigger =
        Dsm.Invariant.make ~name:"last-received" (fun sys ->
            if sys.(n - 1).Protocols.Chain.received then Some "hit" else None)
      in
      let init () = Dsm.Protocol.initial_system (module C) in
      let g = G.run G.default_config ~invariant:trigger (init ()) in
      let l =
        L.run L.default_config ~strategy:L.General ~invariant:trigger (init ())
      in
      g.violation <> None && l.sound_violation <> None)

(* ---------- soundness summary cache ---------- *)

(* Node 0 reaches X two ways: directly (action A, sending nothing) and
   through Y (action B sends M to node 1, then action C).  Node 1
   moves T0 -> T1 on M.  The invariant flags (X, T1), which is
   reachable only via the B-C path.  LMC explores A and B in round 1,
   delivers M in round 2 — creating (X, T1) while X's only predecessor
   is A, so the prefilter rejects it — and only then finds C, which
   appends the second predecessor to the existing entry X.  The final
   reverification pass must see X's new predecessor DAG: a summary
   cached at creation time and served stale would reject again. *)
module Late_path = struct
  type state = S0 | X | Y | T0 | T1
  type message = M
  type action = A | B | C

  let name = "late-path"
  let num_nodes = 2
  let initial = function 0 -> S0 | _ -> T0

  let handle_message ~self:_ s (_ : message Dsm.Envelope.t) =
    match s with T0 -> (T1, []) | s -> (s, [])

  let enabled_actions ~self:_ = function S0 -> [ A; B ] | Y -> [ C ] | _ -> []

  let handle_action ~self s a =
    match (s, a) with
    | S0, A -> (X, [])
    | S0, B -> (Y, [ Dsm.Envelope.make ~src:self ~dst:1 M ])
    | Y, C -> (X, [])
    | s, _ -> (s, [])

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s =
    Format.pp_print_string ppf
      (match s with S0 -> "S0" | X -> "X" | Y -> "Y" | T0 -> "T0" | T1 -> "T1")

  let pp_message ppf M = Format.pp_print_string ppf "M"

  let pp_action ppf a =
    Format.pp_print_string ppf (match a with A -> "A" | B -> "B" | C -> "C")

  let x_meets_t1 =
    Dsm.Invariant.make ~name:"x-meets-t1" (fun sys ->
        if sys.(0) = X && sys.(1) = T1 then Some "X with T1" else None)
end

module L_late = Lmc.Checker.Make (Late_path)
module W_late = Lmc.Witness.Make (Late_path)

let test_summary_cache_invalidated () =
  let init = Dsm.Protocol.initial_system (module Late_path) in
  let run ?obs reverify_rejected =
    L_late.run
      {
        L_late.default_config with
        reverify_rejected;
        obs = Option.value ~default:Obs.null obs;
      }
      ~strategy:L_late.General ~invariant:Late_path.x_meets_t1 init
  in
  let without = run false in
  check Alcotest.bool "rejected at creation time" true
    (without.sound_violation = None);
  check Alcotest.int "by the prefilter" 1
    without.soundness_prefilter_rejections;
  let obs = Obs.create () in
  let r = run ~obs true in
  check Alcotest.int "one candidate" 1 r.preliminary_violations;
  check Alcotest.int "checked at creation and again at reverification" 2
    r.soundness_calls;
  (match r.sound_violation with
  | None -> fail "reverification did not confirm the late path"
  | Some v -> (
      check Alcotest.int "witness B, deliver M, C" 3 (List.length v.schedule);
      match W_late.replay ~init v.schedule with
      | None -> fail "witness does not replay"
      | Some final ->
          check Alcotest.bool "replay reaches (X, T1)" true
            (Dsm.Invariant.check Late_path.x_meets_t1 final <> None)));
  (* X and T1 summarised at creation, X again after its new
     predecessor *)
  check Alcotest.int "summary misses" 3
    (Obs.Metrics.value (Obs.counter obs "lmc.soundness_summary_misses"))

(* The §5.5 Paxos and SWIM ack-race hunts from pinned live seeds, work
   bounded (no time limit) so that every count repeats exactly.  The
   expected numbers are regression pins: how soundness verification
   caches its prefilter or keys its search must not move any of them
   — verdicts, call counts, or the witness schedule. *)
module Pinned_hunt
    (Live : Dsm.Protocol.S)
    (Check : Dsm.Protocol.S
               with type state = Live.state
                and type message = Live.message
                and type action = Live.action) =
struct
  module O = Online.Online_mc.Make (Live) (Check)
  module S = Sim.Live_sim.Make (Live)
  module W = Lmc.Witness.Make (Check)

  (* The bug run's result and its replayed witness. *)
  let report ?action_prob ~seed ~plan ~interval ~max_live ~max_depth
      ~max_transitions ~crash_budget ~invariant () =
    let faults =
      match Fault.Plan.of_string plan with
      | Ok p -> p
      | Error e -> failwith e
    in
    let config =
      {
        O.sim =
          {
            S.seed;
            link =
              Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
                ~latency_max:0.3 ();
            timer_min = 2.0;
            timer_max = 20.0;
            action_prob;
            faults;
          };
        check_interval = interval;
        max_live_time = max_live;
        checker =
          {
            O.Checker.default_config with
            max_depth;
            max_transitions;
            crash_budget;
          };
        action_bounds = [ 1; 2 ];
        steer = false;
        steer_scope = `Exact_action;
        supervisor = O.default_supervisor;
        store = None;
      }
    in
    match (O.run config ~strategy:O.Checker.Automatic ~invariant).O.report with
    | None -> fail "no bug found"
    | Some r ->
        let v = r.O.violation in
        check Alcotest.bool "witness replays" true
          (W.replay ~init:r.O.snapshot v.O.Checker.schedule <> None);
        (r.O.result, v)

  let run ~seed ~plan ~interval ~max_live ~max_depth ~max_transitions
      ~crash_budget ~invariant =
    let res, v =
      report ~seed ~plan ~interval ~max_live ~max_depth ~max_transitions
        ~crash_budget ~invariant ()
    in
    ( res.O.Checker.soundness_calls,
          res.O.Checker.soundness_rejections,
          res.O.Checker.soundness_prefilter_rejections
          + res.O.Checker.soundness_search_rejections,
          Format.asprintf "%a"
            (Dsm.Trace.pp ~pp_message:Check.pp_message
               ~pp_action:Check.pp_action)
            v.O.Checker.schedule )
end

let check_pinned name ~calls ~rejections ~schedule (c, r, split, sched) =
  check Alcotest.int (name ^ " soundness calls") calls c;
  check Alcotest.int (name ^ " soundness rejections") rejections r;
  check Alcotest.int (name ^ " rejection split adds up") r split;
  check
    Alcotest.(list string)
    (name ^ " witness schedule") schedule
    (List.map String.trim
       (String.split_on_char '\n' (String.trim sched)))

let test_pinned_paxos_hunt () =
  let module Cfg (F : sig
    val fresh : bool
  end) =
  struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 16
    let fresh_proposals = F.fresh
    let bug = Protocols.Paxos_core.Last_response_wins
  end in
  let module Live = Protocols.Paxos.Make (Cfg (struct
    let fresh = true
  end)) in
  let module Check = Protocols.Paxos.Make (Cfg (struct
    let fresh = false
  end)) in
  let module H = Pinned_hunt (Live) (Check) in
  H.run ~seed:7 ~plan:"" ~interval:30. ~max_live:90. ~max_depth:None
    ~max_transitions:(Some 100_000) ~crash_budget:0 ~invariant:Check.safety
  |> check_pinned "paxos-buggy" ~calls:43973 ~rejections:43972
       ~schedule:
         [
           "1. execute propose(i=1) at N2";
           "2. deliver N2->N0:Prepare(i=1,r=9)";
           "3. deliver N2->N1:Prepare(i=1,r=9)";
           "4. deliver N1->N2:Promise(i=1,r=9,vr=5,vv=2)";
           "5. deliver N0->N2:Promise(i=1,r=9,vr=0,vv=_)";
           "6. deliver N2->N0:Accept(i=1,r=9,v=3)";
           "7. deliver N0->N0:Learn(i=1,r=9,v=3)";
           "8. deliver N2->N1:Accept(i=1,r=9,v=3)";
           "9. deliver N1->N0:Learn(i=1,r=9,v=3)";
         ]

let test_pinned_ackrace_hunt () =
  let module P = Protocols.Swim.Make (struct
    let num_servers = 4
    let bug = Protocols.Swim.Ack_race
  end) in
  let module H = Pinned_hunt (P) (P) in
  H.run ~seed:5
    ~plan:
      "crash:node=2,at=30,recover=45;crash:node=2,at=120,recover=135;\
       crash:node=2,at=240,recover=255"
    ~interval:15. ~max_live:60. ~max_depth:(Some 6) ~max_transitions:None
    ~crash_budget:1 ~invariant:P.membership_safety
  |> check_pinned "swim-ackrace" ~calls:1385 ~rejections:1384
       ~schedule:
         [
           "1. execute probe-round at N0";
           "2. execute probe-round at N0";
           "3. crash-recover N0";
           "4. deliver N0->N1:PingReq(2,#4)";
           "5. crash-recover N1";
           "6. deliver N1->N2:RelayPing(#4)";
           "7. deliver N0->N2:Ping(#4)";
           "8. execute probe-round at N3";
           "9. deliver N3->N0:Ping(#3)";
           "10. execute probe-round at N3";
           "11. deliver N3->N1:PingReq(0,#3)";
           "12. deliver N1->N0:RelayPing(#4)";
           "13. deliver N0->N1:RelayAck(#4)";
           "14. deliver N0->N3:Ack(#3)";
           "15. deliver N1->N3:FwdAck(#4)";
         ]

(* The §5.6 1Paxos hunt: six clean restarts, then the bug in the
   seventh.  The clean restarts create no system state at all — no two
   keys conflict — so the pins are the bug run's. *)
let test_pinned_onepaxos_hunt () =
  let module P = Protocols.Onepaxos.Make (struct
    let num_nodes = 3
    let max_leader_claims = 2
    let max_attempts = 1
    let max_index = 12
    let max_util_entries = 3
    let max_util_attempts = 2
    let bug = Protocols.Onepaxos.Postfix_increment
  end) in
  let module H = Pinned_hunt (P) (P) in
  let claim_prob _ = function
    | Protocols.Onepaxos.Claim_leadership -> 0.1
    | _ -> 1.0
  in
  let res, v =
    H.report ~action_prob:claim_prob ~seed:9 ~plan:"" ~interval:10.
      ~max_live:150. ~max_depth:None ~max_transitions:(Some 4_000)
      ~crash_budget:0 ~invariant:P.safety ()
  in
  check Alcotest.int "onepaxos-pp system states" 121
    res.H.O.Checker.system_states_created;
  check Alcotest.int "onepaxos-pp soundness calls" 121
    res.H.O.Checker.soundness_calls;
  check Alcotest.int "onepaxos-pp witness length" 3
    (List.length v.H.O.Checker.schedule)

(* ---------- memory accounting ---------- *)

let test_lmc_memory_smaller_than_global () =
  (* On a space with real parallel network activity (Paxos, §5.3) LMC's
     node stores retain less than the global visited set.  On toy
     spaces constants dominate, so the comparison lives on Paxos. *)
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module G = Mc_global.Bdfs.Make (Paxos) in
  let module L = Lmc.Checker.Make (Paxos) in
  let init () = Dsm.Protocol.initial_system (module Paxos) in
  let g = G.run G.default_config ~invariant:Paxos.safety (init ()) in
  let l =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:Paxos.safety (init ())
  in
  check Alcotest.bool "LMC retains less" true
    (l.retained_bytes < g.stats.retained_bytes);
  check Alcotest.bool "LMC executes fewer transitions" true
    (l.transitions < g.stats.transitions)

(* ---------- symmetry reduction: auto vs off equivalence ----------

   The contract the CLI's --symmetry flag rides on: with an audited
   orbit group, every verdict-bearing number is bit-identical to a run
   with reduction off — exploration (node stores, I+, transitions),
   preliminary violations, and the sound violation's witness — while
   the combinations materialized drop by at least the 2x the issue
   demands.  Checked at 1 and 2 domains: orbit bookkeeping lives on
   the sequential half, so the parallel path must agree exactly. *)

module Sym_equiv (P : Dsm.Protocol.S) = struct
  module L = Lmc.Checker.Make (P)
  module Y = Lint.Symmetry.Make (P)

  (* A violation collapsed to a comparable fingerprint: invariant,
     detail, witness depth, and the schedule itself. *)
  let viol_fp = function
    | None -> "none"
    | Some (v : L.violation) ->
        Format.asprintf "%s/%s/%d/%s" v.violation.Dsm.Invariant.invariant
          v.violation.Dsm.Invariant.detail v.system_depth
          (Dsm.Fingerprint.to_hex (Dsm.Fingerprint.of_value v.schedule))

  (* [expect_cut] asserts the issue's >= 2x reduction in materialized
     combinations — meaningful only for runs that sweep the space to
     completion; a run stopping at its first sound violation may halt
     before the orbits pay off, so there we only require the reduced
     run never to do MORE work. *)
  let run ~name ~invariant ?(expect_cut = true) () =
    let y =
      Y.run ~config:{ Y.default_config with invariant = Some invariant } ()
    in
    check Alcotest.bool (name ^ ": audit licenses a non-trivial group") false
      (Dsm.Symmetry.is_trivial y.Y.verdict.Y.orbit);
    List.iter
      (fun domains ->
        let go symmetry =
          L.run
            { L.default_config with domains; symmetry }
            ~strategy:L.General ~invariant
            (Dsm.Protocol.initial_system (module P))
        in
        let off = go (Dsm.Symmetry.identity_group P.num_nodes) in
        let on = go y.Y.verdict.Y.orbit in
        let tag s = Printf.sprintf "%s/d%d: %s" name domains s in
        check Alcotest.bool (tag "completed") off.L.completed on.L.completed;
        check
          Alcotest.(array int)
          (tag "node stores") off.L.node_states on.L.node_states;
        check Alcotest.int (tag "I+") off.L.net_messages on.L.net_messages;
        check Alcotest.int (tag "transitions") off.L.transitions
          on.L.transitions;
        check Alcotest.int (tag "preliminary violations")
          off.L.preliminary_violations on.L.preliminary_violations;
        check Alcotest.string (tag "sound violation")
          (viol_fp off.L.sound_violation)
          (viol_fp on.L.sound_violation);
        (if expect_cut then
           check Alcotest.bool (tag "combinations cut >= 2x") true
             (off.L.system_states_created >= 2 * on.L.system_states_created)
         else
           check Alcotest.bool (tag "reduction never adds work") true
             (off.L.system_states_created >= on.L.system_states_created));
        check Alcotest.int (tag "orbit hits stay 0 when off") 0
          off.L.orbit_hits;
        if expect_cut then
          check Alcotest.bool (tag "orbit hits counted") true
            (on.L.orbit_hits > 0))
      [ 1; 2 ]
end

let test_sym_equiv_ring () =
  let module R = Protocols.Ring_election.Make (struct
    let num_nodes = 3
    let starters = [ 0; 1 ]
    let bug = Protocols.Ring_election.No_bug
  end) in
  let module E = Sym_equiv (R) in
  E.run ~name:"ring" ~invariant:R.agreement ()

let test_sym_equiv_ring_buggy () =
  let module R = Protocols.Ring_election.Make (struct
    let num_nodes = 3
    let starters = [ 0; 1 ]
    let bug = Protocols.Ring_election.Forward_smaller
  end) in
  let module E = Sym_equiv (R) in
  E.run ~name:"ring-buggy" ~invariant:R.agreement ~expect_cut:false ()

let test_sym_equiv_mutex () =
  let module M = Protocols.Token_mutex.Make (struct
    let num_nodes = 3
    let contenders = [ 1; 2 ]
    let max_regenerations = 1
    let bug = Protocols.Token_mutex.No_bug
  end) in
  let module E = Sym_equiv (M) in
  E.run ~name:"mutex" ~invariant:M.mutual_exclusion ()

let test_sym_equiv_paxos () =
  let module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config) in
  let module E = Sym_equiv (Paxos) in
  E.run ~name:"paxos" ~invariant:Paxos.safety ()

let () =
  Alcotest.run "lmc"
    [
      ( "summary cache",
        [
          Alcotest.test_case "stale summaries never served" `Quick
            test_summary_cache_invalidated;
          Alcotest.test_case "paxos-buggy hunt pinned" `Quick
            test_pinned_paxos_hunt;
          Alcotest.test_case "swim ack-race hunt pinned" `Quick
            test_pinned_ackrace_hunt;
          Alcotest.test_case "1paxos hunt pinned" `Quick
            test_pinned_onepaxos_hunt;
        ] );
      ( "primer",
        [
          Alcotest.test_case "Fig. 4 numbers" `Quick test_primer_numbers;
          Alcotest.test_case "sound confirmation" `Quick
            test_primer_sound_violation_confirmed;
        ] );
      ( "toggles",
        [
          Alcotest.test_case "no system states" `Quick test_no_system_states;
          Alcotest.test_case "no soundness" `Quick test_no_soundness;
          Alcotest.test_case "sequence mode" `Quick test_sequences_mode;
          Alcotest.test_case "observer" `Quick test_observer_hook;
          Alcotest.test_case "transition budget" `Quick test_transition_budget;
          Alcotest.test_case "depth bound" `Quick test_depth_bound;
          Alcotest.test_case "local action bound" `Quick
            test_local_action_bound;
          Alcotest.test_case "live violation" `Quick
            test_initial_snapshot_violation_is_sound;
          Alcotest.test_case "deferred soundness" `Quick
            test_deferred_soundness;
          Alcotest.test_case "parallel verification" `Quick
            test_parallel_verification_agrees;
          Alcotest.test_case "deferred overflow" `Quick
            test_deferred_cache_overflow_falls_back;
        ] );
      ( "automatic",
        [
          QCheck_alcotest.to_alcotest prop_automatic_agrees_with_general;
          Alcotest.test_case "agrees on bundled runners" `Quick
            test_automatic_agrees_on_bundled;
          Alcotest.test_case "fresh equal keys share an id" `Quick
            test_automatic_fresh_keys;
          Alcotest.test_case "late partner completes a seed" `Quick
            test_late_partner_completes_seed;
          Alcotest.test_case "prunes nodewise" `Quick
            test_automatic_prunes_nodewise;
          Alcotest.test_case "opaque fallback" `Quick
            test_automatic_falls_back_for_opaque_invariants;
          Alcotest.test_case "initial violation" `Quick
            test_automatic_initial_violation;
        ] );
      ( "network",
        [ Alcotest.test_case "monotone I+" `Quick test_network_monotone ] );
      ( "cross-checker",
        [
          Alcotest.test_case "reachability agreement" `Quick
            test_cross_reachable_states;
          Alcotest.test_case "unsound combos rejected" `Quick
            test_unsound_combination_rejected;
          QCheck_alcotest.to_alcotest prop_tree_invariant_never_sound;
          QCheck_alcotest.to_alcotest prop_chain_agreement;
        ] );
      ( "memory",
        [
          Alcotest.test_case "smaller than global" `Quick
            test_lmc_memory_smaller_than_global;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "ring auto = off" `Quick test_sym_equiv_ring;
          Alcotest.test_case "ring-buggy auto = off" `Quick
            test_sym_equiv_ring_buggy;
          Alcotest.test_case "mutex auto = off" `Quick test_sym_equiv_mutex;
          Alcotest.test_case "paxos auto = off" `Quick test_sym_equiv_paxos;
        ] );
    ]
