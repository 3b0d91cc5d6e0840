(* Tests for the Paxos engine and its checkable wrapper (§5). *)

let check = Alcotest.check
let fail = Alcotest.fail

module Core = Protocols.Paxos_core

let n3 = 3

let env ~src ~dst m = Dsm.Envelope.make ~src ~dst m

(* drive a core state through a message, ignoring outputs *)
let feed ?(bug = Core.No_bug) ~self state ~src msg =
  fst (Core.handle ~n:n3 ~self ~bug state ~src msg)

(* ---------- Paxos_core units ---------- *)

let test_empty_state () =
  check Alcotest.int "no attempts" 0 (Core.attempts Core.empty 0);
  check Alcotest.(option int) "nothing chosen" None (Core.chosen Core.empty 0);
  check Alcotest.bool "untouched" true (Core.is_untouched Core.empty 0);
  check Alcotest.int "nothing promised" 0 (Core.promised Core.empty 0)

let test_propose_broadcasts_prepare () =
  let state, out = Core.propose ~n:n3 ~self:0 Core.empty ~idx:0 ~v:1 in
  check Alcotest.int "three prepares" 3 (List.length out);
  check Alcotest.int "attempt recorded" 1 (Core.attempts state 0);
  check Alcotest.bool "touched now" false (Core.is_untouched state 0);
  List.iter
    (fun (_, msg) ->
      match msg with
      | Core.Prepare { idx = 0; rnd } ->
          (* k=1, n=3, self=0: rnd = 1*3+0+1 = 4 *)
          check Alcotest.int "round" 4 rnd
      | _ -> fail "expected Prepare")
    out

let test_round_uniqueness () =
  let rnd_of self =
    let _, out = Core.propose ~n:n3 ~self Core.empty ~idx:0 ~v:1 in
    match out with
    | (_, Core.Prepare { rnd; _ }) :: _ -> rnd
    | _ -> fail "no prepare"
  in
  let rounds = List.map rnd_of [ 0; 1; 2 ] in
  check Alcotest.int "distinct rounds" 3
    (List.length (List.sort_uniq compare rounds))

let test_next_attempt_escalates_over_promised () =
  (* an acceptor that promised round 7 must re-propose above it *)
  let state = feed ~self:0 Core.empty ~src:2 (Core.Prepare { idx = 0; rnd = 7 }) in
  check Alcotest.int "promised" 7 (Core.promised state 0);
  let k = Core.next_attempt ~n:n3 state ~idx:0 in
  check Alcotest.bool "round above promise" true ((k * n3) + 1 > 7)

let test_prepare_promise () =
  let state, out =
    Core.handle ~n:n3 ~self:1 ~bug:Core.No_bug Core.empty ~src:0
      (Core.Prepare { idx = 0; rnd = 4 })
  in
  check Alcotest.int "promised" 4 (Core.promised state 0);
  (match out with
  | [ (0, Core.Promise { idx = 0; rnd = 4; vrnd = 0; vval = None }) ] -> ()
  | _ -> fail "expected a fresh Promise to the proposer");
  (* a stale Prepare is ignored *)
  let state', out' =
    Core.handle ~n:n3 ~self:1 ~bug:Core.No_bug state ~src:2
      (Core.Prepare { idx = 0; rnd = 3 })
  in
  check Alcotest.bool "state unchanged" true (state = state');
  check Alcotest.int "no reply" 0 (List.length out')

let test_promise_majority_triggers_accept () =
  let state, _ = Core.propose ~n:n3 ~self:0 Core.empty ~idx:0 ~v:1 in
  let state, out1 =
    Core.handle ~n:n3 ~self:0 ~bug:Core.No_bug state ~src:0
      (Core.Promise { idx = 0; rnd = 4; vrnd = 0; vval = None })
  in
  check Alcotest.int "one promise: no accept yet" 0 (List.length out1);
  let _, out2 =
    Core.handle ~n:n3 ~self:0 ~bug:Core.No_bug state ~src:1
      (Core.Promise { idx = 0; rnd = 4; vrnd = 0; vval = None })
  in
  check Alcotest.int "majority: accepts broadcast" 3 (List.length out2);
  match out2 with
  | (_, Core.Accept { v; rnd = 4; idx = 0 }) :: _ ->
      check Alcotest.int "own value chosen" 1 v
  | _ -> fail "expected Accept"

let test_pick_value_highest_round_wins () =
  (* correct rule: the accepted value with the highest vrnd is adopted *)
  let state, _ = Core.propose ~n:n3 ~self:0 Core.empty ~idx:0 ~v:1 in
  let state =
    feed ~self:0 state ~src:1
      (Core.Promise { idx = 0; rnd = 4; vrnd = 2; vval = Some 9 })
  in
  let _, out =
    Core.handle ~n:n3 ~self:0 ~bug:Core.No_bug state ~src:2
      (Core.Promise { idx = 0; rnd = 4; vrnd = 0; vval = None })
  in
  match out with
  | (_, Core.Accept { v; _ }) :: _ ->
      check Alcotest.int "previously accepted value adopted" 9 v
  | _ -> fail "expected Accept"

let test_pick_value_bug_last_response () =
  (* the §5.5 bug: the LAST response wins, here carrying no value, so
     the proposer pushes its own value and overrides value 9 *)
  let state, _ = Core.propose ~n:n3 ~self:0 Core.empty ~idx:0 ~v:1 in
  let state =
    feed ~bug:Core.Last_response_wins ~self:0 state ~src:1
      (Core.Promise { idx = 0; rnd = 4; vrnd = 2; vval = Some 9 })
  in
  let _, out =
    Core.handle ~n:n3 ~self:0 ~bug:Core.Last_response_wins state ~src:2
      (Core.Promise { idx = 0; rnd = 4; vrnd = 0; vval = None })
  in
  match out with
  | (_, Core.Accept { v; _ }) :: _ ->
      check Alcotest.int "own value wrongly used" 1 v
  | _ -> fail "expected Accept"

let test_bug_order_dependence () =
  (* same promises, other order: last response carries 9, bug is benign *)
  let state, _ = Core.propose ~n:n3 ~self:0 Core.empty ~idx:0 ~v:1 in
  let state =
    feed ~bug:Core.Last_response_wins ~self:0 state ~src:2
      (Core.Promise { idx = 0; rnd = 4; vrnd = 0; vval = None })
  in
  let _, out =
    Core.handle ~n:n3 ~self:0 ~bug:Core.Last_response_wins state ~src:1
      (Core.Promise { idx = 0; rnd = 4; vrnd = 2; vval = Some 9 })
  in
  match out with
  | (_, Core.Accept { v; _ }) :: _ ->
      check Alcotest.int "benign order" 9 v
  | _ -> fail "expected Accept"

let test_accept_learn_chosen () =
  let state = feed ~self:1 Core.empty ~src:0 (Core.Accept { idx = 0; rnd = 4; v = 7 }) in
  (match Core.has_accepted state 0 with
  | Some (4, 7) -> ()
  | _ -> fail "acceptor did not record");
  let state = feed ~self:1 state ~src:0 (Core.Learn { idx = 0; rnd = 4; v = 7 }) in
  check Alcotest.(option int) "one learn: not chosen" None (Core.chosen state 0);
  let state = feed ~self:1 state ~src:2 (Core.Learn { idx = 0; rnd = 4; v = 7 }) in
  check Alcotest.(option int) "majority learns: chosen" (Some 7)
    (Core.chosen state 0);
  check
    Alcotest.(list (pair int int))
    "chosen_all" [ (0, 7) ] (Core.chosen_all state)

let test_duplicate_learn_not_double_counted () =
  let state = feed ~self:1 Core.empty ~src:0 (Core.Learn { idx = 0; rnd = 4; v = 7 }) in
  let state = feed ~self:1 state ~src:0 (Core.Learn { idx = 0; rnd = 4; v = 7 }) in
  check Alcotest.(option int) "same acceptor twice is one vote" None
    (Core.chosen state 0)

let test_stale_accept_ignored () =
  let state = feed ~self:1 Core.empty ~src:0 (Core.Prepare { idx = 0; rnd = 9 }) in
  let state', out =
    Core.handle ~n:n3 ~self:1 ~bug:Core.No_bug state ~src:0
      (Core.Accept { idx = 0; rnd = 4; v = 7 })
  in
  check Alcotest.bool "stale accept dropped" true (state = state');
  check Alcotest.int "no learns" 0 (List.length out)

let test_local_assert_conflicting_learn () =
  let state = feed ~self:1 Core.empty ~src:0 (Core.Learn { idx = 0; rnd = 4; v = 7 }) in
  match feed ~self:1 state ~src:2 (Core.Learn { idx = 0; rnd = 4; v = 8 }) with
  | exception Dsm.Protocol.Local_assert _ -> ()
  | _ -> fail "conflicting learn accepted"

let test_local_assert_conflicting_accept () =
  let state = feed ~self:1 Core.empty ~src:0 (Core.Accept { idx = 0; rnd = 4; v = 7 }) in
  match feed ~self:1 state ~src:0 (Core.Accept { idx = 0; rnd = 4; v = 8 }) with
  | exception Dsm.Protocol.Local_assert _ -> ()
  | _ -> fail "conflicting accept accepted"

let test_disagreement () =
  let a = feed ~self:0 Core.empty ~src:1 (Core.Learn { idx = 0; rnd = 4; v = 1 }) in
  let a = feed ~self:0 a ~src:2 (Core.Learn { idx = 0; rnd = 4; v = 1 }) in
  let b = feed ~self:1 Core.empty ~src:1 (Core.Learn { idx = 0; rnd = 7; v = 2 }) in
  let b = feed ~self:1 b ~src:2 (Core.Learn { idx = 0; rnd = 7; v = 2 }) in
  let disagree x y = Core.disagreement (Core.chosen_all x) (Core.chosen_all y) in
  check Alcotest.bool "disagree" true (disagree a b <> None);
  check Alcotest.bool "self-agreement" true (disagree a a = None);
  check Alcotest.bool "empty agrees" true (disagree Core.empty a = None)

let test_multi_index_independence () =
  let state, _ = Core.propose ~n:n3 ~self:0 Core.empty ~idx:5 ~v:1 in
  check Alcotest.int "idx 5 attempted" 1 (Core.attempts state 5);
  check Alcotest.int "idx 0 untouched" 0 (Core.attempts state 0);
  check Alcotest.bool "idx 0 still untouched" true (Core.is_untouched state 0)

(* ---------- the checkable protocol ---------- *)

module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config)
module G_paxos = Mc_global.Bdfs.Make (Paxos)
module L_paxos = Lmc.Checker.Make (Paxos)

let paxos_init () = Dsm.Protocol.initial_system (module Paxos)

let test_bench_space_depth_22 () =
  let o = G_paxos.run G_paxos.default_config ~invariant:Paxos.safety (paxos_init ()) in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "safety holds" true (o.violation = None);
  (* 3 inits + 1 propose + 3 prepares + 3 promises + 3 accepts + 9
     learns = 22 events (§5.1) *)
  check Alcotest.int "depth 22" 22 o.stats.max_depth_reached

let test_lmc_gen_explores_bench_space () =
  let r =
    L_paxos.run L_paxos.default_config ~strategy:L_paxos.General
      ~invariant:Paxos.safety (paxos_init ())
  in
  check Alcotest.bool "completed" true r.completed;
  check Alcotest.int "no preliminary violations" 0 r.preliminary_violations;
  check Alcotest.bool "no bug" true (r.sound_violation = None);
  check Alcotest.bool "creates system states" true (r.system_states_created > 0)

let test_lmc_opt_zero_system_states () =
  (* Fig. 11: "The number of system states explored by LMC-OPT is zero" *)
  let r =
    L_paxos.run L_paxos.default_config ~strategy:L_paxos.Automatic
      ~invariant:Paxos.safety (paxos_init ())
  in
  check Alcotest.bool "completed" true r.completed;
  check Alcotest.int "zero system states" 0 r.system_states_created;
  check Alcotest.bool "no bug" true (r.sound_violation = None)

let test_lmc_vs_global_transition_reduction () =
  let g = G_paxos.run G_paxos.default_config ~invariant:Paxos.safety (paxos_init ()) in
  let r =
    L_paxos.run L_paxos.default_config ~strategy:L_paxos.Automatic
      ~invariant:Paxos.safety (paxos_init ())
  in
  (* §5.1 reports ~132x; our leaner substrate gives tens of x *)
  check Alcotest.bool "at least 10x fewer transitions" true
    (g.stats.transitions > 10 * r.transitions)

let test_driver_proposes_once () =
  let s = Paxos.initial 0 in
  check Alcotest.(list (of_pp Paxos.pp_action)) "init first"
    [ Protocols.Paxos.Init ]
    (Paxos.enabled_actions ~self:0 s);
  let s, _ = Paxos.handle_action ~self:0 s Protocols.Paxos.Init in
  (match Paxos.enabled_actions ~self:0 s with
  | [ Protocols.Paxos.Propose { idx = 0 } ] -> ()
  | _ -> fail "proposer should propose idx 0");
  let s, _ =
    Paxos.handle_action ~self:0 s (Protocols.Paxos.Propose { idx = 0 })
  in
  check Alcotest.int "no second proposal" 0
    (List.length (Paxos.enabled_actions ~self:0 s));
  (* non-proposers never propose *)
  let s1 = Paxos.initial 1 in
  let s1, _ = Paxos.handle_action ~self:1 s1 Protocols.Paxos.Init in
  check Alcotest.int "non-proposer idle" 0
    (List.length (Paxos.enabled_actions ~self:1 s1))

let test_message_before_boot_asserts () =
  let s = Paxos.initial 1 in
  match
    Paxos.handle_message ~self:1 s
      (env ~src:0 ~dst:1 (Core.Prepare { idx = 0; rnd = 4 }))
  with
  | exception Dsm.Protocol.Local_assert _ -> ()
  | _ -> fail "unbooted node accepted a message"

(* ---------- the §5.5 bug, offline from a crafted snapshot ---------- *)

module Buggy = Protocols.Paxos.Make (struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 4
  let fresh_proposals = false
  let bug = Core.Last_response_wins
end)

module L_buggy = Lmc.Checker.Make (Buggy)

(* Build the paper's snapshot: N1 proposed and chose v2 for index 0;
   N2 accepted it but never learned; N0 saw nothing. *)
let crafted_snapshot () =
  let states = Array.init 3 (fun n -> Buggy.initial n) in
  let pool = ref [] in
  let act n a =
    let s', out = Buggy.handle_action ~self:n states.(n) a in
    states.(n) <- s';
    pool := !pool @ out
  in
  let deliver ~src ~dst =
    match
      List.partition
        (fun (e : _ Dsm.Envelope.t) -> e.src = src && e.dst = dst)
        !pool
    with
    | e :: more, rest ->
        let s', out = Buggy.handle_message ~self:dst states.(dst) e in
        states.(dst) <- s';
        pool := more @ rest @ out
    | [], _ -> fail "scenario delivery missing"
  in
  act 0 Protocols.Paxos.Init;
  act 1 Protocols.Paxos.Init;
  act 2 Protocols.Paxos.Init;
  act 1 (Protocols.Paxos.Propose { idx = 0 });
  deliver ~src:1 ~dst:1;
  deliver ~src:1 ~dst:2;
  deliver ~src:1 ~dst:1;
  deliver ~src:2 ~dst:1;
  deliver ~src:1 ~dst:1;
  deliver ~src:1 ~dst:2;
  deliver ~src:1 ~dst:1;
  deliver ~src:2 ~dst:1;
  states

let test_bug_found_from_snapshot () =
  let snapshot = crafted_snapshot () in
  check Alcotest.(option int) "N1 chose v2" (Some 2)
    (Core.chosen snapshot.(1).Protocols.Paxos.core 0);
  check Alcotest.(option int) "N2 not chosen" None
    (Core.chosen snapshot.(2).Protocols.Paxos.core 0);
  let cfg =
    { L_buggy.default_config with
      time_limit = Some 60.0;
      local_action_bound = Some 1 }
  in
  let r =
    L_buggy.run cfg
      ~strategy:L_buggy.Automatic
      ~invariant:Buggy.safety snapshot
  in
  match r.sound_violation with
  | None -> fail "§5.5 bug not found"
  | Some v ->
      check Alcotest.bool "witness non-empty" true (v.schedule <> []);
      check Alcotest.bool "many unsound combos were filtered" true
        (r.soundness_rejections > 0)

let test_correct_paxos_from_snapshot_safe () =
  (* same scenario without the bug: re-proposal must adopt v2 *)
  let module Fixed = Protocols.Paxos.Make (struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 4
    let fresh_proposals = false
    let bug = Core.No_bug
  end) in
  let module L = Lmc.Checker.Make (Fixed) in
  (* Buggy.state and Fixed.state are both [Protocols.Paxos.paxos_state] *)
  let snapshot : Fixed.state array = crafted_snapshot () in
  let cfg =
    { L.default_config with time_limit = Some 60.0; local_action_bound = Some 1 }
  in
  let r =
    L.run cfg
      ~strategy:L.Automatic
      ~invariant:Fixed.safety snapshot
  in
  check Alcotest.bool "completed" true r.completed;
  check Alcotest.bool "no sound violation in fixed Paxos" true
    (r.sound_violation = None)

(* The global checker agrees with LMC when started from the same
   snapshot (the two-proposal space from the initial state takes B-DFS
   minutes — the §5.2 scalability point, measured in the bench). *)
let test_global_finds_bug_from_snapshot () =
  let module G = Mc_global.Bdfs.Make (Buggy) in
  let cfg = { G.default_config with time_limit = Some 60.0 } in
  let o = G.run cfg ~invariant:Buggy.safety (crafted_snapshot ()) in
  check Alcotest.bool "B-DFS finds the bug" true (o.violation <> None)

let () =
  Alcotest.run "paxos"
    [
      ( "core",
        [
          Alcotest.test_case "empty" `Quick test_empty_state;
          Alcotest.test_case "propose" `Quick test_propose_broadcasts_prepare;
          Alcotest.test_case "round uniqueness" `Quick test_round_uniqueness;
          Alcotest.test_case "round escalation" `Quick
            test_next_attempt_escalates_over_promised;
          Alcotest.test_case "prepare/promise" `Quick test_prepare_promise;
          Alcotest.test_case "majority accept" `Quick
            test_promise_majority_triggers_accept;
          Alcotest.test_case "pick highest vrnd" `Quick
            test_pick_value_highest_round_wins;
          Alcotest.test_case "bug: last response" `Quick
            test_pick_value_bug_last_response;
          Alcotest.test_case "bug order dependence" `Quick
            test_bug_order_dependence;
          Alcotest.test_case "accept/learn/chosen" `Quick
            test_accept_learn_chosen;
          Alcotest.test_case "duplicate learns" `Quick
            test_duplicate_learn_not_double_counted;
          Alcotest.test_case "stale accept" `Quick test_stale_accept_ignored;
          Alcotest.test_case "assert: learn conflict" `Quick
            test_local_assert_conflicting_learn;
          Alcotest.test_case "assert: accept conflict" `Quick
            test_local_assert_conflicting_accept;
          Alcotest.test_case "disagreement" `Quick test_disagreement;
          Alcotest.test_case "multi-index" `Quick test_multi_index_independence;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "depth-22 space" `Quick test_bench_space_depth_22;
          Alcotest.test_case "LMC-GEN" `Quick test_lmc_gen_explores_bench_space;
          Alcotest.test_case "LMC-OPT zero system states" `Quick
            test_lmc_opt_zero_system_states;
          Alcotest.test_case "transition reduction" `Quick
            test_lmc_vs_global_transition_reduction;
          Alcotest.test_case "driver" `Quick test_driver_proposes_once;
          Alcotest.test_case "boot assert" `Quick
            test_message_before_boot_asserts;
        ] );
      ( "bug-5.5",
        [
          Alcotest.test_case "found from snapshot" `Slow
            test_bug_found_from_snapshot;
          Alcotest.test_case "fixed Paxos safe" `Slow
            test_correct_paxos_from_snapshot_safe;
          Alcotest.test_case "global from snapshot" `Slow
            test_global_finds_bug_from_snapshot;
        ] );
    ]
