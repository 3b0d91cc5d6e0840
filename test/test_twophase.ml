(* Tests for two-phase commit. *)

let check = Alcotest.check
let fail = Alcotest.fail

module TPC = Protocols.Twophase.Make (struct
  let num_nodes = 4
  let no_voters = []
  let bug = Protocols.Twophase.No_bug
end)

module TPC_no = Protocols.Twophase.Make (struct
  let num_nodes = 4
  let no_voters = [ 2 ]
  let bug = Protocols.Twophase.No_bug
end)

module TPC_bug = Protocols.Twophase.Make (struct
  let num_nodes = 4
  let no_voters = [ 2 ]
  let bug = Protocols.Twophase.Commit_on_majority
end)

let env ~src ~dst m = Dsm.Envelope.make ~src ~dst m

(* ---------- handlers ---------- *)

let test_begin () =
  let s = TPC.initial 0 in
  check Alcotest.int "begin enabled" 1
    (List.length (TPC.enabled_actions ~self:0 s));
  let s', out = TPC.handle_action ~self:0 s () in
  check Alcotest.bool "preparing" true
    (s'.Protocols.Twophase.coord = Protocols.Twophase.C_preparing);
  check Alcotest.int "prepare to each participant" 3 (List.length out);
  check Alcotest.int "no second begin" 0
    (List.length (TPC.enabled_actions ~self:0 s'));
  check Alcotest.int "participants have no actions" 0
    (List.length (TPC.enabled_actions ~self:1 (TPC.initial 1)))

let test_participant_votes () =
  let s = TPC.initial 1 in
  let s', out = TPC.handle_message ~self:1 s (env ~src:0 ~dst:1 Protocols.Twophase.Prepare) in
  check Alcotest.bool "prepared" true
    (s'.Protocols.Twophase.part = Protocols.Twophase.P_prepared);
  (match out with
  | [ e ] when e.Dsm.Envelope.payload = Protocols.Twophase.Vote true -> ()
  | _ -> fail "expected a yes vote");
  (* a no-voter aborts immediately *)
  let s2 = TPC_no.initial 2 in
  let s2', out2 =
    TPC_no.handle_message ~self:2 s2 (env ~src:0 ~dst:2 Protocols.Twophase.Prepare)
  in
  check Alcotest.bool "aborted" true
    (s2'.Protocols.Twophase.part = Protocols.Twophase.P_aborted);
  match out2 with
  | [ e ] when e.Dsm.Envelope.payload = Protocols.Twophase.Vote false -> ()
  | _ -> fail "expected a no vote"

let test_coordinator_decides () =
  let s, _ = TPC.handle_action ~self:0 (TPC.initial 0) () in
  let vote src v st =
    TPC.handle_message ~self:0 st (env ~src ~dst:0 (Protocols.Twophase.Vote v))
  in
  let s, o1 = vote 1 true s in
  check Alcotest.int "no decision yet" 0 (List.length o1);
  let s, o2 = vote 2 true s in
  check Alcotest.int "still undecided" 0 (List.length o2);
  let s, o3 = vote 3 true s in
  check Alcotest.bool "committed" true
    (s.Protocols.Twophase.coord = Protocols.Twophase.C_committed);
  check Alcotest.int "commit broadcast" 3 (List.length o3)

let test_coordinator_aborts_on_no () =
  let module P = TPC_no in
  let s, _ = P.handle_action ~self:0 (P.initial 0) () in
  let s, out =
    P.handle_message ~self:0 s (env ~src:2 ~dst:0 (Protocols.Twophase.Vote false))
  in
  check Alcotest.bool "aborted" true
    (s.Protocols.Twophase.coord = Protocols.Twophase.C_aborted);
  check Alcotest.int "abort broadcast" 3 (List.length out);
  (* later yes votes are ignored *)
  let s', out' =
    P.handle_message ~self:0 s (env ~src:1 ~dst:0 (Protocols.Twophase.Vote true))
  in
  check Alcotest.bool "decision final" true (s = s');
  check Alcotest.int "silent" 0 (List.length out')

let test_majority_bug_decides_early () =
  let module P = TPC_bug in
  let s, _ = P.handle_action ~self:0 (P.initial 0) () in
  let s, _ =
    P.handle_message ~self:0 s (env ~src:1 ~dst:0 (Protocols.Twophase.Vote true))
  in
  let s, out =
    P.handle_message ~self:0 s (env ~src:3 ~dst:0 (Protocols.Twophase.Vote true))
  in
  check Alcotest.bool "committed on majority" true
    (s.Protocols.Twophase.coord = Protocols.Twophase.C_committed);
  check Alcotest.int "commit broadcast" 3 (List.length out)

let test_participant_decision_transitions () =
  let prepared =
    fst
      (TPC.handle_message ~self:1 (TPC.initial 1)
         (env ~src:0 ~dst:1 Protocols.Twophase.Prepare))
  in
  let committed, _ =
    TPC.handle_message ~self:1 prepared (env ~src:0 ~dst:1 Protocols.Twophase.Commit)
  in
  check Alcotest.bool "committed" true
    (committed.Protocols.Twophase.part = Protocols.Twophase.P_committed);
  let aborted, _ =
    TPC.handle_message ~self:1 prepared (env ~src:0 ~dst:1 Protocols.Twophase.Abort)
  in
  check Alcotest.bool "aborted" true
    (aborted.Protocols.Twophase.part = Protocols.Twophase.P_aborted);
  (* abort after commit is impossible in any run *)
  (match
     TPC.handle_message ~self:1 committed (env ~src:0 ~dst:1 Protocols.Twophase.Abort)
   with
  | exception Dsm.Protocol.Local_assert _ -> ()
  | _ -> fail "abort after commit accepted");
  match
    TPC.handle_message ~self:1 (TPC.initial 1) (env ~src:0 ~dst:1 Protocols.Twophase.Commit)
  with
  | exception Dsm.Protocol.Local_assert _ -> ()
  | _ -> fail "commit before prepare accepted"

(* ---------- checking ---------- *)

let init (type s) (module P : Dsm.Protocol.S with type state = s) =
  Dsm.Protocol.initial_system (module P)

let test_correct_atomic_global () =
  let module G = Mc_global.Bdfs.Make (TPC) in
  let o = G.run G.default_config ~invariant:TPC.atomicity (init (module TPC)) in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "atomicity holds" true (o.violation = None);
  let module Gn = Mc_global.Bdfs.Make (TPC_no) in
  let o =
    Gn.run Gn.default_config ~invariant:TPC_no.atomicity (init (module TPC_no))
  in
  check Alcotest.bool "atomicity holds with a no-voter" true
    (o.violation = None)

let test_buggy_found_global () =
  let module G = Mc_global.Bdfs.Make (TPC_bug) in
  let o =
    G.run G.default_config ~invariant:TPC_bug.atomicity (init (module TPC_bug))
  in
  match o.violation with
  | Some v ->
      check Alcotest.bool "trace non-empty" true (v.trace <> [])
  | None -> fail "majority bug not found by B-DFS"

let test_buggy_found_lmc_opt () =
  let module L = Lmc.Checker.Make (TPC_bug) in
  let r =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:TPC_bug.atomicity (init (module TPC_bug))
  in
  match r.sound_violation with
  | Some v ->
      check Alcotest.bool "witness non-empty" true (v.schedule <> []);
      check Alcotest.bool "violating state reported" true
        (Dsm.Invariant.check TPC_bug.atomicity v.system <> None)
  | None -> fail "majority bug not confirmed by LMC-OPT"

let test_correct_quiet_lmc_opt () =
  let module L = Lmc.Checker.Make (TPC_no) in
  let r =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:TPC_no.atomicity (init (module TPC_no))
  in
  check Alcotest.bool "completed" true r.completed;
  check Alcotest.bool "no sound violation" true (r.sound_violation = None)

let prop_no_voter_sets_agree =
  (* any set of no-voters: correct 2PC stays atomic (B-DFS exhaustive) *)
  QCheck.Test.make ~count:16 ~name:"correct 2PC atomic for any no-voter set"
    QCheck.(list_of_size (Gen.int_range 0 3) (int_range 1 3))
    (fun voters ->
      let voters = List.sort_uniq compare voters in
      let module P = Protocols.Twophase.Make (struct
        let num_nodes = 4
        let no_voters = voters
        let bug = Protocols.Twophase.No_bug
      end) in
      let module G = Mc_global.Bdfs.Make (P) in
      let o =
        G.run G.default_config ~invariant:P.atomicity
          (Dsm.Protocol.initial_system (module P))
      in
      o.completed && o.violation = None)

let () =
  Alcotest.run "twophase"
    [
      ( "handlers",
        [
          Alcotest.test_case "begin" `Quick test_begin;
          Alcotest.test_case "votes" `Quick test_participant_votes;
          Alcotest.test_case "unanimous commit" `Quick test_coordinator_decides;
          Alcotest.test_case "abort on no" `Quick test_coordinator_aborts_on_no;
          Alcotest.test_case "majority bug" `Quick
            test_majority_bug_decides_early;
          Alcotest.test_case "participant transitions" `Quick
            test_participant_decision_transitions;
        ] );
      ( "checking",
        [
          Alcotest.test_case "correct atomic (global)" `Quick
            test_correct_atomic_global;
          Alcotest.test_case "bug found (global)" `Quick test_buggy_found_global;
          Alcotest.test_case "bug found (LMC-OPT)" `Quick
            test_buggy_found_lmc_opt;
          Alcotest.test_case "correct quiet (LMC-OPT)" `Quick
            test_correct_quiet_lmc_opt;
          QCheck_alcotest.to_alcotest prop_no_voter_sets_agree;
        ] );
    ]
