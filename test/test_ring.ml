(* Tests for Chang-Roberts ring election. *)

let check = Alcotest.check
let fail = Alcotest.fail

module Ring = Protocols.Ring_election.Make (struct
  let num_nodes = 3
  let starters = [ 0; 1 ]
  let bug = Protocols.Ring_election.No_bug
end)

module Ring_bug = Protocols.Ring_election.Make (struct
  let num_nodes = 3
  let starters = [ 0; 1 ]
  let bug = Protocols.Ring_election.Forward_smaller
end)

let env ~src ~dst m = Dsm.Envelope.make ~src ~dst m

(* ---------- handlers ---------- *)

let test_wake () =
  let s = Ring.initial 0 in
  check Alcotest.int "starter can wake" 1
    (List.length (Ring.enabled_actions ~self:0 s));
  check Alcotest.int "non-starter cannot" 0
    (List.length (Ring.enabled_actions ~self:2 (Ring.initial 2)));
  let s', out = Ring.handle_action ~self:0 s () in
  check Alcotest.bool "participating" true s'.Protocols.Ring_election.participating;
  (match out with
  | [ e ] ->
      check Alcotest.int "token to successor" 1 e.Dsm.Envelope.dst;
      check Alcotest.bool "own token" true
        (e.Dsm.Envelope.payload = Protocols.Ring_election.Token 0)
  | _ -> fail "expected one token");
  check Alcotest.int "wake once" 0 (List.length (Ring.enabled_actions ~self:0 s'))

let test_forward_bigger () =
  let s = { (Ring.initial 1) with Protocols.Ring_election.participating = true } in
  let _, out =
    Ring.handle_message ~self:1 s (env ~src:0 ~dst:1 (Protocols.Ring_election.Token 2))
  in
  match out with
  | [ e ] when e.Dsm.Envelope.payload = Protocols.Ring_election.Token 2 ->
      check Alcotest.int "to successor" 2 e.Dsm.Envelope.dst
  | _ -> fail "bigger token must be forwarded"

let test_join_with_own () =
  let s = Ring.initial 2 in
  let s', out =
    Ring.handle_message ~self:2 s (env ~src:1 ~dst:2 (Protocols.Ring_election.Token 0))
  in
  check Alcotest.bool "joined" true s'.Protocols.Ring_election.participating;
  match out with
  | [ e ] when e.Dsm.Envelope.payload = Protocols.Ring_election.Token 2 -> ()
  | _ -> fail "non-participant must substitute its own token"

let test_swallow_vs_bug () =
  let s = { (Ring.initial 2) with Protocols.Ring_election.participating = true } in
  let _, out =
    Ring.handle_message ~self:2 s (env ~src:1 ~dst:2 (Protocols.Ring_election.Token 0))
  in
  check Alcotest.int "correct build swallows" 0 (List.length out);
  let sb =
    { (Ring_bug.initial 2) with Protocols.Ring_election.participating = true }
  in
  let _, out =
    Ring_bug.handle_message ~self:2 sb
      (env ~src:1 ~dst:2 (Protocols.Ring_election.Token 0))
  in
  check Alcotest.int "buggy build forwards" 1 (List.length out)

let test_win_and_announce () =
  let s = { (Ring.initial 1) with Protocols.Ring_election.participating = true } in
  let s', out =
    Ring.handle_message ~self:1 s (env ~src:0 ~dst:1 (Protocols.Ring_election.Token 1))
  in
  check Alcotest.(option int) "leader set" (Some 1)
    s'.Protocols.Ring_election.leader;
  (match out with
  | [ e ] when e.Dsm.Envelope.payload = Protocols.Ring_election.Elected 1 -> ()
  | _ -> fail "winner must announce");
  (* announcement circulates and stops at the winner *)
  let s2, out2 =
    Ring.handle_message ~self:2 (Ring.initial 2)
      (env ~src:1 ~dst:2 (Protocols.Ring_election.Elected 1))
  in
  check Alcotest.(option int) "follower set" (Some 1)
    s2.Protocols.Ring_election.leader;
  check Alcotest.int "forwarded" 1 (List.length out2);
  let _, out3 =
    Ring.handle_message ~self:1 s' (env ~src:0 ~dst:1 (Protocols.Ring_election.Elected 1))
  in
  check Alcotest.int "stops at winner" 0 (List.length out3)

(* ---------- checking ---------- *)

let init (type s) (module P : Dsm.Protocol.S with type state = s) =
  Dsm.Protocol.initial_system (module P)

let test_correct_agreement_global () =
  let module G = Mc_global.Bdfs.Make (Ring) in
  let o = G.run G.default_config ~invariant:Ring.agreement (init (module Ring)) in
  check Alcotest.bool "completed" true o.completed;
  check Alcotest.bool "agreement holds" true (o.violation = None)

let test_buggy_found_global () =
  let module G = Mc_global.Bdfs.Make (Ring_bug) in
  let o =
    G.run G.default_config ~invariant:Ring_bug.agreement (init (module Ring_bug))
  in
  match o.violation with
  | Some _ -> ()
  | None -> fail "forward-smaller bug not found by B-DFS"

let test_buggy_found_lmc () =
  let module L = Lmc.Checker.Make (Ring_bug) in
  let r =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:Ring_bug.agreement (init (module Ring_bug))
  in
  match r.sound_violation with
  | Some v ->
      check Alcotest.bool "two leaders in the witness state" true
        (Dsm.Invariant.check Ring_bug.agreement v.system <> None)
  | None -> fail "forward-smaller bug not confirmed by LMC"

let test_correct_quiet_lmc () =
  let module L = Lmc.Checker.Make (Ring) in
  let r =
    L.run L.default_config
      ~strategy:L.Automatic
      ~invariant:Ring.agreement (init (module Ring))
  in
  check Alcotest.bool "completed" true r.completed;
  check Alcotest.bool "no sound violation" true (r.sound_violation = None)

let prop_correct_rings_agree =
  (* any ring size / starter set: the correct protocol keeps agreement
     (global exhaustive check) *)
  QCheck.Test.make ~count:12 ~name:"correct election agrees on any ring"
    QCheck.(pair (int_range 2 4) (list_of_size (Gen.int_range 1 2) (int_range 0 3)))
    (fun (n, starters) ->
      let starters =
        List.sort_uniq compare (List.filter (fun s -> s < n) starters)
      in
      QCheck.assume (starters <> []);
      let module P = Protocols.Ring_election.Make (struct
        let num_nodes = n
        let starters = starters
        let bug = Protocols.Ring_election.No_bug
      end) in
      let module G = Mc_global.Bdfs.Make (P) in
      let o =
        G.run
          { G.default_config with time_limit = Some 30.0 }
          ~invariant:P.agreement
          (Dsm.Protocol.initial_system (module P))
      in
      o.violation = None)

let () =
  Alcotest.run "ring_election"
    [
      ( "handlers",
        [
          Alcotest.test_case "wake" `Quick test_wake;
          Alcotest.test_case "forward bigger" `Quick test_forward_bigger;
          Alcotest.test_case "join with own" `Quick test_join_with_own;
          Alcotest.test_case "swallow vs bug" `Quick test_swallow_vs_bug;
          Alcotest.test_case "win and announce" `Quick test_win_and_announce;
        ] );
      ( "checking",
        [
          Alcotest.test_case "correct agrees (global)" `Quick
            test_correct_agreement_global;
          Alcotest.test_case "bug found (global)" `Quick test_buggy_found_global;
          Alcotest.test_case "bug found (LMC)" `Quick test_buggy_found_lmc;
          Alcotest.test_case "correct quiet (LMC)" `Quick
            test_correct_quiet_lmc;
          QCheck_alcotest.to_alcotest prop_correct_rings_agree;
        ] );
    ]
