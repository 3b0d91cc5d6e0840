(* Tests for 1Paxos and its embedded PaxosUtility layer (§5.6). *)

let check = Alcotest.check
let fail = Alcotest.fail

module Config_buggy = struct
  let num_nodes = 3
  let max_leader_claims = 1
  let max_attempts = 1
  let max_index = 2
  let max_util_entries = 2
  let max_util_attempts = 2
  let bug = Protocols.Onepaxos.Postfix_increment
end

module Config_fixed = struct
  include Config_buggy

  let bug = Protocols.Onepaxos.No_bug
end

module Buggy = Protocols.Onepaxos.Make (Config_buggy)
module Fixed = Protocols.Onepaxos.Make (Config_fixed)

let env ~src ~dst m = Dsm.Envelope.make ~src ~dst m

let boot (module P : Dsm.Protocol.S
           with type state = Protocols.Onepaxos.op_state
            and type action = Protocols.Onepaxos.op_action
            and type message = Protocols.Onepaxos.op_message) n =
  fst (P.handle_action ~self:n (P.initial n) Protocols.Onepaxos.Init)

(* ---------- initialisation and the ++ bug ---------- *)

let test_init_bug () =
  let s = boot (module Buggy) 0 in
  check Alcotest.int "buggy acceptor is the first member" 0
    s.Protocols.Onepaxos.acceptor;
  check Alcotest.bool "node 0 leads" true s.Protocols.Onepaxos.is_leader;
  let f = boot (module Fixed) 0 in
  check Alcotest.int "correct acceptor is the second member" 1
    f.Protocols.Onepaxos.acceptor;
  let s1 = boot (module Buggy) 1 in
  check Alcotest.bool "node 1 does not lead" false
    s1.Protocols.Onepaxos.is_leader

let test_leader_proposes_to_cached_acceptor () =
  let s = boot (module Buggy) 0 in
  let _, out =
    Buggy.handle_action ~self:0 s (Protocols.Onepaxos.Propose { idx = 0 })
  in
  (match out with
  | [ e ] ->
      check Alcotest.int "buggy leader proposes to itself" 0 e.Dsm.Envelope.dst
  | _ -> fail "expected one Propose1");
  let f = boot (module Fixed) 0 in
  let _, out =
    Fixed.handle_action ~self:0 f (Protocols.Onepaxos.Propose { idx = 0 })
  in
  match out with
  | [ e ] ->
      check Alcotest.int "fixed leader proposes to node 1" 1 e.Dsm.Envelope.dst
  | _ -> fail "expected one Propose1"

(* ---------- the single-acceptor rule ---------- *)

let test_acceptor_locks_value () =
  let s = boot (module Fixed) 1 in
  let s, out =
    Fixed.handle_message ~self:1 s
      (env ~src:0 ~dst:1 (Protocols.Onepaxos.Propose1 { idx = 0; rnd = 1; v = 7 }))
  in
  check Alcotest.int "learns broadcast to all" 3 (List.length out);
  (* a later, higher-round proposal with another value re-learns 7 *)
  let _, out2 =
    Fixed.handle_message ~self:1 s
      (env ~src:2 ~dst:1 (Protocols.Onepaxos.Propose1 { idx = 0; rnd = 9; v = 8 }))
  in
  (match out2 with
  | (_ : _ Dsm.Envelope.t) :: _ -> (
      match (List.hd out2).Dsm.Envelope.payload with
      | Protocols.Onepaxos.Learn1 { v; _ } ->
          check Alcotest.int "locked value re-learned" 7 v
      | _ -> fail "expected Learn1")
  | [] -> fail "higher round ignored");
  (* a stale round is ignored outright *)
  let s', out3 =
    Fixed.handle_message ~self:1 s
      (env ~src:2 ~dst:1 (Protocols.Onepaxos.Propose1 { idx = 0; rnd = 0; v = 8 }))
  in
  check Alcotest.bool "stale proposal dropped" true (s = s');
  check Alcotest.int "no learns" 0 (List.length out3)

let test_learn1_chooses_once () =
  let s = boot (module Fixed) 2 in
  let s, _ =
    Fixed.handle_message ~self:2 s
      (env ~src:1 ~dst:2 (Protocols.Onepaxos.Learn1 { idx = 0; rnd = 1; v = 7 }))
  in
  check Alcotest.(option int) "chosen" (Some 7)
    (List.assoc_opt 0 s.Protocols.Onepaxos.chosen);
  let s, _ =
    Fixed.handle_message ~self:2 s
      (env ~src:0 ~dst:2 (Protocols.Onepaxos.Learn1 { idx = 0; rnd = 2; v = 9 }))
  in
  check Alcotest.(option int) "first choice sticks" (Some 7)
    (List.assoc_opt 0 s.Protocols.Onepaxos.chosen)

(* ---------- PaxosUtility layering ---------- *)

let test_claim_runs_utility_consensus () =
  (* Drive a full utility consensus for LeaderChange(2) by hand across
     three booted nodes and check everyone applies it. *)
  let states = Array.init 3 (fun n -> boot (module Buggy) n) in
  let pool = ref [] in
  let dispatch () =
    (* deliver everything until quiescence, breadth-first *)
    let rec go budget =
      if budget = 0 then fail "utility consensus diverged";
      match !pool with
      | [] -> ()
      | e :: rest ->
          pool := rest;
          let dst = e.Dsm.Envelope.dst in
          let s', out = Buggy.handle_message ~self:dst states.(dst) e in
          states.(dst) <- s';
          pool := !pool @ out;
          go (budget - 1)
    in
    go 1000
  in
  let s2, out =
    Buggy.handle_action ~self:2 states.(2) Protocols.Onepaxos.Claim_leadership
  in
  states.(2) <- s2;
  pool := out;
  dispatch ();
  Array.iteri
    (fun n (s : Buggy.state) ->
      check Alcotest.int
        (Printf.sprintf "N%d sees leader 2" n)
        2 s.Protocols.Onepaxos.leader;
      check Alcotest.int
        (Printf.sprintf "N%d applied one entry" n)
        1 s.Protocols.Onepaxos.util_applied)
    states;
  check Alcotest.bool "node 2 now leads" true
    states.(2).Protocols.Onepaxos.is_leader;
  check Alcotest.bool "node 0 deposed" false
    states.(0).Protocols.Onepaxos.is_leader;
  (* the new leader refreshed its acceptor from the utility: correct
     default, in spite of the buggy cached value *)
  check Alcotest.int "refreshed acceptor" 1
    states.(2).Protocols.Onepaxos.acceptor

(* Drive a full utility consensus for an AcceptorChange entry and check
   everyone applies it, including the leader's cached-acceptor refresh
   on a later LeaderChange. *)
let test_acceptor_change_applied () =
  let states = Array.init 3 (fun n -> boot (module Fixed) n) in
  let pool = ref [] in
  let dispatch () =
    let rec go budget =
      if budget = 0 then fail "utility consensus diverged";
      match !pool with
      | [] -> ()
      | e :: rest ->
          pool := rest;
          let dst = e.Dsm.Envelope.dst in
          let s', out = Fixed.handle_message ~self:dst states.(dst) e in
          states.(dst) <- s';
          pool := !pool @ out;
          go (budget - 1)
    in
    go 2000
  in
  (* hand-roll an AcceptorChange(2) proposal through the utility layer:
     reuse Claim_leadership's plumbing by injecting the raw utility
     paxos messages — node 1 proposes the entry at utility index 0 *)
  let util, out =
    Protocols.Paxos_core.propose ~n:3 ~self:1
      states.(1).Protocols.Onepaxos.util ~idx:0
      ~v:(Protocols.Onepaxos.encode_entry (Protocols.Onepaxos.Acceptor_change 2))
  in
  states.(1) <- { (states.(1)) with Protocols.Onepaxos.util };
  pool :=
    List.map
      (fun (dst, m) -> Dsm.Envelope.make ~src:1 ~dst (Protocols.Onepaxos.Util m))
      out;
  dispatch ();
  Array.iteri
    (fun n (s : Fixed.state) ->
      check Alcotest.int
        (Printf.sprintf "N%d applied the acceptor change" n)
        2 s.Protocols.Onepaxos.acceptor;
      check Alcotest.int
        (Printf.sprintf "N%d log advanced" n)
        1 s.Protocols.Onepaxos.util_applied)
    states;
  (* now node 2 claims leadership; the refresh must read the
     AcceptorChange from the log, not the default *)
  let s2, out =
    Fixed.handle_action ~self:2 states.(2) Protocols.Onepaxos.Claim_leadership
  in
  states.(2) <- s2;
  pool := out;
  dispatch ();
  check Alcotest.bool "node 2 leads" true states.(2).Protocols.Onepaxos.is_leader;
  check Alcotest.int "leader kept the changed acceptor" 2
    states.(2).Protocols.Onepaxos.acceptor

let test_entry_encoding_roundtrip () =
  List.iter
    (fun e ->
      let open Protocols.Onepaxos in
      if decode_entry (encode_entry e) <> e then fail "entry roundtrip")
    [
      Protocols.Onepaxos.Leader_change 0;
      Protocols.Onepaxos.Leader_change 2;
      Protocols.Onepaxos.Acceptor_change 1;
      Protocols.Onepaxos.Acceptor_change 2;
    ]

(* ---------- the §5.6 scenario, end to end ---------- *)

(* Craft the paper's snapshot: leadership moved to node 2 and it got
   index 0 chosen as v3 at nodes 1 and 2 — while node 0 missed both the
   LeaderChange and the Learn1 and still believes it leads with its
   buggy cached acceptor. *)
let crafted_snapshot () =
  let states = Array.init 3 (fun n -> boot (module Buggy) n) in
  (* run the utility consensus among nodes 1 and 2 only (node 0's
     traffic "was lost"), by replaying node 2's claim and filtering *)
  let pool = ref [] in
  let s2, out =
    Buggy.handle_action ~self:2 states.(2) Protocols.Onepaxos.Claim_leadership
  in
  states.(2) <- s2;
  pool := out;
  let rec go budget =
    if budget = 0 then fail "dispatch diverged";
    match !pool with
    | [] -> ()
    | e :: rest ->
        pool := rest;
        let dst = e.Dsm.Envelope.dst in
        if dst = 0 then go (budget - 1) (* drop everything to node 0 *)
        else begin
          let s', out = Buggy.handle_message ~self:dst states.(dst) e in
          states.(dst) <- s';
          pool := !pool @ out;
          go (budget - 1)
        end
  in
  go 1000;
  if not states.(2).Protocols.Onepaxos.is_leader then
    fail "node 2 must end up leading (majority of 1 and 2)";
  (* node 2 proposes v3 for index 0 through the real acceptor (node 1) *)
  let s2, out =
    Buggy.handle_action ~self:2 states.(2)
      (Protocols.Onepaxos.Propose { idx = 0 })
  in
  states.(2) <- s2;
  pool := out;
  go 1000;
  states

let test_crafted_snapshot_shape () =
  let s = crafted_snapshot () in
  check Alcotest.bool "N0 still believes it leads" true
    s.(0).Protocols.Onepaxos.is_leader;
  check Alcotest.int "N0 buggy cached acceptor" 0
    s.(0).Protocols.Onepaxos.acceptor;
  check Alcotest.(option int) "N1 chose v3" (Some 3)
    (List.assoc_opt 0 s.(1).Protocols.Onepaxos.chosen);
  check Alcotest.(option int) "N2 chose v3" (Some 3)
    (List.assoc_opt 0 s.(2).Protocols.Onepaxos.chosen);
  check Alcotest.(option int) "N0 chose nothing" None
    (List.assoc_opt 0 s.(0).Protocols.Onepaxos.chosen)

module L_buggy = Lmc.Checker.Make (Buggy)
module L_fixed = Lmc.Checker.Make (Fixed)

let test_bug_found_from_snapshot () =
  let snapshot = crafted_snapshot () in
  let cfg =
    { L_buggy.default_config with
      time_limit = Some 30.0;
      local_action_bound = Some 1 }
  in
  let r =
    L_buggy.run cfg
      ~strategy:L_buggy.Automatic
      ~invariant:Buggy.safety snapshot
  in
  match r.sound_violation with
  | None -> fail "§5.6 bug not found from the crafted snapshot"
  | Some v ->
      (* the witness is the loopback scenario: propose to self, accept,
         learn from self *)
      check Alcotest.bool "short witness" true (List.length v.schedule <= 5);
      check Alcotest.bool "every event is at node 0" true
        (List.for_all
           (fun step -> Dsm.Trace.step_node step = 0)
           v.schedule)

let test_fixed_safe_from_equivalent_snapshot () =
  (* the same drive on the fixed build leaves no divergence to find *)
  let states = Array.init 3 (fun n -> boot (module Fixed) n) in
  let pool = ref [] in
  let s2, out =
    Fixed.handle_action ~self:2 states.(2) Protocols.Onepaxos.Claim_leadership
  in
  states.(2) <- s2;
  pool := out;
  let rec go budget =
    if budget = 0 then fail "dispatch diverged";
    match !pool with
    | [] -> ()
    | e :: rest ->
        pool := rest;
        let dst = e.Dsm.Envelope.dst in
        if dst = 0 then go (budget - 1)
        else begin
          let s', out = Fixed.handle_message ~self:dst states.(dst) e in
          states.(dst) <- s';
          pool := !pool @ out;
          go (budget - 1)
        end
  in
  go 1000;
  (if states.(2).Protocols.Onepaxos.is_leader then begin
     let s2, out =
       Fixed.handle_action ~self:2 states.(2)
         (Protocols.Onepaxos.Propose { idx = 0 })
     in
     states.(2) <- s2;
     pool := out;
     go 1000
   end);
  let cfg =
    { L_fixed.default_config with
      time_limit = Some 10.0;
      local_action_bound = Some 1 }
  in
  let r =
    L_fixed.run cfg
      ~strategy:L_fixed.Automatic
      ~invariant:Fixed.safety states
  in
  check Alcotest.bool "fixed 1Paxos stays safe" true
    (r.sound_violation = None)

let () =
  Alcotest.run "onepaxos"
    [
      ( "init",
        [
          Alcotest.test_case "postfix-increment bug" `Quick test_init_bug;
          Alcotest.test_case "cached acceptor used" `Quick
            test_leader_proposes_to_cached_acceptor;
        ] );
      ( "acceptor",
        [
          Alcotest.test_case "value locking" `Quick test_acceptor_locks_value;
          Alcotest.test_case "learn chooses once" `Quick
            test_learn1_chooses_once;
        ] );
      ( "utility",
        [
          Alcotest.test_case "claim consensus" `Quick
            test_claim_runs_utility_consensus;
          Alcotest.test_case "entry encoding" `Quick
            test_entry_encoding_roundtrip;
          Alcotest.test_case "acceptor change" `Quick
            test_acceptor_change_applied;
        ] );
      ( "bug-5.6",
        [
          Alcotest.test_case "snapshot shape" `Quick test_crafted_snapshot_shape;
          Alcotest.test_case "found from snapshot" `Slow
            test_bug_found_from_snapshot;
          Alcotest.test_case "fixed build safe" `Slow
            test_fixed_safe_from_equivalent_snapshot;
        ] );
    ]
