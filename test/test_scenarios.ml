(* Tests for the canned live-state scenarios and a FIFO + simulator
   integration pass. *)

let check = Alcotest.check
let fail = Alcotest.fail

(* ---------- §5.5 snapshot builder ---------- *)

module Paxos = Protocols.Paxos.Make (struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 4
  let fresh_proposals = false
  let bug = Protocols.Paxos_core.Last_response_wins
end)

let test_wids_snapshot_shape () =
  let s = Protocols.Scenarios.wids_snapshot (module Paxos) in
  check Alcotest.int "three nodes" 3 (Array.length s);
  (* "node N1 has proposed value v1, nodes N1 and N2 have accepted this
     proposal, but due to message losses only N1 has learned it" *)
  check Alcotest.(option int) "node 1 chose its value" (Some 2)
    (Protocols.Paxos_core.chosen s.(1).Protocols.Paxos.core 0);
  (match Protocols.Paxos_core.has_accepted s.(2).Protocols.Paxos.core 0 with
  | Some (_, 2) -> ()
  | _ -> fail "node 2 must have accepted node 1's value");
  check Alcotest.(option int) "node 2 has not learned" None
    (Protocols.Paxos_core.chosen s.(2).Protocols.Paxos.core 0);
  check Alcotest.(option int) "node 0 saw nothing" None
    (Protocols.Paxos_core.chosen s.(0).Protocols.Paxos.core 0);
  check Alcotest.int "node 0 untouched acceptor" 0
    (Protocols.Paxos_core.promised s.(0).Protocols.Paxos.core 0)

let test_wids_snapshot_deterministic () =
  let a = Protocols.Scenarios.wids_snapshot (module Paxos) in
  let b = Protocols.Scenarios.wids_snapshot (module Paxos) in
  check Alcotest.bool "replayable" true (a = b)

(* ---------- §5.6 snapshot builder ---------- *)

module OP = Protocols.Onepaxos.Make (struct
  let num_nodes = 3
  let max_leader_claims = 1
  let max_attempts = 1
  let max_index = 2
  let max_util_entries = 2
  let max_util_attempts = 2
  let bug = Protocols.Onepaxos.Postfix_increment
end)

let test_onepaxos_snapshot_shape () =
  let s = Protocols.Scenarios.onepaxos_snapshot (module OP) in
  check Alcotest.bool "node 0 still believes it leads" true
    s.(0).Protocols.Onepaxos.is_leader;
  check Alcotest.int "node 0 keeps the buggy cached acceptor" 0
    s.(0).Protocols.Onepaxos.acceptor;
  check Alcotest.bool "node 2 actually leads" true
    s.(2).Protocols.Onepaxos.is_leader;
  check Alcotest.(option int) "nodes 1,2 chose" (Some 3)
    (List.assoc_opt 0 s.(1).Protocols.Onepaxos.chosen);
  check Alcotest.(option int) "node 0 did not" None
    (List.assoc_opt 0 s.(0).Protocols.Onepaxos.chosen)

(* the snapshots drive the headline detections: quick end-to-end *)
let test_snapshots_drive_detection () =
  let module L = Lmc.Checker.Make (Paxos) in
  let r =
    L.run
      { L.default_config with
        time_limit = Some 30.0;
        local_action_bound = Some 1 }
      ~strategy:L.Automatic
      ~invariant:Paxos.safety
      (Protocols.Scenarios.wids_snapshot (module Paxos))
  in
  check Alcotest.bool "wids snapshot reveals the bug" true
    (r.sound_violation <> None);
  let module LO = Lmc.Checker.Make (OP) in
  let r =
    LO.run
      { LO.default_config with
        time_limit = Some 10.0;
        local_action_bound = Some 1 }
      ~strategy:LO.Automatic
      ~invariant:OP.safety
      (Protocols.Scenarios.onepaxos_snapshot (module OP))
  in
  check Alcotest.bool "1paxos snapshot reveals the bug" true
    (r.sound_violation <> None)

(* ---------- FIFO wrapper under the live simulator ---------- *)

module Ping = Protocols.Ping.Make (struct
  let num_servers = 2
end)

module Fifo_ping = Protocols.Fifo.Make (Ping)
module Sim_fp = Sim.Live_sim.Make (Fifo_ping)

let test_fifo_live_integration () =
  (* over a RELIABLE link the FIFO wrapper is transparent: the wrapped
     ping run completes exactly like the plain one *)
  let sim =
    Sim_fp.create
      {
        Sim_fp.seed = 42;
        link = Net.Lossy_link.reliable;
        timer_min = 0.5;
        timer_max = 1.5;
        action_prob = None;
        faults = Fault.Plan.empty;
      }
  in
  Sim_fp.run_until sim 20.0;
  let states = Sim_fp.states sim in
  (match states.(0).Protocols.Fifo.inner with
  | { Protocols.Ping.pongs; _ } ->
      check Alcotest.int "both pongs through FIFO channels" 2
        (List.length pongs));
  check Alcotest.int "no drops" 0 (Sim_fp.messages_dropped sim);
  (* channel counters advanced *)
  check Alcotest.bool "client stamped its pings" true
    (states.(0).Protocols.Fifo.next_out <> [])

let () =
  Alcotest.run "scenarios"
    [
      ( "wids",
        [
          Alcotest.test_case "shape" `Quick test_wids_snapshot_shape;
          Alcotest.test_case "deterministic" `Quick
            test_wids_snapshot_deterministic;
        ] );
      ( "onepaxos",
        [ Alcotest.test_case "shape" `Quick test_onepaxos_snapshot_shape ] );
      ( "end-to-end",
        [
          Alcotest.test_case "snapshots reveal the bugs" `Slow
            test_snapshots_drive_detection;
        ] );
      ( "fifo-live",
        [
          Alcotest.test_case "integration" `Quick test_fifo_live_integration;
        ] );
    ]
