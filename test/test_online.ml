(* Tests for the online model-checking framework (§3.3). *)

let check = Alcotest.check
let fail = Alcotest.fail

module Common = struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 8
  let bug = Protocols.Paxos_core.Last_response_wins
end

module Live = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = true
end)

module Check_p = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = false
end)

module Live_fixed = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = true
  let bug = Protocols.Paxos_core.No_bug
end)

module Check_fixed = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = false
  let bug = Protocols.Paxos_core.No_bug
end)

module Online_buggy = Online.Online_mc.Make (Live) (Check_p)
module Online_fixed = Online.Online_mc.Make (Live_fixed) (Check_fixed)
module Sim_buggy = Sim.Live_sim.Make (Live)
module Sim_fixed = Sim.Live_sim.Make (Live_fixed)

let lossy () =
  Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05 ~latency_max:0.3 ()

let buggy_config ~max_live_time =
  {
    Online_buggy.sim =
      { Sim_buggy.seed = 7; link = lossy (); timer_min = 2.0; timer_max = 20.0;
        action_prob = None; faults = Fault.Plan.empty };
    check_interval = 30.0;
    max_live_time;
    checker =
      {
        Online_buggy.Checker.default_config with
        time_limit = Some 5.0;
        max_transitions = Some 100_000;
      };
    action_bounds = [ 1; 2 ];
    steer = false;
    steer_scope = `Exact_action;
    supervisor = Online_buggy.default_supervisor;
    store = None;
  }

let test_finds_injected_bug () =
  let outcome =
    Online_buggy.run (buggy_config ~max_live_time:600.0)
      ~strategy:Online_buggy.Checker.Automatic
      ~invariant:Check_p.safety
  in
  match outcome.report with
  | None -> fail "online checking missed the injected bug"
  | Some report ->
      check Alcotest.bool "found within live budget" true
        (report.live_time <= 600.0);
      check Alcotest.bool "witness non-empty" true
        (report.violation.Online_buggy.Checker.schedule <> []);
      check Alcotest.bool "counted checks" true (report.checks_run >= 1);
      check Alcotest.int "totals consistent" outcome.total_checks
        report.checks_run

let test_report_printable () =
  let outcome =
    Online_buggy.run (buggy_config ~max_live_time:600.0)
      ~strategy:Online_buggy.Checker.Automatic
      ~invariant:Check_p.safety
  in
  match outcome.report with
  | None -> fail "expected a report"
  | Some report ->
      let out = Format.asprintf "%a" Online_buggy.pp_report report in
      check Alcotest.bool "mentions the invariant" true
        (String.length out > 50)

let test_correct_paxos_quiet () =
  let config =
    {
      Online_fixed.sim =
        { Sim_fixed.seed = 7; link = lossy (); timer_min = 2.0;
          timer_max = 20.0; action_prob = None; faults = Fault.Plan.empty };
      check_interval = 30.0;
      max_live_time = 120.0;
      checker =
        {
          Online_fixed.Checker.default_config with
          time_limit = Some 3.0;
          max_transitions = Some 50_000;
        };
      action_bounds = [ 1 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor = Online_fixed.default_supervisor;
      store = None;
    }
  in
  let strategy = Online_fixed.Checker.Automatic in
  let outcome =
    Online_fixed.run config ~strategy ~invariant:Check_fixed.safety
  in
  check Alcotest.bool "no false positive" true (outcome.report = None);
  check Alcotest.bool "checks actually ran" true (outcome.total_checks >= 4)

(* Execution steering: predictions installed as action vetoes keep the
   live system from ever reaching the violation.  The checker must
   outpace the drivers (2 s restarts vs 10-30 s action timers) — with
   slow restarts the stale node fires its fatal action before the
   prediction lands, which is CrystalBall's own operating constraint. *)
let test_steering_prevents_live_violation () =
  let module OPCfg = struct
    let num_nodes = 3
    let max_leader_claims = 2
    let max_attempts = 1
    let max_index = 12
    let max_util_entries = 3
    let max_util_attempts = 2
    let bug = Protocols.Onepaxos.Postfix_increment
  end in
  let module OP = Protocols.Onepaxos.Make (OPCfg) in
  let module O = Online.Online_mc.Make (OP) (OP) in
  let module S = Sim.Live_sim.Make (OP) in
  let config steer =
    {
      O.sim =
        {
          S.seed = 9;
          link =
            Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
              ~latency_max:0.3 ();
          timer_min = 20.0;
          timer_max = 40.0;
          action_prob =
            Some
              (fun _ a ->
                match a with
                | Protocols.Onepaxos.Claim_leadership -> 0.1
                | _ -> 1.0);
          faults = Fault.Plan.empty;
        };
      check_interval = 5.0;
      max_live_time = 120.0;
      checker =
        {
          O.Checker.default_config with
          time_limit = Some 1.0;
          max_transitions = Some 20_000;
        };
      action_bounds = [ 1; 2 ];
      steer;
      steer_scope = `Node;
      supervisor = O.default_supervisor;
      store = None;
    }
  in
  let strategy = O.Checker.Automatic in
  let steered = O.run (config true) ~strategy ~invariant:OP.safety in
  check Alcotest.bool "violation predicted" true (steered.report <> None);
  check Alcotest.bool "vetoes installed" true (steered.vetoed <> []);
  check Alcotest.bool "live system never violated" true
    (steered.live_violation_time = None)

(* ---------- supervised loop (hardening) ---------- *)

(* A throwing node-state observer fails a Checker.run attempt while
   leaving the live loop's own invariant evaluation untouched (the
   observer is only ever called inside the checker). *)
let test_survives_checker_failure () =
  let calls = ref 0 in
  let config =
    {
      Online_fixed.sim =
        { Sim_fixed.seed = 7; link = lossy (); timer_min = 2.0;
          timer_max = 20.0; action_prob = None; faults = Fault.Plan.empty };
      check_interval = 30.0;
      max_live_time = 60.0;
      checker =
        {
          Online_fixed.Checker.default_config with
          time_limit = Some 3.0;
          max_transitions = Some 50_000;
          on_new_node_state =
            Some
              (fun _ _ ->
                incr calls;
                if !calls <= 1 then failwith "injected checker failure");
        };
      action_bounds = [ 1 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor =
        {
          Online_fixed.default_supervisor with
          Online_fixed.max_retries = 2;
          backoff_base_ms = 1;
          backoff_cap_ms = 2;
        };
      store = None;
    }
  in
  let outcome =
    Online_fixed.run config ~strategy:Online_fixed.Checker.Automatic
      ~invariant:Check_fixed.safety
  in
  check Alcotest.bool "loop survived the injected failure" true
    (outcome.total_checks >= 2);
  check Alcotest.bool "failure recorded as degradation" true
    (List.mem "checker_failure" outcome.degradations);
  check Alcotest.bool "retry recovered, no permanent failure" false
    (List.mem "checker_failed_permanently" outcome.degradations);
  check Alcotest.bool "no false positive" true (outcome.report = None)

let test_survives_permanent_checker_failure () =
  let config =
    {
      Online_fixed.sim =
        { Sim_fixed.seed = 7; link = lossy (); timer_min = 2.0;
          timer_max = 20.0; action_prob = None; faults = Fault.Plan.empty };
      check_interval = 30.0;
      max_live_time = 120.0;
      checker =
        {
          Online_fixed.Checker.default_config with
          time_limit = Some 3.0;
          max_transitions = Some 50_000;
          (* an invalid width: every Checker.run raises *)
          domains = 0;
        };
      action_bounds = [ 1 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor =
        {
          Online_fixed.default_supervisor with
          Online_fixed.max_retries = 0;
          backoff_base_ms = 1;
          backoff_cap_ms = 2;
        };
      store = None;
    }
  in
  let outcome =
    Online_fixed.run config ~strategy:Online_fixed.Checker.Automatic
      ~invariant:Check_fixed.safety
  in
  check Alcotest.bool "every restart degraded" true
    (List.mem "checker_failed_permanently" outcome.degradations);
  check Alcotest.bool "degradation escalates to the last tier" true
    (outcome.final_tier = 3);
  check Alcotest.bool "loop still ran to its live budget" true
    (outcome.total_checks >= 3)

let test_survives_corrupt_snapshot () =
  let tampered = ref 0 in
  let config =
    {
      (buggy_config ~max_live_time:600.0) with
      Online_buggy.supervisor =
        {
          Online_buggy.default_supervisor with
          Online_buggy.checksum_snapshots = true;
          snapshot_tamper =
            Some
              (fun wire ->
                if !tampered > 0 then wire
                else begin
                  incr tampered;
                  (* flip one payload byte: the digest must catch it *)
                  let b = Bytes.of_string wire in
                  let i = String.length wire - 1 in
                  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                  Bytes.to_string b
                end);
        };
    }
  in
  let outcome =
    Online_buggy.run config ~strategy:Online_buggy.Checker.Automatic
      ~invariant:Check_p.safety
  in
  check Alcotest.int "exactly one snapshot tampered" 1 !tampered;
  check Alcotest.bool "rejected with a typed diagnostic" true
    (List.mem "corrupt_snapshot" outcome.degradations);
  (* the checksummed hand-off is otherwise transparent: the hunt still
     finds the injected Paxos bug from a later, intact snapshot *)
  check Alcotest.bool "bug still found after the corrupt capture" true
    (outcome.report <> None)

let test_restart_budget_degrades () =
  let config =
    {
      (buggy_config ~max_live_time:120.0) with
      Online_buggy.check_interval = 30.0;
      supervisor =
        {
          Online_buggy.default_supervisor with
          Online_buggy.restart_budget_ms = Some 0;
        };
    }
  in
  let outcome =
    Online_buggy.run config ~strategy:Online_buggy.Checker.Automatic
      ~invariant:Check_p.safety
  in
  check Alcotest.bool "budget trips recorded" true
    (List.mem "restart_budget_exceeded" outcome.degradations);
  check Alcotest.bool "tiers escalate" true (outcome.final_tier >= 1);
  check Alcotest.bool "loop survived every truncated restart" true
    (outcome.total_checks >= 3)

let test_interval_validation () =
  match
    Online_buggy.run
      { (buggy_config ~max_live_time:10.0) with check_interval = 0.0 }
      ~strategy:Online_buggy.Checker.Automatic
      ~invariant:Check_p.safety
  with
  | exception Invalid_argument _ -> ()
  | _ -> fail "zero interval accepted"

let () =
  Alcotest.run "online"
    [
      ( "online",
        [
          Alcotest.test_case "finds injected bug" `Slow test_finds_injected_bug;
          Alcotest.test_case "report printable" `Slow test_report_printable;
          Alcotest.test_case "correct build quiet" `Slow
            test_correct_paxos_quiet;
          Alcotest.test_case "steering prevents violation" `Slow
            test_steering_prevents_live_violation;
          Alcotest.test_case "interval validation" `Quick
            test_interval_validation;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "survives a checker failure" `Slow
            test_survives_checker_failure;
          Alcotest.test_case "survives permanent checker failure" `Slow
            test_survives_permanent_checker_failure;
          Alcotest.test_case "survives a corrupt snapshot" `Slow
            test_survives_corrupt_snapshot;
          Alcotest.test_case "restart budget degrades gracefully" `Slow
            test_restart_budget_degrades;
        ] );
    ]
