(* §5.5 end to end: online model checking finds the WiDS-reported bug
   in a Paxos implementation.

   The injected bug: "once the leader receives the PrepareResponse
   message from a majority of nodes, it creates the Accept request by
   using the submitted value from the last PrepareResponse message
   instead of the PrepareResponse message with highest round number."

   Setup mirrors the paper: three nodes, each proposing its own
   identity then sleeping, over a lossy link that drops 30% of
   non-loopback messages; the online framework snapshots the live
   system periodically and restarts LMC (with the [Automatic] strategy,
   pruned by the safety invariant's key) from each snapshot.  The live deployment keeps
   proposing for fresh indices; the checker-side test driver focuses on
   contended indices only, per §4.2.  The installed invariant is the
   original Paxos invariant: no two nodes choose different values. *)

module Common = struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 16
  let bug = Protocols.Paxos_core.Last_response_wins
end

module Live = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = true
end)

module Check = Protocols.Paxos.Make (struct
  include Common

  let fresh_proposals = false
end)

module Online = Online.Online_mc.Make (Live) (Check)
module Sim_p = Sim.Live_sim.Make (Live)

let () =
  let link =
    Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05 ~latency_max:0.3 ()
  in
  let config =
    {
      Online.sim = { Sim_p.seed = 7; link; timer_min = 2.0; timer_max = 20.0; action_prob = None; faults = Fault.Plan.empty };
      check_interval = 30.0;
      max_live_time = 3600.0;
      checker =
        {
          Online.Checker.default_config with
          time_limit = Some 5.0;
          max_transitions = Some 100_000;
        };
      action_bounds = [ 1; 2 ];
      steer = false;
      steer_scope = `Exact_action;
      supervisor = Online.default_supervisor;
      store = None;
    }
  in
  Format.printf
    "Hunting the §5.5 Paxos bug online (3 nodes, 30%% drop, LMC-auto)...@.@.";
  let outcome =
    Online.run config ~strategy:Online.Checker.Automatic
      ~invariant:Check.safety
  in
  match outcome.report with
  | None ->
      Format.printf "no violation found within %.0f simulated seconds@."
        config.max_live_time;
      exit 1
  | Some report ->
      Format.printf "%a@." Online.pp_report report;
      Format.printf
        "@.LMC runs: %d, total checking time: %.2fs, revealing run: %.3fs \
         (%d transitions, %d node states, %d soundness checks)@."
        outcome.total_checks outcome.total_check_time
        report.result.Online.Checker.elapsed
        report.result.Online.Checker.transitions
        report.result.Online.Checker.total_node_states
        report.result.Online.Checker.soundness_calls
