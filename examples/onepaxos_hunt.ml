(* §5.6 end to end: online model checking finds a new bug in 1Paxos.

   1Paxos keeps a single active acceptor; the global leader and the
   active acceptor are published through the PaxosUtility consensus
   (implemented here, as in the paper, with Paxos itself).  The
   injected bug is the paper's literal one: the initialisation used
   [acceptor = *(members.begin()++)] — the postfix increment returns
   the first member — so every node's cached acceptor is node 0, the
   initial leader, instead of node 1.

   The manifestation: a node that lost leadership without noticing
   (its utility traffic was dropped) proposes straight to its cached
   acceptor — itself — accepts its own proposal, receives its own
   loopback Learn1, and chooses a value the rest of the system never
   saw.  The fault detector (a Claim_leadership internal action fired
   by the live driver) provides the leadership churn. *)

module Config = struct
  let num_nodes = 3
  let max_leader_claims = 2
  let max_attempts = 1
  let max_index = 12
  let max_util_entries = 3
  let max_util_attempts = 2
  let bug = Protocols.Onepaxos.Postfix_increment
end

module Onepaxos = Protocols.Onepaxos.Make (Config)
module Online = Online.Online_mc.Make (Onepaxos) (Onepaxos)
module Sim_p = Sim.Live_sim.Make (Onepaxos)

let () =
  let link =
    Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05 ~latency_max:0.3 ()
  in
  let config =
    {
      Online.sim =
        {
          Sim_p.seed = 9;
          link;
          timer_min = 2.0;
          timer_max = 20.0;
          (* "the application instead of proposing a value triggers the
             fault detector with the probability of 0.1" (§5.6) *)
          action_prob =
            Some
              (fun _ action ->
                match action with
                | Protocols.Onepaxos.Claim_leadership -> 0.1
                | _ -> 1.0);
          faults = Fault.Plan.empty;
        };
      check_interval = 10.0;
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
    "Hunting the §5.6 1Paxos bug online (3 nodes, fault detector, \
     LMC-auto)...@.@.";
  let outcome =
    Online.run config ~strategy:Online.Checker.Automatic
      ~invariant:Onepaxos.safety
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
