(* Prevention, not just detection.

   The paper builds LMC to power CrystalBall-style online checking;
   CrystalBall's headline is *preventing* inconsistencies, not only
   reporting them.  This example closes that loop on the §5.6 1Paxos
   bug:

   1. run the buggy system with plain online checking — the violation
      is predicted and reported;
   2. shrink the witness with delta debugging and render it as a
      Graphviz sequence chart;
   3. run the same system with execution steering on — every predicted
      trigger is vetoed in the live deployment, and the live system
      never reaches a violating state. *)

module Config = struct
  let num_nodes = 3
  let max_leader_claims = 2
  let max_attempts = 1
  let max_index = 12
  let max_util_entries = 3
  let max_util_attempts = 2
  let bug = Protocols.Onepaxos.Postfix_increment
end

module OP = Protocols.Onepaxos.Make (Config)
module Online_op = Online.Online_mc.Make (OP) (OP)
module Sim_op = Sim.Live_sim.Make (OP)
module W = Lmc.Witness.Make (OP)

let config ~steer =
  {
    Online_op.sim =
      {
        Sim_op.seed = 9;
        link =
          Net.Lossy_link.create ~drop_prob:0.3 ~latency_min:0.05
            ~latency_max:0.3 ();
        (* the checker must outpace the drivers for steering to win the
           prediction race *)
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
    max_live_time = 300.0;
    checker =
      {
        Online_op.Checker.default_config with
        time_limit = Some 2.0;
        max_transitions = Some 50_000;
      };
    action_bounds = [ 1; 2 ];
    steer;
    steer_scope = `Node;
    supervisor = Online_op.default_supervisor;
    store = None;
  }

let strategy = Online_op.Checker.Automatic

let () =
  Format.printf "== 1. detection (plain online checking) ==@.";
  let plain = Online_op.run (config ~steer:false) ~strategy ~invariant:OP.safety in
  (match plain.report with
  | None ->
      Format.printf "no violation predicted — try another seed@.";
      exit 1
  | Some report ->
      Format.printf "predicted after %.0f simulated seconds:@.  %a@."
        report.live_time Dsm.Invariant.pp_violation
        report.violation.Online_op.Checker.violation;

      Format.printf "@.== 2. shrink and render the witness ==@.";
      let snapshot = report.snapshot in
      let predicate sys = Dsm.Invariant.check OP.safety sys <> None in
      let minimal =
        W.minimize ~init:snapshot ~predicate
          report.violation.Online_op.Checker.schedule
      in
      Format.printf "witness: %d events, minimal: %d events@."
        (List.length report.violation.Online_op.Checker.schedule)
        (List.length minimal);
      Format.printf "%a"
        (Dsm.Trace.pp ~pp_message:OP.pp_message ~pp_action:OP.pp_action)
        minimal;
      let dot = W.to_dot ~init:snapshot ~title:"1paxos bug" minimal in
      let path = Filename.temp_file "onepaxos_witness" ".dot" in
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Format.printf "sequence chart written to %s@." path);

  Format.printf "@.== 3. prevention (execution steering) ==@.";
  let steered = Online_op.run (config ~steer:true) ~strategy ~invariant:OP.safety in
  List.iter
    (fun (n, a) ->
      Format.printf "vetoed %a at %a@." OP.pp_action a Dsm.Node_id.pp n)
    steered.vetoed;
  match steered.live_violation_time with
  | None ->
      Format.printf
        "the live system ran %.0f simulated seconds and NEVER violated the \
         invariant.@."
        300.0
  | Some t ->
      Format.printf
        "steering lost the prediction race: live violation at %.0f s@." t
