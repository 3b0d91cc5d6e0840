(* Explore the §5.1 Paxos state space (three nodes, one proposal) with
   B-DFS, LMC-GEN and LMC-auto (the paper's LMC-OPT pruning, read off
   the invariant's key) and
   print the headline comparison: total transitions, states, and time.
   This is the state space behind Figs. 10-12. *)

module Paxos = Protocols.Paxos.Make (Protocols.Paxos.Bench_config)
module Global = Mc_global.Bdfs.Make (Paxos)
module Local = Lmc.Checker.Make (Paxos)

let () =
  let init = Dsm.Protocol.initial_system (module Paxos) in
  let invariant = Paxos.safety in

  Format.printf
    "State space: 3 nodes, node 0 proposes once (max depth 22 events)@.@.";

  Format.printf "-- B-DFS (global) --@.";
  let g = Global.run Global.default_config ~invariant init in
  Format.printf
    "  transitions=%d global-states=%d system-states=%d depth=%d time=%.3fs@."
    g.stats.transitions g.stats.global_states g.stats.system_states
    g.stats.max_depth_reached g.stats.elapsed;

  Format.printf "@.-- LMC-GEN (local, general system-state creation) --@.";
  let gen =
    Local.run Local.default_config ~strategy:Local.General ~invariant init
  in
  Format.printf
    "  transitions=%d node-states=%d system-states=%d prelim-violations=%d \
     time=%.3fs@."
    gen.transitions gen.total_node_states gen.system_states_created
    gen.preliminary_violations gen.elapsed;

  Format.printf "@.-- LMC-auto (invariant-derived creation) --@.";
  let opt =
    Local.run Local.default_config ~strategy:Local.Automatic ~invariant init
  in
  Format.printf
    "  transitions=%d node-states=%d system-states=%d prelim-violations=%d \
     time=%.3fs@."
    opt.transitions opt.total_node_states opt.system_states_created
    opt.preliminary_violations opt.elapsed;

  Format.printf "@.-- Summary --@.";
  Format.printf "  transition reduction  : %.0fx (paper: ~132x)@."
    (float_of_int g.stats.transitions /. float_of_int (max 1 gen.transitions));
  Format.printf "  LMC-GEN speedup       : %.0fx (paper: ~300x)@."
    (g.stats.elapsed /. max 1e-9 gen.elapsed);
  Format.printf "  LMC-auto speedup      : %.0fx (paper's LMC-OPT: ~8000x)@."
    (g.stats.elapsed /. max 1e-9 opt.elapsed);
  Format.printf "  LMC-auto system states: %d (paper: 0)@."
    opt.system_states_created
