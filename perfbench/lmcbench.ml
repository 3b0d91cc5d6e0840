(* Work-bounded benchmark of the local model checker.

   lmcbench --workload hunt|sweep|soak --seed N --seconds S --trace 0|1

   A pass sets a workload up (instantiates the protocols, builds the
   configs, creates the sim) and then runs each of its cases once.
   Every case is bounded by work — depth, transitions, simulated
   horizon — never by wall-clock time, so its counts repeat exactly
   and a faster program shows a shorter [verdict_s].  Passes repeat
   until [--seconds] have gone by and timings are reported as medians.

   With [--trace 1] untraced and traced passes alternate.  The traced
   ones record spans around the library calls (see [Spans]), wrap the
   protocols in [Spans.Timed] and hand a fresh [Obs] scope to every
   public [obs] argument; they yield the per-layer metrics.  Their
   counts must equal the untraced counts (the tracing is a pure
   observer).

   The last line of standard output is one JSON object:
   [{"correct", "attempted", "failed", "metrics"}]. *)

(* ------------------------------------------------------------------ *)
(* Case results                                                        *)
(* ------------------------------------------------------------------ *)

type case_result = {
  name : string;
  failure : string option;
      (** why the case failed: wrong verdict, a witness that does not
          replay, a tripped safety cap, a B-DFS/LMC disagreement *)
  counts : (string * int) list;
      (** deterministic per-case counts, compared across passes and
          between traced and untraced passes *)
  bug_sim_s : float;  (** simulated live seconds before the bug; 0 if none *)
  summary : string;
}

let fail_if cond msg acc = if cond then Some msg else acc

(* Figures that only the library's results carry (phase times of a
   checker run, retained bytes) accumulate here during a pass. *)
module Facts = struct
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 16
  let reset () = Hashtbl.reset tbl
  let get k = Option.value ~default:0. (Hashtbl.find_opt tbl k)
  let add k v = Hashtbl.replace tbl k (get k +. v)
  let max k v = Hashtbl.replace tbl k (Float.max (get k) v)
end

(* The soak's sim seed and churn schedule derive from the workload
   seed; the salt keeps the two streams apart. *)
let derive seed salt = Hashtbl.hash (seed, salt) land 0x3fffffff

(* ------------------------------------------------------------------ *)
(* hunt: online LMC restarts until a planted bug is confirmed           *)
(* ------------------------------------------------------------------ *)

type hunt_params = {
  sim_seed : int;
  drop : float;
  plan : Fault.Plan.t;
  interval : float;
  max_live : float;  (** outer safety cap on simulated time *)
  max_depth : int option;
  max_transitions : int option;
  crash_budget : int;
}

module Hunt_case
    (Live : Dsm.Protocol.S)
    (Check : Dsm.Protocol.S
               with type state = Live.state
                and type message = Live.message
                and type action = Live.action) =
struct
  module O = Online.Online_mc.Make (Live) (Check)
  module S = Sim.Live_sim.Make (Live)
  module W = Lmc.Witness.Make (Check)

  (* The hunt checks [invariant]; the replayed witness must violate
     [expect], the part of it where the bug is planted.  The set-up
     also creates the case's live sim and ships its t=0 snapshot
     through the checksummed transport, the first thing the online
     driver does (which creates its own sim inside [run]). *)
  let setup ~name ~obs ~action_prob ~invariant ~expect p =
    let config =
      {
        O.sim =
          {
            S.seed = p.sim_seed;
            link =
              Net.Lossy_link.create ~drop_prob:p.drop ~latency_min:0.05
                ~latency_max:0.3 ();
            timer_min = 2.0;
            timer_max = 20.0;
            action_prob;
            faults = p.plan;
          };
        check_interval = p.interval;
        max_live_time = p.max_live;
        checker =
          {
            O.Checker.default_config with
            max_depth = p.max_depth;
            max_transitions = p.max_transitions;
            crash_budget = p.crash_budget;
          };
        action_bounds = [ 1; 2 ];
        steer = false;
        steer_scope = `Exact_action;
        supervisor = O.default_supervisor;
        store = None;
      }
    in
    (match
       Sim.Snapshot.of_string
         (Sim.Snapshot.to_string (S.snapshot (S.create config.O.sim)))
     with
    | Ok (_ : Live.state Sim.Snapshot.t) -> ()
    | Error e ->
        failwith (Format.asprintf "%a" Sim.Snapshot.pp_error e));
    fun () ->
      let outcome =
        Spans.span "online.run" (fun () ->
            O.run ~obs config ~strategy:O.Checker.Automatic ~invariant)
      in
      Facts.add "online.check_s" outcome.O.total_check_time;
      let base =
        [
          ("checks", outcome.O.total_checks);
          ("system_states", outcome.O.states_explored);
        ]
      in
      let failure =
        fail_if
          (outcome.O.degradations <> [])
          ("supervisor degraded: " ^ String.concat "," outcome.O.degradations)
          None
      in
      match outcome.O.report with
      | None ->
          {
            name;
            failure =
              Some
                (Printf.sprintf "no bug within the %.0f s live cap"
                   p.max_live);
            counts = base;
            bug_sim_s = 0.;
            summary = "no bug";
          }
      | Some r ->
          let v = r.O.violation in
          let res = r.O.result in
          Facts.max "core.retained_bytes"
            (float_of_int res.O.Checker.retained_bytes);
          let replayed =
            Spans.span "core.witness" (fun () ->
                W.replay ~init:r.O.snapshot v.O.Checker.schedule)
          in
          let failure =
            match replayed with
            | None -> Some "witness does not replay from the snapshot"
            | Some final ->
                fail_if
                  (Spans.span "dsm.invariant" (fun () ->
                       Dsm.Invariant.check expect final)
                  = None)
                  ("the replayed witness does not violate "
                  ^ Dsm.Invariant.name expect)
                  failure
          in
          {
            name;
            failure;
            counts =
              base
              @ [
                  ("bug_run", r.O.checks_run);
                  ("bug_run_transitions", res.O.Checker.transitions);
                  ("bug_run_soundness_calls", res.O.Checker.soundness_calls);
                  ("witness_events", v.O.Checker.system_depth);
                ];
            bug_sim_s = r.O.live_time;
            summary =
              Printf.sprintf "%s at t=%.0f, restart %d/%d, witness %d events"
                v.O.Checker.violation.Dsm.Invariant.invariant r.O.live_time
                r.O.checks_run outcome.O.total_checks v.O.Checker.system_depth;
          }
end

module Swim_ackrace = Protocols.Swim.Make (struct
  let num_servers = 4
  let bug = Protocols.Swim.Ack_race
end)

(* §5.5: the live deployment proposes on fresh indices for traffic,
   the checker's driver stays on the contended one. *)
module Wids_cfg (F : sig
  val fresh : bool
end) =
struct
  let num_nodes = 3
  let proposers = [ 0; 1; 2 ]
  let max_attempts = 2
  let max_index = 16
  let fresh_proposals = F.fresh
  let bug = Protocols.Paxos_core.Last_response_wins
end

module Wids_live = Protocols.Paxos.Make (Wids_cfg (struct
  let fresh = true
end))

module Wids_check = Protocols.Paxos.Make (Wids_cfg (struct
  let fresh = false
end))

module Onepaxos_pp = Protocols.Onepaxos.Make (struct
  let num_nodes = 3
  let max_leader_claims = 2
  let max_attempts = 1
  let max_index = 12
  let max_util_entries = 3
  let max_util_attempts = 2
  let bug = Protocols.Onepaxos.Postfix_increment
end)

let ackrace_plan =
  "crash:node=2,at=30,recover=45;crash:node=2,at=120,recover=135;\
   crash:node=2,at=240,recover=255"

let parse_plan ~num_nodes text =
  match Fault.Plan.of_string text with
  | Error e -> failwith e
  | Ok plan -> (
      match Fault.Plan.validate ~num_nodes plan with
      | Ok () -> plan
      | Error e -> failwith e)

(* The 1Paxos driver claims leadership with probability 0.1 (§5.6). *)
let claim_prob _ = function
  | Protocols.Onepaxos.Claim_leadership -> 0.1
  | _ -> 1.0

(* The hunts run from pinned live seeds, the paper's: unlike the soak,
   time-to-bug is a property of one live execution, and seeding the
   live sims from the workload seed swung one pass from 3 s to 43 s
   and lost at least one bug within the caps on five of seeds 1-6.
   [--hunt-offset] shifts every live seed at once; offset 3 is
   recorded in NOTES.md as a second set on which all three bugs are
   still found within the same work bounds ([run.py] passes it on). *)
let hunt_offset = ref 0

let hunt_setup ~seed:_ ~traced ~obs =
  let params =
    [
      ( "ackrace-crash",
        {
          sim_seed = 5;
          drop = 0.3;
          plan = parse_plan ~num_nodes:Swim_ackrace.num_nodes ackrace_plan;
          interval = 15.;
          max_live = 60.;
          max_depth = Some 6;
          max_transitions = None;
          crash_budget = 1;
        } );
      ( "paxos-wids",
        {
          sim_seed = 7;
          drop = 0.3;
          plan = Fault.Plan.empty;
          interval = 30.;
          max_live = 90.;
          max_depth = None;
          max_transitions = Some 100_000;
          crash_budget = 0;
        } );
      ( "onepaxos-pp",
        {
          sim_seed = 9;
          drop = 0.3;
          plan = Fault.Plan.empty;
          interval = 10.;
          max_live = 150.;
          max_depth = None;
          max_transitions = Some 4_000;
          crash_budget = 0;
        } );
    ]
  in
  let params =
    List.map
      (fun (name, p) -> (name, { p with sim_seed = p.sim_seed + !hunt_offset }))
      params
  in
  let p name = List.assoc name params in
  let ackrace =
    let name = "ackrace-crash" in
    let invariant = Swim_ackrace.membership_safety in
    let expect = Swim_ackrace.no_phantom_ack in
    let module L = (val Spans.maybe_timed ~live:true ~traced (module Swim_ackrace)) in
    let module C = (val Spans.maybe_timed ~traced (module Swim_ackrace)) in
    let module H = Hunt_case (L) (C) in
    H.setup ~name ~obs ~action_prob:None ~invariant ~expect (p name)
  in
  let wids =
    let name = "paxos-wids" in
    let invariant = Wids_check.safety in
    let expect = invariant in
    let module L = (val Spans.maybe_timed ~live:true ~traced (module Wids_live)) in
    let module C = (val Spans.maybe_timed ~traced (module Wids_check)) in
    let module H = Hunt_case (L) (C) in
    H.setup ~name ~obs ~action_prob:None ~invariant ~expect (p name)
  in
  let onepaxos =
    let name = "onepaxos-pp" in
    let invariant = Onepaxos_pp.safety in
    let expect = invariant in
    let module L = (val Spans.maybe_timed ~live:true ~traced (module Onepaxos_pp)) in
    let module C = (val Spans.maybe_timed ~traced (module Onepaxos_pp)) in
    let module H = Hunt_case (L) (C) in
    H.setup ~name ~obs ~action_prob:(Some claim_prob) ~invariant ~expect
      (p name)
  in
  [ ("ackrace-crash", ackrace); ("paxos-wids", wids); ("onepaxos-pp", onepaxos) ]

(* ------------------------------------------------------------------ *)
(* sweep: offline exhaustive checks from the initial state              *)
(* ------------------------------------------------------------------ *)

type algo = Bdfs | Lmc_gen | Lmc_auto

let algo_name = function
  | Bdfs -> "B-DFS"
  | Lmc_gen -> "LMC-GEN"
  | Lmc_auto -> "LMC-auto"

(* Outer safety cap: far above what any sweep step needs.  A step that
   trips it reports [completed = false] and fails its case. *)
let sweep_transition_cap = 20_000_000

module Sweep_case (P : Dsm.Protocol.S) = struct
  module G = Mc_global.Bdfs.Make (P)
  module L = Lmc.Checker.Make (P)

  (* One checker run at one depth: (violated, completed). *)
  let step ~obs ~invariant ~tally init depth algo =
    match algo with
    | Bdfs ->
        let o =
          Spans.span "mc_global.bdfs" (fun () ->
              G.run
                {
                  G.default_config with
                  max_depth = Some depth;
                  max_transitions = Some sweep_transition_cap;
                  obs;
                }
                ~invariant init)
        in
        let s = o.G.stats in
        Facts.max "bdfs.retained_bytes" (float_of_int s.G.retained_bytes);
        tally "bdfs_global_states" s.G.global_states;
        tally "bdfs_transitions" s.G.transitions;
        (o.G.violation <> None, o.G.completed)
    | Lmc_gen | Lmc_auto ->
        let config =
          {
            L.default_config with
            max_depth = Some depth;
            max_transitions = Some sweep_transition_cap;
            obs;
          }
        in
        let r =
          Spans.span "core.lmc" (fun () ->
              if algo = Lmc_gen then L.run config ~strategy:L.General ~invariant init
              else L.run config ~strategy:L.Automatic ~invariant init)
        in
        Facts.add "core.lmc_s" r.L.elapsed;
        Facts.add "core.combination_s" r.L.system_state_time;
        Facts.max "core.retained_bytes" (float_of_int r.L.retained_bytes);
        let tag = if algo = Lmc_gen then "gen" else "auto" in
        tally (tag ^ "_transitions") r.L.transitions;
        tally (tag ^ "_system_states") r.L.system_states_created;
        tally (tag ^ "_prelim") r.L.preliminary_violations;
        (r.L.sound_violation <> None, r.L.completed)

  (* [steps] lists (depth, algorithms); all algorithms at one depth
     must agree, and every run must come back clean and complete.  The
     checkers start from the initial-system snapshot after it crossed
     the checksummed transport, as the online driver hands states to
     its checker. *)
  let setup ~name ~obs ~invariant steps =
    let init =
      match
        Sim.Snapshot.of_string (Sim.Snapshot.to_string (Sim.Snapshot.initial (module P)))
      with
      | Ok (snap : P.state Sim.Snapshot.t) -> snap.Sim.Snapshot.states
      | Error e -> failwith (Format.asprintf "%a" Sim.Snapshot.pp_error e)
    in
    fun () ->
      let counts = Hashtbl.create 8 in
      let tally k v =
        Hashtbl.replace counts k
          (v + Option.value ~default:0 (Hashtbl.find_opt counts k))
      in
      let failure =
        List.fold_left
          (fun failure (depth, algos) ->
            let verdicts =
              List.map
                (fun a -> (a, step ~obs ~invariant ~tally init depth a))
                algos
            in
            let violated = List.map (fun (_, (v, _)) -> v) verdicts in
            let problem =
              match
                List.find_opt (fun (_, (_, completed)) -> not completed)
                  verdicts
              with
              | Some (a, _) ->
                  Some
                    (Printf.sprintf "%s tripped its safety cap at depth %d"
                       (algo_name a) depth)
              | None when List.exists (( <> ) (List.hd violated)) violated ->
                  Some
                    (Printf.sprintf "B-DFS and LMC disagree at depth %d" depth)
              | None when List.mem true violated ->
                  Some
                    (Printf.sprintf
                       "violation reported at depth %d, expected clean" depth)
              | None -> None
            in
            if failure = None then problem else failure)
          None steps
      in
      let counts =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])
      in
      {
        name;
        failure;
        counts;
        bug_sim_s = 0.;
        summary =
          Printf.sprintf "clean and complete at %d depth(s)"
            (List.length steps);
      }
end

module Paxos3 = Protocols.Paxos.Make (Protocols.Paxos.Bench_config)

module Paxos4 = Protocols.Paxos.Make (struct
  let num_nodes = 4
  let proposers = [ 0 ]
  let max_attempts = 1
  let max_index = 1
  let fresh_proposals = true
  let bug = Protocols.Paxos_core.No_bug
end)

let paxos3_steps = List.init 26 (fun d -> (d, [ Bdfs; Lmc_gen; Lmc_auto ]))

(* On 4 nodes LMC-GEN costs about 500 us per system state (depth 6
   alone takes about 6 s), so it runs at depth 5; B-DFS reaches 18. *)
let paxos4_steps =
  [ (5, [ Bdfs; Lmc_gen; Lmc_auto ]); (18, [ Bdfs; Lmc_auto ]) ]

let sweep_setup ~seed:_ ~traced ~obs =
  let paxos3 =
    let name = "paxos3-fig10" in
    let invariant = Paxos3.safety in
    let module P = (val Spans.maybe_timed ~traced (module Paxos3)) in
    let module C = Sweep_case (P) in
    C.setup ~name ~obs ~invariant paxos3_steps
  in
  let paxos4 =
    let name = "paxos4-bounded" in
    let invariant = Paxos4.safety in
    let module P = (val Spans.maybe_timed ~traced (module Paxos4)) in
    let module C = Sweep_case (P) in
    C.setup ~name ~obs ~invariant paxos4_steps
  in
  [ ("paxos3-fig10", paxos3); ("paxos4-bounded", paxos4) ]

(* ------------------------------------------------------------------ *)
(* soak: a 500-node SWIM fleet under churn, no checker                  *)
(* ------------------------------------------------------------------ *)

let soak_nodes = 500
let soak_horizon = 600.
let soak_check_every = 10.
let soak_movers = 40

module Swim500 = Protocols.Swim.Make (struct
  let num_servers = soak_nodes
  let bug = Protocols.Swim.No_bug
end)

(* [soak_movers] distinct nodes each get one to three membership
   changes, alternating, at seeded times inside the horizon.  A node
   whose first change is a join starts outside the fleet. *)
let churn_plan rng =
  let chosen = Hashtbl.create soak_movers in
  while Hashtbl.length chosen < soak_movers do
    Hashtbl.replace chosen (Random.State.int rng soak_nodes) ()
  done;
  let nodes = List.sort compare (Hashtbl.fold (fun n () acc -> n :: acc) chosen []) in
  List.concat_map
    (fun node ->
      let k = 1 + Random.State.int rng 3 in
      let times =
        List.sort compare
          (List.init k (fun _ ->
               Float.round (5. +. Random.State.float rng (soak_horizon -. 10.))))
      in
      let joins_first = Random.State.bool rng in
      List.mapi
        (fun i at ->
          if (i mod 2 = 0) = joins_first then Fault.Plan.Join { node; at }
          else Fault.Plan.Leave { node; at })
        times)
    nodes

module Soak_case (P : Dsm.Protocol.S) = struct
  module S = Sim.Live_sim.Make (P)

  let setup ~name ~obs ~invariant ~seed ~plan =
    let sim =
      S.create ~obs
        {
          S.seed;
          link =
            Net.Lossy_link.create ~drop_prob:0.05 ~latency_min:0.05
              ~latency_max:0.3 ();
          timer_min = 2.0;
          timer_max = 20.0;
          action_prob = None;
          faults = plan;
        }
    in
    fun () ->
      let rec loop checks =
        if S.now sim >= soak_horizon then (checks, None)
        else begin
          let until = Float.min soak_horizon (S.now sim +. soak_check_every) in
          Spans.span "sim.run_until" (fun () -> S.run_until sim until);
          match
            Spans.span "dsm.invariant" (fun () ->
                Dsm.Invariant.check invariant (S.states sim))
          with
          | None -> loop (checks + 1)
          | Some v -> (checks + 1, Some v)
        end
      in
      let checks, violation = loop 0 in
      let counts =
        [
          ("events", S.events_executed sim);
          ("messages_sent", S.messages_sent sim);
          ("messages_dropped", S.messages_dropped sim);
          ("fault_drops", S.fault_drops sim);
          ("churn_events", S.churn_events sim);
          ("invariant_checks", checks);
        ]
      in
      {
        name;
        failure =
          Option.map
            (fun v ->
              Format.asprintf "expected clean, got %a at t=%.1f"
                Dsm.Invariant.pp_violation v (S.now sim))
            violation;
        counts;
        bug_sim_s = 0.;
        summary =
          Printf.sprintf "%s after %.0f s: %d events, %d churn events, fleet %d"
            (if violation = None then "clean" else "VIOLATION")
            (S.now sim) (S.events_executed sim) (S.churn_events sim)
            (List.length (S.live_nodes sim));
      }
end

let soak_setup ~seed ~traced ~obs =
  let name = "swim500-churn" in
  let rng = Random.State.make [| derive seed 1 |] in
  let plan = churn_plan rng in
  (match Fault.Plan.validate ~num_nodes:soak_nodes plan with
  | Ok () -> ()
  | Error e -> failwith e);
  let seed = derive seed 2 in
  let invariant = Swim500.membership_safety in
  let run =
    let module P = (val Spans.maybe_timed ~traced (module Swim500)) in
    let module C = Soak_case (P) in
    C.setup ~name ~obs ~invariant ~seed ~plan
  in
  [ (name, run) ]

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

type setup =
  seed:int -> traced:bool -> obs:Obs.scope -> (string * (unit -> case_result)) list

let workloads : (string * setup) list =
  [ ("hunt", hunt_setup); ("sweep", sweep_setup); ("soak", soak_setup) ]

let clock () = float_of_int (Spans.now_ns ()) /. 1e9

type pass = {
  traced : bool;
  wall_s : float;  (** the whole pass, set-up and GC included *)
  verdict_s : float;
  cpu_s : float;
  results : case_result list;
  layers : (string * float * string) list;  (** traced passes only *)
  spans : Spans.span list;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* Per-layer metrics of one traced pass.  Self times come from the
   spans; the checker's phase split comes from its results ([Facts])
   and the soundness histogram.  On [hunt] the online driver returns
   no per-restart phase split, so exploration there includes
   system-state creation and [core.combination.self_s] stays 0.
   [online.live_s] is the rest of the driver's run, so it is reported
   but not counted as explained: the live sim's handlers are, and the
   driver and sim dispatch around them stay unexplained. *)
let layer_metrics ~obs ~restart_events ~spans ~verdict_s =
  let secs ns = float_of_int ns /. 1e9 in
  let named n = List.filter (fun s -> s.Spans.name = n) spans in
  let self n = secs (sum Spans.self_ns (named n)) in
  let dur n = secs (sum Spans.duration_ns (named n)) in
  let handler_in names =
    secs
      (sum
         (fun s -> if List.mem s.Spans.name names then s.Spans.handler_ns else 0)
         spans)
  in
  let handler_s =
    secs (sum (fun s -> s.Spans.handler_ns) spans + !Spans.live_handler_ns)
  in
  let handler_calls =
    sum (fun s -> s.Spans.handler_calls) spans + !Spans.live_handler_calls
  in
  let m = Obs.metrics obs in
  let counter n =
    match Obs.Metrics.find_counter m n with
    | Some c -> Obs.Metrics.value c
    | None -> 0
  in
  let hist n =
    Option.map Obs.Metrics.histogram_snapshot (Obs.Metrics.find_histogram m n)
  in
  let quantile n q =
    match Option.bind (hist n) (fun h -> Obs.Metrics.quantile h q) with
    | Some v -> float_of_int v
    | None -> 0.
  in
  let ratio a b = if b = 0. then 0. else a /. b in
  let soundness_s =
    match hist "lmc.soundness_us" with
    | Some h -> float_of_int h.Obs.Metrics.sum /. 1e6
    | None -> 0.
  in
  let online_check_s = Facts.get "online.check_s" in
  let check_s = Facts.get "core.lmc_s" +. online_check_s in
  let combination_s = Facts.get "core.combination_s" in
  let explore_s =
    check_s -. combination_s -. soundness_s
    -. handler_in [ "core.lmc"; "online.run" ]
  in
  let live_s = dur "online.run" -. online_check_s in
  let restart_max =
    List.fold_left
      (fun acc (e : Obs.Sink.event) ->
        match List.assoc_opt "elapsed_s" e.Obs.Sink.fields with
        | Some (Dsm.Json.Float f) -> Float.max acc f
        | _ -> acc)
      0. restart_events
  in
  let bdfs_s = self "mc_global.bdfs" in
  let sim_s = self "sim.run_until" in
  let inv_s = self "dsm.invariant" in
  let witness_s = self "core.witness" in
  let explained =
    handler_s +. inv_s +. explore_s +. combination_s +. soundness_s +. bdfs_s
    +. sim_s +. witness_s
  in
  let system_states = counter "lmc.system_states_created" in
  let soundness_calls = counter "lmc.soundness_calls" in
  let global_states = counter "bdfs.global_states" in
  let c n = float_of_int (counter n) in
  [
    ("dsm.handler.calls", float_of_int handler_calls, "count");
    ("dsm.handler.self_s", handler_s, "s");
    ( "dsm.handler.ns_per_call",
      ratio (handler_s *. 1e9) (float_of_int handler_calls),
      "ns" );
    ("dsm.invariant.calls", float_of_int (List.length (named "dsm.invariant")), "count");
    ("dsm.invariant.self_s", inv_s, "s");
    ("core.transitions", c "lmc.transitions", "count");
    ("core.node_states", c "lmc.node_states", "count");
    ("core.iplus_messages", c "lmc.net_messages", "count");
    ("core.explore.self_s", explore_s, "s");
    ("core.system_states", float_of_int system_states, "count");
    ("core.combination.self_s", combination_s, "s");
    ( "core.combination.ns_per_system_state",
      ratio (combination_s *. 1e9) (float_of_int system_states),
      "ns" );
    ("core.prelim_violations", c "lmc.preliminary_violations", "count");
    ("core.soundness.calls", float_of_int soundness_calls, "count");
    ("core.soundness.self_s", soundness_s, "s");
    ("core.soundness.call_us.p50", quantile "lmc.soundness_us" 0.5, "us");
    ("core.soundness.call_us.p99", quantile "lmc.soundness_us" 0.99, "us");
    ("core.soundness.steps.p50", quantile "soundness.steps" 0.5, "count");
    ("core.soundness.steps.p99", quantile "soundness.steps" 0.99, "count");
    ("core.soundness.budget_exhausted", c "lmc.soundness_budget_exhausted", "count");
    ( "core.soundness.confirm_ratio",
      ratio (c "soundness.valid") (float_of_int soundness_calls),
      "ratio" );
    ("core.witness.self_s", witness_s, "s");
    ("core.retained_mb", Facts.get "core.retained_bytes" /. 1048576., "MB");
    ("mc_global.bdfs.self_s", bdfs_s, "s");
    ("mc_global.bdfs.global_states", float_of_int global_states, "count");
    ("mc_global.bdfs.transitions", c "bdfs.transitions", "count");
    ( "mc_global.bdfs.states_per_s",
      ratio (float_of_int global_states) (dur "mc_global.bdfs"),
      "1/s" );
    ("mc_global.bdfs.retained_mb", Facts.get "bdfs.retained_bytes" /. 1048576., "MB");
    ("sim.run_until.self_s", sim_s, "s");
    ("sim.events", c "sim.events", "count");
    ("sim.messages_sent", c "sim.messages_sent", "count");
    ("sim.messages_dropped", c "sim.messages_dropped", "count");
    ("sim.fault_drops", c "sim.fault_drops", "count");
    ("sim.churn_events", c "sim.churn_events", "count");
    ("online.checks", c "online.checks", "count");
    ("online.check_s", online_check_s, "s");
    ("online.live_s", live_s, "s");
    ("online.restart_s.max", restart_max, "s");
    ( "attribution.unexplained_pct",
      100. *. ratio (verdict_s -. explained) verdict_s,
      "%" );
  ]

let run_pass (setup : setup) ~seed ~traced =
  let sink, restart_events = Obs.Sink.memory ~only:[ "online.check" ] () in
  let obs = if traced then Obs.create ~sinks:[ sink ] () else Obs.null in
  let t0 = clock () in
  Facts.reset ();
  Spans.reset ();
  Gc.full_major ();
  let cases = setup ~seed ~traced ~obs in
  let t1 = clock () in
  let c1 = Unix.times () in
  Spans.enabled := traced;
  let results =
    List.map
      (fun (name, run) ->
        match Spans.case name run with
        | r -> r
        | exception e ->
            {
              name;
              failure = Some ("raised " ^ Printexc.to_string e);
              counts = [];
              bug_sim_s = 0.;
              summary = "";
            })
      cases
  in
  let t2 = clock () in
  let c2 = Unix.times () in
  Spans.enabled := false;
  let verdict_s = t2 -. t1 in
  let spans =
    List.sort (fun a b -> compare a.Spans.id b.Spans.id) !Spans.finished
  in
  let layers =
    if traced then
      layer_metrics ~obs ~restart_events:(restart_events ()) ~spans ~verdict_s
    else []
  in
  let cpu (t : Unix.process_times) = t.tms_utime +. t.tms_stime in
  {
    traced;
    wall_s = clock () -. t0;
    verdict_s;
    cpu_s = cpu c2 -. cpu c1;
    results;
    layers;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let usage () =
  prerr_endline
    "usage: lmcbench --workload hunt|sweep|soak --seed N --seconds S --trace \
     0|1 [--spans-out FILE] [--hunt-offset K]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. in
  let trace = ref 0 and spans_out = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--spans-out" :: v :: rest -> spans_out := v; parse rest
    | "--hunt-offset" :: v :: rest -> hunt_offset := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> usage ()
  in
  let traced_run = !trace = 1 in
  let seed = !seed in
  (* A hunt or sweep set-up takes microseconds, too short to time
     once: each sample is the mean of a batch of set-ups lasting
     about 50 ms, taken after a full major GC.  One sample is taken
     before every pass, so the samples spread over the run like the
     passes do, and [setup_s] is their median. *)
  let setup_once () = ignore (w ~seed ~traced:false ~obs:Obs.null) in
  let batch =
    let t0 = clock () in
    setup_once ();
    max 1 (int_of_float (ceil (0.05 /. (clock () -. t0))))
  in
  let setup_sample () =
    Gc.full_major ();
    let t0 = clock () in
    for _ = 1 to batch do setup_once () done;
    (clock () -. t0) /. float_of_int batch
  in
  (* Passes run until the next one would end after the deadline, and
     at least until one untraced pass besides the first (and, with
     tracing, one traced pass) is done. *)
  let deadline = clock () +. !seconds in
  let rec loop acc samples =
    let n = List.length acc in
    let untraced = List.filter (fun p -> not p.traced) acc in
    let traced = List.filter (fun p -> p.traced) acc in
    let last_s = match acc with p :: _ -> p.wall_s | [] -> 0. in
    let enough =
      clock () +. last_s > deadline
      && List.length untraced >= 2
      && ((not traced_run) || traced <> [])
    in
    if enough then (List.rev acc, samples)
    else
      let sample = setup_sample () in
      let traced = traced_run && n mod 2 = 1 in
      loop (run_pass w ~seed ~traced :: acc) (sample :: samples)
  in
  let passes, setup_samples = loop [] [] in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let reference = (List.hd untraced).results in
  (* A case fails on its own finding, or when its counts differ from
     the first untraced pass: the program is deterministic for a
     seed, and tracing must be a pure observer. *)
  let findings =
    List.concat_map
      (fun p ->
        List.map2
          (fun (r : case_result) (ref_r : case_result) ->
            match r.failure with
            | Some why -> Some (r.name, why)
            | None ->
                if r.counts <> ref_r.counts || r.bug_sim_s <> ref_r.bug_sim_s
                then
                  Some
                    ( r.name,
                      if p.traced then "traced counts differ from untraced"
                      else "counts differ between passes" )
                else None)
          p.results reference)
      passes
  in
  let attempted = List.length findings in
  let failures = List.filter_map Fun.id findings in
  let failed = List.length failures in
  Printf.printf "workload %s seed %d: %d pass(es), %d traced\n" !workload seed
    (List.length passes) (List.length traced);
  List.iter
    (fun p ->
      Printf.printf "pass %s verdict_s %.4f cpu_s %.4f\n"
        (if p.traced then "traced  " else "untraced")
        p.verdict_s p.cpu_s)
    passes;
  List.iter
    (fun (r : case_result) ->
      Printf.printf "case %-16s %s | %s\n" r.name
        (match r.failure with None -> "ok" | Some why -> "FAIL: " ^ why)
        r.summary;
      Printf.printf "counts %-14s %s\n" r.name
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.counts)))
    reference;
  List.iter (fun (name, why) -> Printf.printf "finding %s: %s\n" name why) failures;
  (* The first pass grows the heap from nothing; it is checked like
     the others but left out of the timings when there are more. *)
  let timed = match untraced with _ :: (_ :: _ as rest) -> rest | l -> l in
  let verdict_s = median (List.map (fun p -> p.verdict_s) timed) in
  let setup_s = median setup_samples in
  let line (name, v, unit) = Printf.printf "metric %-40s %14.6f %s\n" name v unit in
  let fail_ratio = float_of_int failed /. float_of_int attempted in
  let bug_sim_s = List.fold_left (fun a r -> a +. r.bug_sim_s) 0. reference in
  let end_to_end =
    [
      ("setup_s", setup_s, "s");
      ("verdict_s", verdict_s, "s");
      ("peak_rss_mb", peak_rss_mb (), "MB");
    ]
  in
  List.iter line end_to_end;
  line ("fail_ratio", fail_ratio, "ratio");
  if !workload = "hunt" then line ("bug_sim_s", bug_sim_s, "s");
  if !workload = "soak" then
    line
      ( "sim_events_per_s",
        float_of_int
          (sum (fun r -> Option.value ~default:0 (List.assoc_opt "events" r.counts))
             reference)
        /. verdict_s,
        "1/s" );
  let reported =
    if not traced_run then end_to_end
    else begin
      let traced_verdict = median (List.map (fun p -> p.verdict_s) traced) in
      let layers =
        List.map
          (fun (name, _, unit) ->
            ( name,
              median
                (List.map
                   (fun p ->
                     let _, v, _ = List.find (fun (n, _, _) -> n = name) p.layers in
                     v)
                   traced),
              unit ))
          (List.hd traced).layers
      in
      layers
      @ [ ("trace.overhead_pct", 100. *. ((traced_verdict /. verdict_s) -. 1.), "%") ]
    end
  in
  if traced_run then List.iter line reported;
  if !spans_out <> "" then begin
    let oc = open_out !spans_out in
    List.iteri
      (fun i p ->
        List.iter
          (fun s ->
            output_string oc
              (Dsm.Json.to_string
                 (match Spans.to_json s with
                 | Dsm.Json.Obj fields -> Dsm.Json.Obj (("pass", Dsm.Json.Int i) :: fields)
                 | j -> j));
            output_char oc '\n')
          p.spans)
      traced;
    close_out oc
  end;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (failed = 0) attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
              (json_number v) unit)
          reported))
