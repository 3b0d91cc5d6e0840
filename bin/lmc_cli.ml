(* lmc-cli: command-line front end for the local model checker.

   Subcommands:
     list   - the bundled protocol instances
     check  - model-check a protocol offline (B-DFS, LMC-GEN, LMC-OPT)
     hunt   - online checking against a simulated lossy deployment
     lint   - protocol sanitizers (determinism, canonicality, coverage)
     replay - re-execute a flight-recorder file, fail on divergence
     report - offline analysis of recorded trace/metrics streams *)

open Cmdliner

type checker_kind = Bdfs | Lmc_gen | Lmc_opt | Lmc_auto

let checker_name = function
  | Bdfs -> "bdfs"
  | Lmc_gen -> "lmc-gen"
  | Lmc_opt -> "lmc-opt"
  | Lmc_auto -> "lmc-auto"

(* The --symmetry flag.  [Sym_group] carries the CLI name ("full",
   "rot"); the degree-dependent group is resolved per protocol.  A
   named group is a *claim* and is audited before either checker may
   exploit it; [Sym_auto] infers candidates and keeps whatever
   survives its audit. *)
type sym_mode = Sym_off | Sym_auto | Sym_group of string

let sym_mode_name = function
  | Sym_off -> "off"
  | Sym_auto -> "auto"
  | Sym_group s -> s

(* Inverse of {!sym_mode_name}, for replaying a recorded run under the
   symmetry mode it was produced with (the audit is deterministic, so
   re-resolution reproduces the recorded group). *)
let sym_mode_of_name = function
  | Some "auto" -> Sym_auto
  | Some "off" | None -> Sym_off
  | Some s -> Sym_group s

type check_params = {
  kind : checker_kind;
  max_depth : int option;
  time_limit : float option;
  crash_budget : int;  (* crash-recovery events per node path (--crash-budget) *)
  verbose : bool;
  minimize : bool;
  dot : string option;  (* write the witness sequence chart here *)
  json : bool;  (* machine-readable result on stdout *)
  domains : int;  (* exploration pool width (--domains) *)
  verify_domains : int;  (* deferred-verification fan-out *)
  symmetry : sym_mode;  (* audited symmetry reduction (--symmetry) *)
  obs : Obs.scope;  (* --metrics-out / --trace-out / --progress *)
  trace : Obs.Trace.t;  (* flight recorder (--record) *)
}

(* A protocol-agnostic rendering of one sanitizer run ({!Lint.Sanitize}),
   so the registry can lint any instance behind one closure type.
   Findings are re-keyed to the registry name: module names do not
   distinguish a buggy variant from its correct twin (both paxos
   instantiations call themselves "paxos"), and the allowlist must. *)
type lint_result = {
  l_name : string;
  l_findings : Lint.Report.finding list;
  l_states : int;
  l_transitions : int;
  l_probes : int;
  l_elapsed : float;
  l_completed : bool;
}

let lint_protocol (module P : Dsm.Protocol.S) ~name ~max_depth
    ~max_transitions ~sym ?claim () =
  let module S = Lint.Sanitize.Make (P) in
  let module Y = Lint.Symmetry.Make (P) in
  let r = S.run ~config:{ S.default_config with max_depth; max_transitions } () in
  (* The symmetry audit rides along: --symmetry off skips it, a named
     group claims it for every target, and auto audits the target's
     own claim if it has one (the sym fixtures) or silently infers. *)
  let sym_claim =
    match sym with
    | Sym_off -> `Skip
    | Sym_group gname -> (
        match Dsm.Symmetry.of_name gname ~degree:P.num_nodes with
        | Some g -> `Claim g
        | None -> `Skip)
    | Sym_auto -> ( match claim with Some g -> `Claim g | None -> `Infer)
  in
  let y =
    match sym_claim with
    | `Skip -> None
    | `Infer | `Claim _ ->
        let claim =
          match sym_claim with
          | `Claim g -> Some (Dsm.Symmetry.with_id_maps g)
          | _ -> None
        in
        Some
          (Y.run
             ~config:{ Y.default_config with max_depth; max_transitions; claim }
             ())
  in
  let y_findings, y_probes, y_completed =
    match y with
    | None -> ([], 0, true)
    | Some (y : Y.result) -> (y.findings, y.stats.probes, y.completed)
  in
  {
    l_name = name;
    l_findings =
      List.map
        (fun (f : Lint.Report.finding) -> { f with protocol = name })
        (r.findings @ y_findings);
    l_states = r.stats.global_states;
    l_transitions = r.stats.transitions;
    l_probes = r.stats.probes + y_probes;
    l_elapsed = r.stats.elapsed;
    l_completed = r.completed && y_completed;
  }

(* One bundled protocol instance, closed over its invariant, its
   optional LMC-OPT abstraction, an online-hunt setup, and its
   sanitizer entry point. *)
type runner = {
  name : string;
  description : string;
  check : check_params -> int;
  hunt :
    (obs:Obs.scope -> trace:Obs.Trace.t -> seed:int -> drop:float ->
     interval:float -> max_live:float -> budget:float -> steer:bool ->
     faults:Fault.Plan.t -> crash_budget:int ->
     restart_budget_ms:int option -> max_retries:int option ->
     store_dir:string option -> resume:bool -> symmetry:sym_mode ->
     domains:int -> verify_domains:int -> int)
    option;
  lint :
    max_depth:int option -> max_transitions:int -> sym:sym_mode -> lint_result;
  replay :
    mode:string ->
    header:(string * Dsm.Json.t) list ->
    records:(string * Dsm.Json.t) list list ->
    domains:int option ->
    int;
}

(* ------------------------------------------------------------------ *)
(* Flight-recorder files (replay / report)                             *)
(* ------------------------------------------------------------------ *)

let jfield name fields = List.assoc_opt name fields
let jstr = function Some (Dsm.Json.String s) -> Some s | _ -> None
let jint = function Some (Dsm.Json.Int n) -> Some n | _ -> None
let jbool = function Some (Dsm.Json.Bool b) -> Some b | _ -> None

let ev_of fields =
  match jstr (jfield "ev" fields) with Some e -> e | None -> ""

(* Every record of one schema in a JSONL file, as field lists, in file
   order.  Foreign lines (other schemas, blank lines) are skipped so a
   trace interleaved with ordinary --trace-out events — or with the
   profiler's profile.v1 stream — still loads. *)
let load_records ~schema path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let records = ref [] in
      (try
         while true do
           let line = input_line ic in
           if String.trim line <> "" then
             match Dsm.Json.of_string line with
             | Ok (Dsm.Json.Obj fields)
               when jstr (jfield "schema" fields) = Some schema ->
                 records := fields :: !records
             | Ok _ | Error _ -> ()
         done
       with End_of_file -> ());
      List.rev !records)

let load_trace path = load_records ~schema:Obs.Trace.schema path

(* A record rendered without the sink-level framing: the wall-clock
   [ts] legitimately differs between a recording and its replay, and
   the ["event"] stream tag only exists in serialized files; every
   remaining field must match byte for byte. *)
let canonical_record fields =
  Dsm.Json.to_string
    (Dsm.Json.Obj
       (List.filter (fun (k, _) -> k <> "ts" && k <> "event") fields))

(* Re-execute every [witness] record of a trace against protocol [P];
   prints one line per witness and counts fingerprint divergences. *)
module Witness_replayer (P : Dsm.Protocol.S) = struct
  module R = Obs.Replay.Make (P)

  let replay_witnesses records =
    let witnesses = List.filter (fun f -> ev_of f = "witness") records in
    let failures = ref 0 in
    List.iteri
      (fun i fields ->
        match R.replay_witness fields with
        | Error msg ->
            incr failures;
            Format.printf "witness #%d: cannot replay: %s@." i msg
        | Ok o -> (
            match o.R.divergence with
            | Some (step, expect, got) ->
                incr failures;
                Format.printf
                  "witness #%d: DIVERGENCE at step %d: recorded fp %s, \
                   replayed fp %s@."
                  i step expect got
            | None when not o.R.final_matches ->
                incr failures;
                Format.printf
                  "witness #%d: final system fingerprint mismatch@." i
            | None ->
                Format.printf
                  "witness #%d: %d steps re-executed, fingerprints \
                   bit-identical@."
                  i o.R.steps_checked))
      witnesses;
    (List.length witnesses, !failures)
end

(* ------------------------------------------------------------------ *)
(* Observability plumbing                                              *)
(* ------------------------------------------------------------------ *)

(* The live-telemetry flag bundle shared by `check' and `hunt':
   /metrics exposition, the sampling profiler and its exports, and the
   soak timeseries ring.  All pure observers — none of them may move a
   verdict or a counter. *)
type telemetry = {
  tel_serve : int option;  (* --serve PORT: HTTP /metrics + /healthz *)
  tel_linger : float;  (* --serve-linger: keep serving after the run *)
  tel_profile : bool;  (* --profile: profile.v1 into the record file *)
  tel_flamegraph : string option;  (* collapsed-stack text *)
  tel_speedscope : string option;  (* speedscope JSON *)
  tel_timeseries : string option;  (* timeseries.v1 JSONL *)
  tel_ts_interval : float;  (* seconds between samples *)
}

let no_telemetry =
  {
    tel_serve = None;
    tel_linger = 0.;
    tel_profile = false;
    tel_flamegraph = None;
    tel_speedscope = None;
    tel_timeseries = None;
    tel_ts_interval = 1.0;
  }

let telemetry_profiling t =
  t.tel_profile || t.tel_flamegraph <> None || t.tel_speedscope <> None

(* Build the scope requested on the command line; returns it with a
   finaliser that dumps the metrics registry, writes the profiler
   exports, closes the sinks (which dumps the timeseries ring) and
   finally lingers and stops the exporter.  With no observability
   flags this is [Obs.null] and a no-op.  Unwritable paths must fail
   here, before the run, not at the end. *)
let make_scope ?(telemetry = no_telemetry) ?record ~metrics_out ~trace_out
    ~progress () =
  let profiling = telemetry_profiling telemetry in
  if
    metrics_out = None && trace_out = None && progress = None
    && telemetry.tel_serve = None && telemetry.tel_timeseries = None
    && not profiling
  then (Obs.null, fun () -> ())
  else begin
    let fail_io msg =
      Printf.eprintf "lmc_cli: %s\n%!" msg;
      exit 2
    in
    if telemetry.tel_profile && record = None then
      fail_io "--profile requires --record (profile.v1 rides the record file)";
    (match metrics_out with
    | Some path -> (
        try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
        with Sys_error msg -> fail_io msg)
    | None -> ());
    let sinks =
      (match trace_out with
      | Some path -> (
          try [ Obs.Sink.jsonl_file path ]
          with Sys_error msg -> fail_io msg)
      | None -> [])
      @
      match progress with
      | Some _ -> [ Obs.Sink.console ~only:[ "progress" ] () ]
      | None -> []
    in
    let metrics = Obs.Metrics.create () in
    let profiler = if profiling then Some (Obs.Prof.create ()) else None in
    let timeseries =
      match telemetry.tel_timeseries with
      | Some path -> (
          try
            Some
              (Obs.Timeseries.create ~interval:telemetry.tel_ts_interval
                 ~metrics path)
          with Sys_error msg -> fail_io msg)
      | None -> None
    in
    let scope =
      Obs.create ~metrics ~sinks ?progress ?profiler ?timeseries ()
    in
    let exporter =
      match telemetry.tel_serve with
      | Some port -> (
          try Some (Obs.Exporter.start ~metrics ~port ())
          with Unix.Unix_error (e, _, _) ->
            fail_io
              (Printf.sprintf "--serve %d: %s" port (Unix.error_message e)))
      | None -> None
    in
    (match exporter with
    | Some e ->
        Printf.eprintf "lmc_cli: serving /metrics on 127.0.0.1:%d\n%!"
          (Obs.Exporter.port e)
    | None -> ());
    let finish () =
      (* Order matters: the record file's trace sink is closed by the
         caller before this runs, so appending profile.v1 here keeps
         the streams whole; the metrics dump precedes the linger so a
         scraper can compare the live endpoint against the file. *)
      (match profiler with
      | Some p ->
          let export what f =
            try f ()
            with Sys_error msg ->
              Printf.eprintf "lmc_cli: %s: %s\n%!" what msg
          in
          (match record with
          | Some path ->
              export "profile" (fun () -> Obs.Prof.append_jsonl p path)
          | None -> ());
          (match telemetry.tel_flamegraph with
          | Some path ->
              export "flamegraph" (fun () -> Obs.Prof.write_collapsed p path)
          | None -> ());
          (match telemetry.tel_speedscope with
          | Some path ->
              export "speedscope" (fun () ->
                  Obs.Prof.write_speedscope p ~name:"lmc" path)
          | None -> ())
      | None -> ());
      (match metrics_out with
      | Some path -> (
          try Obs.write_metrics_jsonl scope path
          with Sys_error msg -> Printf.eprintf "lmc_cli: %s\n%!" msg)
      | None -> ());
      Obs.close scope;
      match exporter with
      | Some e ->
          if telemetry.tel_linger > 0. then Unix.sleepf telemetry.tel_linger;
          Obs.Exporter.stop e
      | None -> ()
    in
    (scope, finish)
  end

(* ------------------------------------------------------------------ *)
(* Generic drivers                                                     *)
(* ------------------------------------------------------------------ *)

(* Resolve --symmetry to what each checker may exploit: the audited
   commutation spec (B-DFS canonicalization) and the audited orbit
   group (LMC combination dedup).  Nothing is reduced without its
   audit passing here first; a claimed group that fails is demoted to
   identity with a warning, never trusted. *)
module Sym_resolver (P : Dsm.Protocol.S) = struct
  module Y = Lint.Symmetry.Make (P)

  let resolve ~invariant mode =
    match mode with
    | Sym_off ->
        ( Dsm.Symmetry.id_spec ~degree:P.num_nodes,
          Dsm.Symmetry.identity_group P.num_nodes )
    | Sym_auto | Sym_group _ ->
        let claim =
          match mode with
          | Sym_group gname -> (
              match Dsm.Symmetry.of_name gname ~degree:P.num_nodes with
              | Some g -> Some (Dsm.Symmetry.with_id_maps g)
              | None ->
                  Printf.eprintf
                    "lmc_cli: unknown symmetry group %S (use full or rot)\n%!"
                    gname;
                  exit 2)
          | _ -> None
        in
        let r =
          Y.run
            ~config:{ Y.default_config with claim; invariant = Some invariant }
            ()
        in
        List.iter
          (fun (f : Lint.Report.finding) ->
            Printf.eprintf
              "lmc_cli: symmetry claim rejected (%s: %s) — falling back to \
               identity, no reduction\n\
               %!"
              (Lint.Report.kind_to_string f.kind)
              f.subject)
          r.findings;
        Printf.eprintf
          "lmc_cli: symmetry audit: commutation=%s orbit=%s (%d probes, \
           %.3f s)\n\
           %!"
          (Dsm.Symmetry.name r.verdict.commutation.Dsm.Symmetry.group)
          (Dsm.Symmetry.name r.verdict.orbit)
          r.stats.probes r.stats.elapsed;
        (r.verdict.commutation, r.verdict.orbit)
end

module Check_driver (P : Dsm.Protocol.S) = struct
  module G = Mc_global.Bdfs.Make (P)
  module L = Lmc.Checker.Make (P)
  module W = Lmc.Witness.Make (P)
  module WR = Witness_replayer (P)
  module SR = Sym_resolver (P)

  let resolve_symmetry = SR.resolve

  let pp_violation_trace trace =
    Format.printf "witness schedule:@.%a"
      (Dsm.Trace.pp ~pp_message:P.pp_message ~pp_action:P.pp_action)
      trace

  let maybe_minimize ~params ~invariant schedule =
    if not params.minimize then schedule
    else begin
      let init = Dsm.Protocol.initial_system (module P) in
      let predicate sys = Dsm.Invariant.check invariant sys <> None in
      let minimal = W.minimize ~init ~predicate schedule in
      if not params.json then
        Format.printf "minimized witness: %d of %d events@."
          (List.length minimal) (List.length schedule);
      minimal
    end

  let maybe_dot ~params schedule =
    match params.dot with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (W.to_dot ~title:P.name schedule);
        close_out oc;
        if not params.json then
          Format.printf "witness sequence chart written to %s@." path

  let step_strings schedule =
    List.map
      (fun step ->
        Format.asprintf "%a"
          (Dsm.Trace.pp_step ~pp_message:P.pp_message ~pp_action:P.pp_action)
          step)
      schedule

  let emit_json ~checker ~violation ~stats =
    print_endline
      (Dsm.Json.to_string
         (Dsm.Json.Obj
            ([ ("protocol", Dsm.Json.String P.name);
               ("checker", Dsm.Json.String checker) ]
            @ stats
            @ [
                ( "violation",
                  match violation with
                  | None -> Dsm.Json.Null
                  | Some (name, detail, schedule) ->
                      Dsm.Json.Obj
                        [
                          ("invariant", Dsm.Json.String name);
                          ("detail", Dsm.Json.String detail);
                          ( "witness",
                            Dsm.Json.List
                              (List.map
                                 (fun s -> Dsm.Json.String s)
                                 (step_strings schedule)) );
                        ] );
              ])))

  let run ?strategy ~invariant params =
    let init = Dsm.Protocol.initial_system (module P) in
    let sym_spec, orbit_group = resolve_symmetry ~invariant params.symmetry in
    match params.kind with
    | Bdfs ->
        let cfg =
          {
            G.default_config with
            max_depth = params.max_depth;
            time_limit = params.time_limit;
            crash_budget = params.crash_budget;
            domains = params.domains;
            symmetry = sym_spec;
            obs = params.obs;
            trace = params.trace;
          }
        in
        let o = G.run cfg ~invariant init in
        if not params.json then
          Format.printf
            "B-DFS: %d transitions, %d global states, %d system states, \
             depth %d, %d orbit hits, %.3f s, completed=%b@."
            o.stats.transitions o.stats.global_states o.stats.system_states
            o.stats.max_depth_reached o.stats.orbit_hits o.stats.elapsed
            o.completed;
        let violation =
          Option.map
            (fun (v : G.violation) ->
              let trace = maybe_minimize ~params ~invariant v.trace in
              maybe_dot ~params trace;
              (v.violation.Dsm.Invariant.invariant,
               v.violation.Dsm.Invariant.detail, trace))
            o.violation
        in
        if params.json then
          emit_json ~checker:"bdfs" ~violation
            ~stats:
              [
                ("transitions", Dsm.Json.Int o.stats.transitions);
                ("global_states", Dsm.Json.Int o.stats.global_states);
                ("system_states", Dsm.Json.Int o.stats.system_states);
                ("max_depth", Dsm.Json.Int o.stats.max_depth_reached);
                ("domains", Dsm.Json.Int params.domains);
                ( "symmetry",
                  Dsm.Json.String
                    (Dsm.Symmetry.name sym_spec.Dsm.Symmetry.group) );
                ("orbit_hits", Dsm.Json.Int o.stats.orbit_hits);
                ("elapsed_s", Dsm.Json.Float o.stats.elapsed);
                ("completed", Dsm.Json.Bool o.completed);
              ];
        (match violation with
        | Some (_, _, trace) ->
            if not params.json then begin
              Format.printf "VIOLATION: %a@." Dsm.Invariant.pp_violation
                (match o.violation with
                | Some v -> v.violation
                | None -> assert false);
              if params.verbose then pp_violation_trace trace
            end;
            1
        | None ->
            if not params.json then Format.printf "no violation@.";
            0)
    | Lmc_gen | Lmc_opt | Lmc_auto ->
        let strategy =
          match (params.kind, strategy) with
          | Lmc_opt, Some s -> s
          | Lmc_opt, None ->
              if not params.json then
                Format.printf
                  "note: no invariant-specific abstraction for this \
                   protocol; using the general strategy@.";
              L.General
          | Lmc_auto, _ -> L.Automatic
          | _ -> L.General
        in
        let cfg =
          {
            L.default_config with
            max_depth = params.max_depth;
            time_limit = params.time_limit;
            crash_budget = params.crash_budget;
            domains = params.domains;
            verify_domains = params.verify_domains;
            symmetry = orbit_group;
            obs = params.obs;
            trace = params.trace;
          }
        in
        let r = L.run cfg ~strategy ~invariant init in
        if not params.json then
          Format.printf
            "LMC: %d transitions, %d node states, |I+|=%d, %d system \
             states, %d orbit hits, %d preliminary violations (%d \
             rejected), %.3f s, completed=%b@."
            r.transitions r.total_node_states r.net_messages
            r.system_states_created r.orbit_hits r.preliminary_violations
            r.soundness_rejections r.elapsed r.completed;
        let violation =
          Option.map
            (fun (v : L.violation) ->
              let schedule = maybe_minimize ~params ~invariant v.schedule in
              maybe_dot ~params schedule;
              (v.violation.Dsm.Invariant.invariant,
               v.violation.Dsm.Invariant.detail, schedule))
            r.sound_violation
        in
        if params.json then
          emit_json
            ~checker:
              (match params.kind with
              | Lmc_gen -> "lmc-gen"
              | Lmc_opt -> "lmc-opt"
              | Lmc_auto -> "lmc-auto"
              | Bdfs -> assert false)
            ~violation
            ~stats:
              [
                ("transitions", Dsm.Json.Int r.transitions);
                ("node_states", Dsm.Json.Int r.total_node_states);
                ("net_messages", Dsm.Json.Int r.net_messages);
                ("system_states", Dsm.Json.Int r.system_states_created);
                ("preliminary_violations",
                 Dsm.Json.Int r.preliminary_violations);
                ("soundness_rejections", Dsm.Json.Int r.soundness_rejections);
                (* both pools, distinguishable: exploration vs deferred
                   verification *)
                ("domains", Dsm.Json.Int params.domains);
                ("verify_domains", Dsm.Json.Int params.verify_domains);
                ( "symmetry",
                  Dsm.Json.String (Dsm.Symmetry.name orbit_group) );
                ("orbit_hits", Dsm.Json.Int r.orbit_hits);
                ("elapsed_s", Dsm.Json.Float r.elapsed);
                ("completed", Dsm.Json.Bool r.completed);
              ];
        (match violation with
        | Some (_, _, schedule) ->
            if not params.json then begin
              Format.printf "SOUND VIOLATION (%d events): %a@."
                (List.length schedule) Dsm.Invariant.pp_violation
                (match r.sound_violation with
                | Some v -> v.violation
                | None -> assert false);
              if params.verbose then pp_violation_trace schedule
            end;
            1
        | None ->
            if not params.json then Format.printf "no sound violation@.";
            0)

  (* ----- deterministic replay -----

     Two obligations, per the determinism contract (records are emitted
     only from the sequential apply half of every checker):

     1. every [witness] record re-executes to bit-identical per-step
        fingerprints (handled by {!WR});
     2. re-running the recorded exploration — possibly at a different
        --domains count — reproduces the recorded [step] stream byte
        for byte (modulo the wall-clock [ts] field).

     The exploration re-run captures its records in a memory sink and
     diffs them against the file; it is skipped when the original run
     was budget-truncated (a wall-clock limit cuts the stream at a
     non-deterministic point) or when a bounded ring dropped its head. *)
  let replay ?strategy ~invariant ~header ~records ~domains () =
    let wcount, wfail = WR.replay_witnesses records in
    let kind =
      match jstr (jfield "checker" header) with
      | Some "bdfs" -> Some Bdfs
      | Some "lmc-gen" -> Some Lmc_gen
      | Some "lmc-opt" -> Some Lmc_opt
      | Some "lmc-auto" -> Some Lmc_auto
      | _ -> None
    in
    let completed =
      List.fold_left
        (fun acc fields ->
          match ev_of fields with
          | "lmc_end" | "bdfs_end" -> jbool (jfield "completed" fields)
          | _ -> acc)
        None records
    in
    let ring_dropped =
      List.exists
        (fun f ->
          ev_of f = "ring_meta"
          && match jint (jfield "dropped" f) with
             | Some d -> d > 0
             | None -> false)
        records
    in
    let explore_fail =
      match (kind, completed) with
      | _ when ring_dropped ->
          Format.printf
            "exploration: ring buffer dropped early records; witness \
             replay only@.";
          0
      | Some kind, Some true ->
          let recorded =
            List.filter_map
              (fun fields ->
                if ev_of fields = "step" then Some (canonical_record fields)
                else None)
              records
          in
          let domains =
            match domains with
            | Some d -> d
            | None -> Option.value ~default:1 (jint (jfield "domains" header))
          in
          let verify_domains =
            Option.value ~default:1 (jint (jfield "verify_domains" header))
          in
          let max_depth = jint (jfield "max_depth" header) in
          (* Re-run under the recorded symmetry mode: the audit is
             deterministic, so resolving the mode again reproduces the
             group the recording was explored with (reduction changes
             which states are expanded, hence the step stream). *)
          let sym_mode = sym_mode_of_name (jstr (jfield "symmetry" header)) in
          let sym_spec, orbit_group = resolve_symmetry ~invariant sym_mode in
          let sink, captured = Obs.Sink.memory () in
          let trace = Obs.Trace.of_sink sink in
          (* The re-run emits its own framing header so record sequence
             numbers (which provenance links reference) line up with
             the original stream position for position. *)
          ignore
            (Obs.Trace.emit trace ~ev:"run"
               [
                 ("protocol", Dsm.Json.String P.name);
                 ("mode", Dsm.Json.String "replay");
                 ("checker", Dsm.Json.String (checker_name kind));
                 ( "max_depth",
                   match max_depth with
                   | Some d -> Dsm.Json.Int d
                   | None -> Dsm.Json.Null );
                 ("domains", Dsm.Json.Int domains);
                 ("verify_domains", Dsm.Json.Int verify_domains);
                 ("symmetry", Dsm.Json.String (sym_mode_name sym_mode));
               ]);
          let init = Dsm.Protocol.initial_system (module P) in
          (match kind with
          | Bdfs ->
              ignore
                (G.run
                   {
                     G.default_config with
                     max_depth;
                     domains;
                     trace;
                     symmetry = sym_spec;
                   }
                   ~invariant init)
          | _ ->
              let strategy =
                match (kind, strategy) with
                | Lmc_opt, Some s -> s
                | Lmc_auto, _ -> L.Automatic
                | _ -> L.General
              in
              ignore
                (L.run
                   {
                     L.default_config with
                     max_depth;
                     domains;
                     verify_domains;
                     trace;
                     symmetry = orbit_group;
                   }
                   ~strategy ~invariant init));
          Obs.Trace.close trace;
          let replayed =
            List.filter_map
              (fun (e : Obs.Sink.event) ->
                if ev_of e.Obs.Sink.fields = "step" then
                  Some (canonical_record e.Obs.Sink.fields)
                else None)
              (captured ())
          in
          let nr = List.length recorded and np = List.length replayed in
          let rec diff i a b =
            match (a, b) with
            | [], [] -> None
            | x :: a', y :: b' ->
                if String.equal x y then diff (i + 1) a' b'
                else Some (i, Some x, Some y)
            | x :: _, [] -> Some (i, Some x, None)
            | [], y :: _ -> Some (i, None, Some y)
          in
          (match diff 0 recorded replayed with
          | None ->
              Format.printf
                "exploration: re-ran %d transitions at %d domain(s); \
                 record stream bit-identical@."
                np domains;
              0
          | Some (i, a, b) ->
              Format.printf
                "exploration: DIVERGENCE at step record %d (recorded %d \
                 steps, replayed %d)@."
                i nr np;
              let side tag = function
                | Some s -> Format.printf "  %s: %s@." tag s
                | None -> Format.printf "  %s: <absent>@." tag
              in
              side "recorded" a;
              side "replayed" b;
              1)
      | None, _ ->
          Format.printf
            "exploration: no checker kind in the run header; witness \
             replay only@.";
          0
      | Some _, _ ->
          Format.printf
            "exploration: recorded run was budget-truncated; witness \
             replay only@.";
          0
    in
    Format.printf "replay: %d witness(es), %d failure(s)@." wcount wfail;
    if wfail > 0 || explore_fail > 0 then 1 else 0
end

module Hunt_driver
    (Live : Dsm.Protocol.S)
    (Check : Dsm.Protocol.S
               with type state = Live.state
                and type message = Live.message
                and type action = Live.action) =
struct
  module O = Online.Online_mc.Make (Live) (Check)
  module S = Sim.Live_sim.Make (Live)
  module WR = Witness_replayer (Check)
  module SR = Sym_resolver (Check)

  (* Hunt traces segment into wall-clock-budgeted checker restarts, so
     the exploration half is not re-explorable; witnesses, recorded
     with their snapshot starting states, still replay exactly. *)
  let replay_witnesses records =
    let wcount, wfail = WR.replay_witnesses records in
    Format.printf
      "replay: %d witness(es), %d failure(s) (hunt traces replay \
       witnesses only)@."
      wcount wfail;
    if wfail > 0 then 1 else 0

  let run ?strategy ?action_prob ?(faults = Fault.Plan.empty)
      ?(crash_budget = 0) ?restart_budget_ms ?max_retries ?store_dir
      ?(resume = false) ?(symmetry = Sym_off) ~obs ~trace ~invariant ~seed
      ~drop ~interval ~max_live ~budget ~steer ~domains ~verify_domains () =
    (* audited once, up front; every budgeted restart reuses the
       verdict (the protocol does not change between restarts) *)
    let _, orbit_group = SR.resolve ~invariant symmetry in
    let link =
      Net.Lossy_link.create ~drop_prob:drop ~latency_min:0.05 ~latency_max:0.3
        ()
    in
    let supervisor =
      {
        O.default_supervisor with
        O.restart_budget_ms;
        max_retries =
          Option.value max_retries ~default:O.default_supervisor.O.max_retries;
        checksum_snapshots = true;
      }
    in
    let config =
      {
        O.sim = { S.seed; link; timer_min = 2.0; timer_max = 20.0; action_prob; faults };
        check_interval = interval;
        max_live_time = max_live;
        checker =
          {
            O.Checker.default_config with
            time_limit = Some budget;
            max_transitions = Some 100_000;
            crash_budget;
            domains;
            verify_domains;
            symmetry = orbit_group;
            trace;
          };
        action_bounds = [ 1; 2 ];
        steer;
        steer_scope = `Node;
        supervisor;
        store = Option.map (fun dir -> { O.dir; resume }) store_dir;
      }
    in
    let strategy =
      match strategy with Some s -> s | None -> O.Checker.General
    in
    let outcome = O.run ~obs config ~strategy ~invariant in
    (* One greppable line per phase: the soak harness compares the
       cumulative states-explored of kill+resume against cold reruns. *)
    (if store_dir <> None then
       Format.printf "store: states_explored=%d hits=%d resumed_at=%s@."
         outcome.states_explored outcome.store_hits
         (match outcome.resumed_at with
         | Some t -> Printf.sprintf "%.0f" t
         | None -> "cold"));
    (if steer then
       Format.printf
         "steering: %d veto(s) installed; live system %s@."
         (List.length outcome.vetoed)
         (match outcome.live_violation_time with
         | None -> "never violated the invariant"
         | Some t -> Printf.sprintf "violated anyway at t=%.0f s" t));
    match outcome.report with
    | Some report ->
        Format.printf "%a@." O.pp_report report;
        Format.printf "(%d LMC runs, %.2f s total checking time)@."
          outcome.total_checks outcome.total_check_time;
        1
    | None ->
        Format.printf
          "no violation within %.0f simulated seconds (%d LMC runs)@."
          max_live outcome.total_checks;
        0
end

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)
(* ------------------------------------------------------------------ *)

let tree_runner =
  let module T = Protocols.Tree.Make (Protocols.Tree.Paper_config) in
  let module D = Check_driver (T) in
  {
    name = "tree";
    description = "the 5-node forwarding tree of the paper's primer (2)";
    check =
      (fun params ->
        D.run ~invariant:T.received_implies_sent params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module T) ~name:"tree" ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay ~invariant:T.received_implies_sent ~header ~records ~domains
          ());
  }

let chain_runner =
  let module C = Protocols.Chain.Make (struct
    let length = 8
  end) in
  let module D = Check_driver (C) in
  {
    name = "chain";
    description = "8-node sequential forwarding chain (4.3's worst case)";
    check =
      (fun params ->
        D.run ~invariant:C.prefix_closed params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module C) ~name:"chain" ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay ~invariant:C.prefix_closed ~header ~records ~domains ());
  }

let ping_runner =
  let module P = Protocols.Ping.Make (struct
    let num_servers = 2
  end) in
  let module D = Check_driver (P) in
  {
    name = "ping";
    description = "client/2-server request-response micro-protocol";
    check =
      (fun params ->
        D.run ~invariant:P.no_excess_pongs params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module P) ~name:"ping" ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay ~invariant:P.no_excess_pongs ~header ~records ~domains ());
  }

let randtree_runner ~buggy =
  let bug =
    if buggy then Protocols.Randtree.Double_bookkeeping
    else Protocols.Randtree.No_bug
  in
  let module R = Protocols.Randtree.Make (struct
    let num_nodes = 4
    let max_children = 2
    let max_attempts = 1
    let bug = bug
  end) in
  let module D = Check_driver (R) in
  let name = if buggy then "randtree-buggy" else "randtree" in
  {
    name;
    description =
      (if buggy then
         "4-node RandTree overlay with the double-bookkeeping bug"
       else "4-node RandTree overlay (children/siblings disjointness)");
    check =
      (fun params ->
        D.run ~invariant:R.disjointness params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module R) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay ~invariant:R.disjointness ~header ~records ~domains ());
  }

let paxos_runner ~buggy =
  let bug =
    if buggy then Protocols.Paxos_core.Last_response_wins
    else Protocols.Paxos_core.No_bug
  in
  let module Live = Protocols.Paxos.Make (struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 16
    let fresh_proposals = true
    let bug = bug
  end) in
  let module Check = Protocols.Paxos.Make (struct
    let num_nodes = 3
    let proposers = [ 0; 1; 2 ]
    let max_attempts = 2
    let max_index = 16
    let fresh_proposals = false
    let bug = bug
  end) in
  let module Bench = Protocols.Paxos.Make (struct
    include Protocols.Paxos.Bench_config

    let bug = bug
  end) in
  let module D = Check_driver (Bench) in
  let module H = Hunt_driver (Live) (Check) in
  let name = if buggy then "paxos-buggy" else "paxos" in
  {
    name;
    description =
      (if buggy then "3-node Paxos with the 5.5 last-response bug"
       else "3-node Paxos, one proposal (the 5.1 benchmark space)");
    check =
      (fun params ->
        D.run
          ~strategy:
            (D.L.Invariant_specific
               { abstract = Bench.abstraction; conflict = Bench.conflicts })
          ~invariant:Bench.safety params);
    hunt =
      Some
        (fun ~obs ~trace ~seed ~drop ~interval ~max_live ~budget ~steer
             ~faults ~crash_budget ~restart_budget_ms ~max_retries ~store_dir
             ~resume ~symmetry ~domains ~verify_domains ->
          H.run
            ~strategy:
              (H.O.Checker.Invariant_specific
                 { abstract = Check.abstraction; conflict = Check.conflicts })
            ~faults ~crash_budget ?restart_budget_ms ?max_retries ?store_dir ~resume ~symmetry ~obs ~trace
            ~invariant:Check.safety ~seed ~drop ~interval ~max_live ~budget
            ~steer ~domains ~verify_domains ());
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module Bench) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode ~header ~records ~domains ->
        (* hunt witnesses were recorded by the hunt's own Check
           instantiation (fresh_proposals off); dispatch there, not to
           the 5.1 benchmark configuration the check path uses *)
        if mode = "hunt" then H.replay_witnesses records
        else
          D.replay
            ~strategy:
              (D.L.Invariant_specific
                 { abstract = Bench.abstraction; conflict = Bench.conflicts })
            ~invariant:Bench.safety ~header ~records ~domains ());
  }

let onepaxos_runner ~buggy =
  let bug =
    if buggy then Protocols.Onepaxos.Postfix_increment
    else Protocols.Onepaxos.No_bug
  in
  let module OP = Protocols.Onepaxos.Make (struct
    let num_nodes = 3
    let max_leader_claims = 2
    let max_attempts = 1
    let max_index = 12
    let max_util_entries = 3
    let max_util_attempts = 2
    let bug = bug
  end) in
  let module D = Check_driver (OP) in
  let module H = Hunt_driver (OP) (OP) in
  let name = if buggy then "onepaxos-buggy" else "onepaxos" in
  {
    name;
    description =
      (if buggy then "3-node 1Paxos with the 5.6 postfix-increment bug"
       else "3-node 1Paxos over an embedded PaxosUtility");
    check =
      (fun params ->
        D.run
          ~strategy:
            (D.L.Invariant_specific
               { abstract = OP.abstraction; conflict = OP.conflicts })
          ~invariant:OP.safety params);
    hunt =
      Some
        (fun ~obs ~trace ~seed ~drop ~interval ~max_live ~budget ~steer
             ~faults ~crash_budget ~restart_budget_ms ~max_retries ~store_dir
             ~resume ~symmetry ~domains ~verify_domains ->
          H.run
            ~strategy:
              (H.O.Checker.Invariant_specific
                 { abstract = OP.abstraction; conflict = OP.conflicts })
            ~action_prob:(fun _ a ->
              match a with
              | Protocols.Onepaxos.Claim_leadership -> 0.1
              | _ -> 1.0)
            ~faults ~crash_budget ?restart_budget_ms ?max_retries ?store_dir ~resume ~symmetry ~obs ~trace
            ~invariant:OP.safety ~seed ~drop ~interval ~max_live ~budget
            ~steer ~domains ~verify_domains ());
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module OP) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode ~header ~records ~domains ->
        if mode = "hunt" then H.replay_witnesses records
        else
          D.replay
            ~strategy:
              (D.L.Invariant_specific
                 { abstract = OP.abstraction; conflict = OP.conflicts })
            ~invariant:OP.safety ~header ~records ~domains ());
  }

let twophase_runner ~buggy =
  let bug =
    if buggy then Protocols.Twophase.Commit_on_majority
    else Protocols.Twophase.No_bug
  in
  let module T = Protocols.Twophase.Make (struct
    let num_nodes = 4
    let no_voters = [ 2 ]
    let bug = bug
  end) in
  let module D = Check_driver (T) in
  let name = if buggy then "2pc-buggy" else "2pc" in
  {
    name;
    description =
      (if buggy then
         "two-phase commit deciding on a majority instead of unanimity"
       else "two-phase commit, 1 coordinator + 3 participants (one no-voter)");
    check =
      (fun params ->
        D.run
          ~strategy:
            (D.L.Invariant_specific
               { abstract = T.abstraction; conflict = T.conflicts })
          ~invariant:T.atomicity params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module T) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay
          ~strategy:
            (D.L.Invariant_specific
               { abstract = T.abstraction; conflict = T.conflicts })
          ~invariant:T.atomicity ~header ~records ~domains ());
  }

let ring_runner ~buggy =
  let bug =
    if buggy then Protocols.Ring_election.Forward_smaller
    else Protocols.Ring_election.No_bug
  in
  let module R = Protocols.Ring_election.Make (struct
    let num_nodes = 3
    let starters = [ 0; 1 ]
    let bug = bug
  end) in
  let module D = Check_driver (R) in
  let name = if buggy then "ring-buggy" else "ring" in
  {
    name;
    description =
      (if buggy then
         "Chang-Roberts election forwarding losing tokens (two leaders)"
       else "Chang-Roberts leader election on a 3-node ring");
    check =
      (fun params ->
        D.run
          ~strategy:
            (D.L.Invariant_specific
               { abstract = R.abstraction; conflict = R.conflicts })
          ~invariant:R.agreement params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module R) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay
          ~strategy:
            (D.L.Invariant_specific
               { abstract = R.abstraction; conflict = R.conflicts })
          ~invariant:R.agreement ~header ~records ~domains ());
  }

let mutex_runner ~buggy =
  let bug =
    if buggy then Protocols.Token_mutex.Regenerate_token
    else Protocols.Token_mutex.No_bug
  in
  let module M = Protocols.Token_mutex.Make (struct
    let num_nodes = 3
    let contenders = [ 1; 2 ]
    let max_regenerations = 1
    let bug = bug
  end) in
  let module D = Check_driver (M) in
  let name = if buggy then "mutex-buggy" else "mutex" in
  {
    name;
    description =
      (if buggy then
         "token-ring mutual exclusion regenerating an unlost token"
       else "token-ring mutual exclusion, 3 nodes, 2 contenders");
    check =
      (fun params ->
        D.run
          ~strategy:
            (D.L.Invariant_specific
               { abstract = M.abstraction; conflict = M.conflicts })
          ~invariant:M.mutual_exclusion params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module M) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay
          ~strategy:
            (D.L.Invariant_specific
               { abstract = M.abstraction; conflict = M.conflicts })
          ~invariant:M.mutual_exclusion ~header ~records ~domains ());
  }

let abp_runner ~buggy =
  let bug =
    if buggy then Protocols.Alternating_bit.Ignore_bit
    else Protocols.Alternating_bit.No_bug
  in
  let module A = Protocols.Alternating_bit.Make (struct
    let data = [ 10; 20 ]
    let max_retransmits = 1
    let bug = bug
  end) in
  let module FA = Protocols.Fifo.Make (A) in
  let module D = Check_driver (FA) in
  let name = if buggy then "abp-buggy" else "abp" in
  {
    name;
    description =
      (if buggy then
         "alternating-bit over FIFO channels, receiver ignoring the bit"
       else "alternating-bit protocol over FIFO (TCP-like) channels");
    check =
      (fun params ->
        D.run
          ~invariant:(FA.lift_invariant A.prefix_delivery)
          params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module FA) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay
          ~invariant:(FA.lift_invariant A.prefix_delivery)
          ~header ~records ~domains ());
  }

let pb_runner ~buggy =
  let bug =
    if buggy then Protocols.Pb_store.Ack_before_replication
    else Protocols.Pb_store.No_bug
  in
  let module P = Protocols.Pb_store.Make (struct
    let key = 7
    let value = 42
    let bug = bug
  end) in
  let module D = Check_driver (P) in
  let name = if buggy then "pb-store-buggy" else "pb-store" in
  {
    name;
    description =
      (if buggy then
         "primary-backup store acknowledging before replication"
       else "primary-backup store with fail-over reads");
    check =
      (fun params -> D.run ~invariant:P.read_your_writes params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module P) ~name:name ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay ~invariant:P.read_your_writes ~header ~records ~domains ());
  }

(* The fault-injection fixture: correct under every message schedule,
   broken only across a crash-recovery, so the hunt needs [--faults]
   (live crash events) and [--crash-budget] (checker crash events) to
   reach it. *)
let pb_crash_runner =
  let module P = Protocols.Pb_store.Make (struct
    let key = 7
    let value = 42
    let bug = Protocols.Pb_store.Lose_acked_writes_on_recovery
  end) in
  let module D = Check_driver (P) in
  let module H = Hunt_driver (P) (P) in
  let name = "pb-store-crash" in
  {
    name;
    description =
      "primary-backup store losing acked writes on crash-recovery \
       (needs --crash-budget/--faults)";
    check = (fun params -> D.run ~invariant:P.read_your_writes params);
    hunt =
      Some
        (fun ~obs ~trace ~seed ~drop ~interval ~max_live ~budget ~steer
             ~faults ~crash_budget ~restart_budget_ms ~max_retries ~store_dir
             ~resume ~symmetry ~domains ~verify_domains ->
          H.run ~faults ~crash_budget ?restart_budget_ms ?max_retries ?store_dir ~resume ~symmetry ~obs
            ~trace ~invariant:P.read_your_writes ~seed ~drop ~interval
            ~max_live ~budget ~steer ~domains ~verify_domains ());
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module P) ~name ~max_depth ~max_transitions ~sym ());
    replay =
      (fun ~mode ~header ~records ~domains ->
        if mode = "hunt" then H.replay_witnesses records
        else
          D.replay ~invariant:P.read_your_writes ~header ~records ~domains ());
  }

(* The SWIM instances share one constructor: the clean protocol plus
   the two planted-bug variants.  Both bugs hide behind the fault
   plan: [No_suspicion] is harmless until a reorder:/dup: storm ages
   live probes past the checker's widening bounds, and [Ack_race]
   needs a crash-with-recovery of the relay (live crash clauses plus
   --crash-budget for the checker's own crash exploration). *)
let swim_runner bug =
  let module P = Protocols.Swim.Make (struct
    let num_servers = 4
    let bug = bug
  end) in
  let module D = Check_driver (P) in
  let module H = Hunt_driver (P) (P) in
  let name, description =
    match bug with
    | Protocols.Swim.No_bug ->
        ("swim", "4-node SWIM gossip membership (ping-req/suspicion/refutation)")
    | Protocols.Swim.No_suspicion ->
        ( "swim-nosuspect",
          "SWIM declaring death on timeout alone (needs reorder:/dup: \
           faults or link loss; control runs want --drop 0)" )
    | Protocols.Swim.Ack_race ->
        ( "swim-ackrace",
          "SWIM relay losing ack ownership across a crash (needs relay \
           crash:+--crash-budget)" )
  in
  {
    name;
    description;
    check = (fun params -> D.run ~invariant:P.membership_safety params);
    hunt =
      Some
        (fun ~obs ~trace ~seed ~drop ~interval ~max_live ~budget ~steer
             ~faults ~crash_budget ~restart_budget_ms ~max_retries ~store_dir
             ~resume ~symmetry ~domains ~verify_domains ->
          H.run ~faults ~crash_budget ?restart_budget_ms ?max_retries
            ?store_dir ~resume ~symmetry ~obs ~trace
            ~invariant:P.membership_safety ~seed ~drop ~interval ~max_live
            ~budget ~steer ~domains ~verify_domains ());
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module P) ~name ~max_depth ~max_transitions ~sym ());
    replay =
      (fun ~mode ~header ~records ~domains ->
        if mode = "hunt" then H.replay_witnesses records
        else
          D.replay ~invariant:P.membership_safety ~header ~records ~domains ());
  }

(* The genuinely symmetric fixture as a checkable instance: a harmless
   invariant (pairwise progress gap, never violated, slot-symmetric)
   gives `check --symmetry auto` something to orbit-audit, and the
   protocol's full S_3 commutation makes it the B-DFS reduction demo —
   canonicalization collapses permuted interleavings close to n!. *)
let sym_flood_runner =
  let module F = Protocols.Lint_fixtures.Sym_flood in
  let module D = Check_driver (F) in
  let invariant =
    Dsm.Invariant.for_all_pairs ~name:"bounded-progress-gap"
      (fun _ a _ b ->
        if abs (a - b) > 100 then
          Some (Printf.sprintf "progress gap %d" (abs (a - b)))
        else None)
  in
  {
    name = "sym-flood";
    description = "S3-symmetric ping-pong flood (symmetry-reduction demo)";
    check = (fun params -> D.run ~invariant params);
    hunt = None;
    lint =
      (fun ~max_depth ~max_transitions ~sym ->
        lint_protocol (module F) ~name:"sym-flood" ~max_depth
          ~max_transitions ~sym ());
    replay =
      (fun ~mode:_ ~header ~records ~domains ->
        D.replay ~invariant ~header ~records ~domains ());
  }

let runners =
  [
    tree_runner;
    chain_runner;
    ping_runner;
    randtree_runner ~buggy:false;
    randtree_runner ~buggy:true;
    paxos_runner ~buggy:false;
    paxos_runner ~buggy:true;
    onepaxos_runner ~buggy:false;
    onepaxos_runner ~buggy:true;
    twophase_runner ~buggy:false;
    twophase_runner ~buggy:true;
    ring_runner ~buggy:false;
    ring_runner ~buggy:true;
    mutex_runner ~buggy:false;
    mutex_runner ~buggy:true;
    abp_runner ~buggy:false;
    abp_runner ~buggy:true;
    pb_runner ~buggy:false;
    pb_runner ~buggy:true;
    pb_crash_runner;
    swim_runner Protocols.Swim.No_bug;
    swim_runner Protocols.Swim.No_suspicion;
    swim_runner Protocols.Swim.Ack_race;
    sym_flood_runner;
  ]

let find_runner name =
  match List.find_opt (fun r -> r.name = name) runners with
  | Some r -> Ok r
  | None ->
      Error
        (Printf.sprintf "unknown protocol %S; try `lmc_cli list'" name)

(* The planted-defect fixtures are lint-only targets: they exist so
   the suite (and `make lint') can prove each sanitizer class fires,
   and they have no invariant worth model-checking.  The fourth
   component is the fixture's symmetry *claim*, audited whenever the
   lint runs with --symmetry auto (the default) — how the sym-broken
   fixture's defect is reached. *)
let lint_fixtures =
  [
    ( "fixture-nondet",
      "planted defect: hidden counter leaks into a reply payload",
      (module Protocols.Lint_fixtures.Nondet : Dsm.Protocol.S),
      None );
    ( "fixture-noncanon",
      "planted defect: equal states with divergent Marshal sharing",
      (module Protocols.Lint_fixtures.Noncanon : Dsm.Protocol.S),
      None );
    ( "fixture-dead",
      "planted defect: a broadcast message nobody reacts to",
      (module Protocols.Lint_fixtures.Dead_letter : Dsm.Protocol.S),
      None );
    ( "fixture-flaky-recovery",
      "planted defect: an epoch counter leaks into on_recover",
      (module Protocols.Lint_fixtures.Flaky_recovery : Dsm.Protocol.S),
      None );
    ( "fixture-sym-broken",
      "planted defect: claims full symmetry but node 0 counts pings double",
      (module Protocols.Lint_fixtures.Sym_broken : Dsm.Protocol.S),
      Some (Dsm.Symmetry.full 3) );
    ( "fixture-sym-flood",
      "positive control: genuinely S3-symmetric ping-pong flood",
      (module Protocols.Lint_fixtures.Sym_flood : Dsm.Protocol.S),
      Some (Dsm.Symmetry.full 3) );
  ]

let lint_targets =
  List.map (fun r -> (r.name, r.lint)) runners
  @ List.map
      (fun (name, _, m, claim) ->
        ( name,
          fun ~max_depth ~max_transitions ~sym ->
            lint_protocol m ~name ~max_depth ~max_transitions ~sym ?claim () ))
      lint_fixtures

(* ------------------------------------------------------------------ *)
(* Offline run report                                                  *)
(* ------------------------------------------------------------------ *)

(* [lmc report] is protocol-agnostic: it works off the rendered labels
   and fingerprint strings in the trace, never off marshalled protocol
   values, so it can digest a recording from any (possibly future)
   protocol binary. *)
module Report = struct
  type rstep = {
    r_node : int;
    r_kind : string;
    r_label : string;
    r_depth : int;
    r_produced : string list;
  }

  let parse_steps records =
    List.filter_map
      (fun f ->
        if ev_of f <> "step" then None
        else
          Some
            {
              r_node = Option.value ~default:(-1) (jint (jfield "node" f));
              r_kind = Option.value ~default:"?" (jstr (jfield "kind" f));
              r_label = Option.value ~default:"?" (jstr (jfield "label" f));
              r_depth = Option.value ~default:0 (jint (jfield "depth" f));
              r_produced =
                (match jfield "produced" f with
                | Some (Dsm.Json.List l) ->
                    List.filter_map
                      (function Dsm.Json.String s -> Some s | _ -> None)
                      l
                | _ -> []);
            })
      records

  (* "Prepare(1,2)" and "Prepare(2,0)" are the same handler; group by
     the constructor-ish prefix before the first '(' or space. *)
  let family label =
    match String.index_opt label '(' with
    | Some i -> String.sub label 0 i
    | None -> (
        match String.index_opt label ' ' with
        | Some i -> String.sub label 0 i
        | None -> label)

  let bar ?(width = 40) frac =
    let n = int_of_float ((frac *. float_of_int width) +. 0.5) in
    String.make (max 0 (min width n)) '#'

  let pct part total =
    if total <= 0 then 0. else 100. *. float_of_int part /. float_of_int total

  let clip ?(max_len = 46) s =
    if String.length s <= max_len then s
    else String.sub s 0 (max_len - 1) ^ "~"

  let section name = Format.printf "@.== %s ==@." name

  let render_header records =
    section "run";
    List.iter
      (fun f ->
        match ev_of f with
        | "run" ->
            Format.printf
              "protocol %s, mode %s, checker %s, %d domain(s), %d \
               verify domain(s)@."
              (Option.value ~default:"?" (jstr (jfield "protocol" f)))
              (Option.value ~default:"?" (jstr (jfield "mode" f)))
              (Option.value ~default:"?" (jstr (jfield "checker" f)))
              (Option.value ~default:1 (jint (jfield "domains" f)))
              (Option.value ~default:1 (jint (jfield "verify_domains" f)))
        | "ring_meta" ->
            Format.printf
              "ring recording: %d record(s) dropped at the head \
               (capacity %d)@."
              (Option.value ~default:0 (jint (jfield "dropped" f)))
              (Option.value ~default:0 (jint (jfield "capacity" f)))
        | _ -> ())
      records;
    let count ev = List.length (List.filter (fun f -> ev_of f = ev) records) in
    let restarts = count "restart" in
    if restarts > 0 then
      Format.printf "%d checker restart(s) over %d live event(s)@." restarts
        (count "live")

  let render_coverage steps =
    section "handler coverage";
    let tbl : (string * string, int ref) Hashtbl.t = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let key = (family s.r_label, s.r_kind) in
        match Hashtbl.find_opt tbl key with
        | Some r -> incr r
        | None -> Hashtbl.add tbl key (ref 1))
      steps;
    let total = List.length steps in
    let rows =
      Hashtbl.fold (fun (fam, kind) r acc -> (fam, kind, !r) :: acc) tbl []
      |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    in
    if rows = [] then Format.printf "no step records@."
    else begin
      Format.printf "%-24s %-8s %10s %6s@." "HANDLER" "KIND" "STEPS" "%";
      List.iter
        (fun (fam, kind, n) ->
          Format.printf "%-24s %-8s %10d %5.1f%% %s@." (clip ~max_len:24 fam)
            kind n (pct n total)
            (bar ~width:24 (float_of_int n /. float_of_int total)))
        rows;
      let nodes = List.sort_uniq compare (List.map (fun s -> s.r_node) steps) in
      Format.printf "%d handler famil%s exercised across node(s) %s@."
        (List.length rows)
        (if List.length rows = 1 then "y" else "ies")
        (String.concat ", " (List.map string_of_int nodes))
    end

  let render_depth steps =
    section "transitions per depth";
    match steps with
    | [] -> Format.printf "no step records@."
    | _ ->
        let maxd = List.fold_left (fun m s -> max m s.r_depth) 0 steps in
        let counts = Array.make (maxd + 1) 0 in
        List.iter (fun s -> counts.(s.r_depth) <- counts.(s.r_depth) + 1) steps;
        let peak = Array.fold_left max 1 counts in
        Array.iteri
          (fun d n ->
            Format.printf "depth %3d %8d %s@." d n
              (bar ~width:40 (float_of_int n /. float_of_int peak)))
          counts

  (* The shape the paper plots in Fig. 10: |I+| grows monotonically as
     exploration injects fresh messages; sampled at ~20 even points. *)
  let render_iplus steps =
    section "|I+| growth";
    let seen : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
    let sizes =
      List.map
        (fun s ->
          List.iter
            (fun fp ->
              if not (Hashtbl.mem seen fp) then Hashtbl.add seen fp ())
            s.r_produced;
          Hashtbl.length seen)
        steps
      |> Array.of_list
    in
    let n = Array.length sizes in
    if n = 0 then Format.printf "no step records@."
    else begin
      let final = sizes.(n - 1) in
      let samples = min 20 n in
      for i = 1 to samples do
        let idx = (i * n / samples) - 1 in
        Format.printf "step %8d |I+| %7d %s@." (idx + 1) sizes.(idx)
          (bar ~width:40
             (if final = 0 then 0.
              else float_of_int sizes.(idx) /. float_of_int final))
      done;
      Format.printf "%d distinct message(s) injected over %d transition(s)@."
        final n
    end

  let render_phases records =
    section "time attribution";
    let sum name =
      List.fold_left
        (fun acc f ->
          if ev_of f = "phases" then
            acc + Option.value ~default:0 (jint (jfield name f))
          else acc)
        0 records
    in
    let elapsed = sum "elapsed_us" in
    if elapsed = 0 then
      Format.printf "no phase records (was the run recorded to a ring \
                     that dropped them?)@."
    else begin
      let handler = sum "handler_us" in
      let fingerprint = sum "fingerprint_us" in
      let invariant = sum "invariant_us" in
      let soundness = sum "soundness_us" in
      let system_state = sum "system_state_us" in
      (* system_state includes the invariant checks it runs; the
         remainder of the wall clock is exploration bookkeeping and
         (for --domains > 1) pool overhead.  Handler/fingerprint time
         is summed across workers, so it can exceed the wall-clock
         share when parallel. *)
      let explore = max 0 (elapsed - system_state - soundness) in
      let overhead = max 0 (explore - handler - fingerprint) in
      let row name us =
        Format.printf "%-28s %10.3f ms %5.1f%% %s@." name
          (float_of_int us /. 1000.)
          (pct us elapsed)
          (bar ~width:24 (float_of_int us /. float_of_int elapsed))
      in
      row "handler execution" handler;
      row "fingerprinting" fingerprint;
      row "exploration overhead" overhead;
      row "system-state creation" (max 0 (system_state - invariant));
      row "invariant checks" invariant;
      row "soundness verification" soundness;
      Format.printf "%-28s %10.3f ms@." "total wall clock"
        (float_of_int elapsed /. 1000.)
    end

  let render_soundness records =
    section "soundness search";
    let prelim = ref 0
    and rejects_invalid = ref 0
    and rejects_budget = ref 0
    and checks_valid = ref 0
    and checks_invalid = ref 0
    and checks_budget = ref 0
    and witnesses = ref 0
    and by_prefilter = ref 0
    and by_search = ref 0 in
    let add r f name = r := !r + Option.value ~default:0 (jint (jfield name f)) in
    List.iter
      (fun f ->
        match ev_of f with
        | "prelim" -> incr prelim
        | "lmc_end" ->
            add by_prefilter f "soundness_prefilter_rejections";
            add by_search f "soundness_search_rejections"
        | "witness" -> incr witnesses
        | "reject" -> (
            match jstr (jfield "why" f) with
            | Some "budget_exhausted" -> incr rejects_budget
            | _ -> incr rejects_invalid)
        | "soundness" -> (
            match jstr (jfield "verdict" f) with
            | Some "valid" -> incr checks_valid
            | Some "budget_exhausted" -> incr checks_budget
            | _ -> incr checks_invalid)
        | _ -> ())
      records;
    Format.printf
      "%d preliminary violation(s): %d confirmed sound, %d rejected as \
       unsound, %d beyond the interleaving budget@."
      !prelim !witnesses !rejects_invalid !rejects_budget;
    if !by_prefilter + !by_search > 0 then
      Format.printf
        "rejections: %d by the prefilter (a required message nobody \
         produces), %d by the interleaving search@."
        !by_prefilter !by_search;
    if !checks_valid + !checks_invalid + !checks_budget > 0 then
      Format.printf
        "interleaving searches: %d valid, %d invalid, %d budget-capped@."
        !checks_valid !checks_invalid !checks_budget

  (* Pool stats ride in the metrics stream (satellite of PR 2), keyed
     par.tasks.d<i> / par.steals.d<i> / par.qdepth.d<i>. *)
  let render_pool metrics_path =
    match metrics_path with
    | None -> ()
    | Some path ->
        section "exploration pool";
        let metrics = ref [] in
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            try
              while true do
                match Dsm.Json.of_string (input_line ic) with
                | Ok (Dsm.Json.Obj fields) -> (
                    match
                      (jstr (jfield "metric" fields), jfield "value" fields)
                    with
                    | Some name, Some (Dsm.Json.Int v) ->
                        metrics := (name, float_of_int v) :: !metrics
                    | Some name, Some (Dsm.Json.Float v) ->
                        metrics := (name, v) :: !metrics
                    | _ -> ())
                | Ok _ | Error _ -> ()
              done
            with End_of_file -> ());
        let metrics = !metrics in
        let per_domain prefix =
          List.filter_map
            (fun (name, v) ->
              let plen = String.length prefix in
              if
                String.length name > plen
                && String.sub name 0 plen = prefix
              then
                int_of_string_opt
                  (String.sub name plen (String.length name - plen))
                |> Option.map (fun d -> (d, v))
              else None)
            metrics
          |> List.sort compare
        in
        let tasks = per_domain "par.tasks.d" in
        let steals = per_domain "par.steals.d" in
        if tasks = [] then
          Format.printf
            "no par.* metrics in %s (sequential run, or recorded without \
             --metrics-out)@."
            path
        else begin
          let total = List.fold_left (fun a (_, v) -> a +. v) 0. tasks in
          Format.printf "%-8s %12s %12s %12s@." "DOMAIN" "TASKS" "STEALS"
            "SHARE";
          List.iter
            (fun (d, v) ->
              let stolen =
                Option.value ~default:0. (List.assoc_opt d steals)
              in
              Format.printf "d%-7d %12.0f %12.0f %11.1f%%@." d v stolen
                (if total = 0. then 0. else 100. *. v /. total))
            tasks;
          (match List.assoc_opt "par.batches" metrics with
          | Some b -> Format.printf "%.0f parallel batch(es) submitted@." b
          | None -> ())
        end

  (* Fig. 4-style message sequence chart of a recorded witness: one
     lifeline per node, deliveries as arrows, internal actions as
     starred events on their lifeline. *)
  let render_witness_chart idx fields =
    let wsteps =
      match jfield "wsteps" fields with
      | Some (Dsm.Json.List l) ->
          List.filter_map
            (function
              | Dsm.Json.Obj f ->
                  Some
                    ( Option.value ~default:"?" (jstr (jfield "kind" f)),
                      Option.value ~default:0 (jint (jfield "node" f)),
                      Option.value ~default:(-1) (jint (jfield "src" f)),
                      Option.value ~default:"?" (jstr (jfield "label" f)) )
              | _ -> None)
            l
      | _ -> []
    in
    let nodes =
      match jfield "init" fields with
      | Some (Dsm.Json.List l) -> max 1 (List.length l)
      | _ ->
          1
          + List.fold_left
              (fun m (_, node, src, _) -> max m (max node src))
              0 wsteps
    in
    Format.printf "@.-- witness #%d: %s (%s) --@." idx
      (Option.value ~default:"?" (jstr (jfield "invariant" fields)))
      (clip ~max_len:60
         (Option.value ~default:"" (jstr (jfield "detail" fields))));
    let colw = 12 in
    let width = nodes * colw in
    let col n = (n * colw) + (colw / 2) in
    let line () =
      let b = Bytes.make width ' ' in
      for n = 0 to nodes - 1 do
        Bytes.set b (col n) '|'
      done;
      b
    in
    let hdr = Bytes.make width ' ' in
    for n = 0 to nodes - 1 do
      let name = Printf.sprintf "n%d" n in
      String.iteri
        (fun i c ->
          let p = col n - (String.length name / 2) + i in
          if p >= 0 && p < width then Bytes.set hdr p c)
        name
    done;
    Format.printf "%s@." (Bytes.to_string hdr);
    List.iter
      (fun (kind, node, src, label) ->
        let b = line () in
        let ok n = n >= 0 && n < nodes in
        (match kind with
        | "deliver" when ok src && ok node && src <> node ->
            let lo = min (col src) (col node)
            and hi = max (col src) (col node) in
            for i = lo + 1 to hi - 1 do
              Bytes.set b i '-'
            done;
            if node > src then Bytes.set b (hi - 1) '>'
            else Bytes.set b (lo + 1) '<'
        | "deliver" when ok node -> Bytes.set b (col node) 'o'
        | _ -> if ok node then Bytes.set b (col node) '*');
        Format.printf "%s  %s@." (Bytes.to_string b) (clip label))
      wsteps;
    Format.printf "(%d events; * internal action, o self-delivery)@."
      (List.length wsteps)

  (* The sampled-profile sections (profile.v1 records appended to the
     record file by --profile).  Self time per frame is the leaf-frame
     attribution: on the Fig. 10 sweep it names combination checking
     as the dominant phase, the paper's headline cost finding. *)
  let render_profile records =
    let stacks =
      List.filter_map
        (fun f ->
          if ev_of f <> "stack" then None
          else
            let frames =
              match jfield "stack" f with
              | Some (Dsm.Json.List l) ->
                  List.filter_map
                    (function Dsm.Json.String s -> Some s | _ -> None)
                    l
              | _ -> []
            in
            Some
              ( frames,
                Option.value ~default:0 (jint (jfield "us" f)),
                Option.value ~default:0 (jint (jfield "samples" f)) ))
        records
    in
    section "sampled profile";
    (List.iter
       (fun f ->
         if ev_of f = "prof_run" then
           Format.printf
             "%.3f ms attributed across %d stack(s), 1 sample per %d \
              transition tick(s)@."
             (float_of_int
                (Option.value ~default:0 (jint (jfield "clock_us" f)))
             /. 1000.)
             (Option.value ~default:0 (jint (jfield "stacks" f)))
             (Option.value ~default:1 (jint (jfield "sample_every" f))))
       records;
     let total = List.fold_left (fun a (_, us, _) -> a + us) 0 stacks in
     if total = 0 then
       Format.printf "no samples (was the run long enough to tick?)@."
     else begin
       (* Self time: the interval a sample lands in belongs to the
          innermost frame live at that moment. *)
       let self : (string, int ref) Hashtbl.t = Hashtbl.create 16 in
       List.iter
         (fun (frames, us, _) ->
           let leaf =
             match List.rev frames with leaf :: _ -> leaf | [] -> "(idle)"
           in
           match Hashtbl.find_opt self leaf with
           | Some r -> r := !r + us
           | None -> Hashtbl.add self leaf (ref us))
         stacks;
       let rows =
         Hashtbl.fold (fun name r acc -> (name, !r) :: acc) self []
         |> List.sort (fun (_, a) (_, b) -> compare b a)
       in
       Format.printf "%-28s %12s %6s@." "FRAME (self time)" "MS" "%";
       List.iter
         (fun (name, us) ->
           Format.printf "%-28s %12.3f %5.1f%% %s@." (clip ~max_len:28 name)
             (float_of_int us /. 1000.)
             (pct us total)
             (bar ~width:24 (float_of_int us /. float_of_int total)))
         rows;
       let top = 12 in
       Format.printf "@.%-52s %12s %6s@." "HOT STACK" "MS" "%";
       List.iteri
         (fun i (frames, us, _) ->
           if i < top then
             Format.printf "%-52s %12.3f %5.1f%%@."
               (clip ~max_len:52 (String.concat ";" frames))
               (float_of_int us /. 1000.)
               (pct us total))
         (List.sort (fun (_, a, _) (_, b, _) -> compare b a) stacks);
       if List.length stacks > top then
         Format.printf "(%d more stack(s))@." (List.length stacks - top)
     end);
    0

  let render ~records ~metrics_path =
    let steps = parse_steps records in
    render_header records;
    render_coverage steps;
    render_depth steps;
    render_iplus steps;
    render_phases records;
    render_soundness records;
    render_pool metrics_path;
    List.iteri render_witness_chart
      (List.filter (fun f -> ev_of f = "witness") records);
    0
end

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let doc = "List the bundled protocol instances." in
  let run () =
    Format.printf "%-16s %s@." "NAME" "DESCRIPTION";
    List.iter (fun r -> Format.printf "%-16s %s@." r.name r.description) runners;
    Format.printf "@.lint-only targets (`lmc_cli lint'):@.";
    List.iter
      (fun (name, descr, _, _) -> Format.printf "%-16s %s@." name descr)
      lint_fixtures;
    0
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let protocol_arg =
  let doc = "Protocol instance to check (see `list')." in
  Arg.(required & opt (some string) None & info [ "p"; "protocol" ] ~doc)

let checker_arg =
  let doc = "Checker: bdfs, lmc-gen, lmc-opt or lmc-auto." in
  let parse = function
    | "bdfs" -> Ok Bdfs
    | "lmc-gen" -> Ok Lmc_gen
    | "lmc-opt" -> Ok Lmc_opt
    | "lmc-auto" -> Ok Lmc_auto
    | s -> Error (`Msg (Printf.sprintf "unknown checker %S" s))
  in
  let print ppf k =
    Format.pp_print_string ppf
      (match k with
      | Bdfs -> "bdfs"
      | Lmc_gen -> "lmc-gen"
      | Lmc_opt -> "lmc-opt"
      | Lmc_auto -> "lmc-auto")
  in
  Arg.(
    value
    & opt (conv (parse, print)) Lmc_opt
    & info [ "c"; "checker" ] ~doc)

let depth_arg =
  let doc = "Depth bound (events)." in
  Arg.(value & opt (some int) None & info [ "d"; "max-depth" ] ~doc)

let time_arg =
  let doc = "Wall-clock budget in seconds." in
  Arg.(value & opt (some float) (Some 60.0) & info [ "t"; "time-limit" ] ~doc)

let verbose_arg =
  let doc = "Print witness schedules." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let minimize_arg =
  let doc = "Shrink witness schedules with delta debugging before printing." in
  Arg.(value & flag & info [ "m"; "minimize" ] ~doc)

let dot_arg =
  let doc = "Write the witness as a Graphviz sequence chart to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~doc ~docv:"FILE")

let json_arg =
  let doc = "Emit a single JSON object on stdout instead of prose." in
  Arg.(value & flag & info [ "json" ] ~doc)

let metrics_out_arg =
  let doc =
    "Dump the metrics registry (counters, histograms) as JSONL to $(docv) \
     when the run finishes."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

let trace_out_arg =
  let doc =
    "Stream structured events (new node states, preliminary and sound \
     violations, rounds, progress) as JSONL to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~doc ~docv:"FILE")

let progress_arg =
  let doc =
    "Print a progress heartbeat to stderr roughly every $(docv) seconds."
  in
  Arg.(value & opt (some float) None & info [ "progress" ] ~doc ~docv:"SECS")

let record_arg =
  let doc =
    "Flight recorder: append every explored transition, soundness \
     verdict and violation witness as trace.v1 JSONL to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "record" ] ~doc ~docv:"FILE")

let record_ring_arg =
  let doc =
    "Bound the recorder to the last $(docv) records (an in-memory ring \
     dumped at exit) instead of streaming the whole run to the file."
  in
  Arg.(value & opt (some int) None & info [ "record-ring" ] ~doc ~docv:"N")

let serve_arg =
  let doc =
    "Serve live telemetry over HTTP on 127.0.0.1:$(docv) while the run \
     is in flight: /metrics (Prometheus text exposition of the live \
     registry) and /healthz (supervisor tier, restart budget, snapshot \
     age, GC/RSS).  Port 0 picks a free port (printed to stderr)."
  in
  Arg.(value & opt (some int) None & info [ "serve" ] ~doc ~docv:"PORT")

let serve_linger_arg =
  let doc =
    "Keep the --serve endpoint up for $(docv) seconds after the run \
     finishes (and after the final --metrics-out dump), so a scraper \
     can collect the end-of-run values."
  in
  Arg.(value & opt float 0. & info [ "serve-linger" ] ~doc ~docv:"SECS")

let profile_arg =
  let doc =
    "Enable the sampling profiler and append its profile.v1 records to \
     the --record file; read them back with `lmc report --profile'."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let flamegraph_arg =
  let doc =
    "Write the profile as collapsed-stack text ('frame;frame us' per \
     line, flamegraph.pl / inferno / speedscope input) to $(docv).  \
     Implies profiling."
  in
  Arg.(value & opt (some string) None & info [ "flamegraph" ] ~doc ~docv:"FILE")

let speedscope_arg =
  let doc =
    "Write the profile as speedscope JSON to $(docv).  Implies \
     profiling."
  in
  Arg.(value & opt (some string) None & info [ "speedscope" ] ~doc ~docv:"FILE")

let timeseries_arg =
  let doc =
    "Sample every counter and gauge (plus GC and RSS) from the \
     progress-heartbeat tick gate into a bounded ring, dumped as \
     timeseries.v1 JSONL to $(docv) when the run finishes."
  in
  Arg.(value & opt (some string) None & info [ "timeseries" ] ~doc ~docv:"FILE")

let timeseries_interval_arg =
  let doc = "Seconds between --timeseries samples." in
  Arg.(
    value & opt float 1.0 & info [ "timeseries-interval" ] ~doc ~docv:"SECS")

let telemetry_term =
  let mk tel_serve tel_linger tel_profile tel_flamegraph tel_speedscope
      tel_timeseries tel_ts_interval =
    {
      tel_serve;
      tel_linger;
      tel_profile;
      tel_flamegraph;
      tel_speedscope;
      tel_timeseries;
      tel_ts_interval;
    }
  in
  Term.(
    const mk $ serve_arg $ serve_linger_arg $ profile_arg $ flamegraph_arg
    $ speedscope_arg $ timeseries_arg $ timeseries_interval_arg)

(* Like make_scope: unwritable paths must fail before the run starts. *)
let make_trace ~record ~record_ring =
  match record with
  | None ->
      if record_ring <> None then begin
        Printf.eprintf "lmc_cli: --record-ring requires --record\n%!";
        exit 2
      end;
      (Obs.Trace.null, fun () -> ())
  | Some path ->
      let t =
        try
          match record_ring with
          | Some cap when cap < 1 ->
              Printf.eprintf "lmc_cli: --record-ring must be >= 1\n%!";
              exit 2
          | Some cap -> Obs.Trace.ring ~capacity:cap path
          | None -> Obs.Trace.to_file path
        with Sys_error msg ->
          Printf.eprintf "lmc_cli: %s\n%!" msg;
          exit 2
      in
      (t, fun () -> Obs.Trace.close t)

(* The CLI frames each recording with [run]/[end] records; the header
   carries what `lmc replay' needs to re-run the exploration. *)
let emit_run_header trace ~protocol ~mode ~checker ~max_depth ~domains
    ~verify_domains ~symmetry =
  if Obs.Trace.enabled trace then
    ignore
      (Obs.Trace.emit trace ~ev:"run"
         [
           ("protocol", Dsm.Json.String protocol);
           ("mode", Dsm.Json.String mode);
           ("checker", Dsm.Json.String checker);
           ( "max_depth",
             match max_depth with
             | Some d -> Dsm.Json.Int d
             | None -> Dsm.Json.Null );
           ("domains", Dsm.Json.Int domains);
           ("verify_domains", Dsm.Json.Int verify_domains);
           ("symmetry", Dsm.Json.String (sym_mode_name symmetry));
         ])

let emit_run_end trace code =
  if Obs.Trace.enabled trace then
    ignore (Obs.Trace.emit trace ~ev:"end" [ ("exit", Dsm.Json.Int code) ])

(* Positive domain counts; anything below 1 is a usage error, reported
   through cmdliner rather than as a runtime invalid_arg. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some n -> Error (`Msg (Printf.sprintf "%d is not a valid count; must be >= 1" n))
    | None -> Error (`Msg (Printf.sprintf "%S is not an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let domains_arg =
  let doc =
    "Worker domains for state exploration.  1 (the default) keeps the \
     sequential path; N > 1 fans the pure half of each transition batch \
     across a work-stealing pool with verdicts identical to a sequential \
     run."
  in
  Arg.(value & opt pos_int 1 & info [ "domains" ] ~doc ~docv:"N")

let verify_domains_arg =
  let doc =
    "Worker domains for deferred soundness verification (LMC checkers \
     only; independent of --domains)."
  in
  Arg.(value & opt pos_int 1 & info [ "verify-domains" ] ~doc ~docv:"N")

let crash_budget_arg =
  let doc =
    "Crash-recovery events the checker explores per node path (0 \
     disables the crash pass entirely)."
  in
  Arg.(value & opt int 0 & info [ "crash-budget" ] ~doc ~docv:"N")

(* --symmetry MODE.  Named groups are validated here for spelling; the
   degree-dependent group is built per protocol at resolution time. *)
let sym_mode_conv =
  let parse = function
    | "auto" -> Ok Sym_auto
    | "off" | "id" | "identity" -> Ok Sym_off
    | s -> (
        match Dsm.Symmetry.of_name s ~degree:2 with
        | Some _ -> Ok (Sym_group s)
        | None ->
            Error
              (`Msg
                (Printf.sprintf
                   "unknown symmetry mode %S; use auto, off, full or rot" s)))
  in
  let print ppf = function
    | Sym_off -> Format.pp_print_string ppf "off"
    | Sym_auto -> Format.pp_print_string ppf "auto"
    | Sym_group s -> Format.pp_print_string ppf s
  in
  Arg.conv (parse, print)

let symmetry_arg =
  let doc =
    "Symmetry reduction: $(b,off) (the default; bit-identical to \
     builds without the feature), $(b,auto) (infer candidate \
     role-permutation groups and exploit whatever survives the \
     commutation/orbit audits), or a named group ($(b,full), \
     $(b,rot)) audited as a claim.  A claim that fails its audit is \
     rejected with a warning and the run falls back to identity — no \
     reduction is ever applied unaudited."
  in
  Arg.(value & opt sym_mode_conv Sym_off & info [ "symmetry" ] ~doc ~docv:"MODE")

let check_cmd =
  let doc = "Model-check a protocol offline from its initial state." in
  let run protocol checker max_depth time_limit crash_budget verbose minimize
      dot json metrics_out trace_out progress domains verify_domains symmetry
      record record_ring telemetry =
    match find_runner protocol with
    | Error e ->
        prerr_endline e;
        2
    | Ok r ->
        let obs, finish =
          make_scope ~telemetry ?record ~metrics_out ~trace_out ~progress ()
        in
        let trace, finish_trace = make_trace ~record ~record_ring in
        Fun.protect
          ~finally:(fun () ->
            finish_trace ();
            finish ())
          (fun () ->
            emit_run_header trace ~protocol ~mode:"check"
              ~checker:(checker_name checker) ~max_depth ~domains
              ~verify_domains ~symmetry;
            let code =
              r.check
                { kind = checker; max_depth; time_limit; crash_budget;
                  verbose; minimize; dot; json; obs; domains; verify_domains;
                  symmetry; trace }
            in
            emit_run_end trace code;
            code)
  in
  Cmd.v
    (Cmd.info "check" ~doc)
    Term.(
      const run $ protocol_arg $ checker_arg $ depth_arg $ time_arg
      $ crash_budget_arg $ verbose_arg $ minimize_arg $ dot_arg $ json_arg
      $ metrics_out_arg $ trace_out_arg $ progress_arg $ domains_arg
      $ verify_domains_arg $ symmetry_arg $ record_arg $ record_ring_arg
      $ telemetry_term)

let seed_arg =
  let doc = "Simulation seed." in
  Arg.(value & opt int 7 & info [ "s"; "seed" ] ~doc)

let drop_arg =
  let doc = "Non-loopback message drop probability." in
  Arg.(value & opt float 0.3 & info [ "drop" ] ~doc)

let interval_arg =
  let doc = "Simulated seconds between checker restarts." in
  Arg.(value & opt float 30.0 & info [ "interval" ] ~doc)

let max_live_arg =
  let doc = "Give up after this much simulated time." in
  Arg.(value & opt float 3600.0 & info [ "max-live" ] ~doc)

let budget_arg =
  let doc = "Wall-clock budget per checker restart (seconds)." in
  Arg.(value & opt float 5.0 & info [ "budget" ] ~doc)

let steer_arg =
  let doc =
    "Execution steering: veto predicted violation triggers in the live \
     system and keep running instead of stopping at the first report."
  in
  Arg.(value & flag & info [ "steer" ] ~doc)

(* Parse --faults through the plan DSL so a bad clause is a usage
   error with the parser's own diagnostic, not a runtime failure. *)
let fault_plan_conv =
  let parse s =
    match Fault.Plan.of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Fault.Plan.pp)

let faults_arg =
  let doc =
    "Fault plan injected into the live simulation: semicolon-separated \
     clauses, e.g. \
     'crash:node=0,at=40,recover=60,persist=hook;dup:p=0.1'.  Same seed \
     + same plan replays bit-identically."
  in
  Arg.(
    value
    & opt fault_plan_conv Fault.Plan.empty
    & info [ "faults" ] ~doc ~docv:"PLAN")

let restart_budget_ms_arg =
  let doc =
    "Supervisor wall-clock budget per checker restart; restarts that \
     consume it degrade the next one (shrink depth, prune harder, defer \
     soundness) instead of stalling the loop."
  in
  Arg.(
    value & opt (some int) None & info [ "restart-budget-ms" ] ~doc ~docv:"MS")

let max_retries_arg =
  let doc =
    "Supervisor retries per restart when the checker fails, with \
     jittered exponential backoff."
  in
  Arg.(value & opt (some int) None & info [ "max-retries" ] ~doc ~docv:"N")

let store_arg =
  let doc =
    "Persist the hunt's stores (per-node states, I+, clean \
     combinations) in mmap'd files under $(docv), checkpointed after \
     every snapshot check.  See --resume."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~doc ~docv:"DIR")

let resume_arg =
  let doc =
    "Warm-start from the checkpoint in --store: fast-forward the \
     deterministic simulation to the saved live time and skip every \
     combination an earlier phase proved invariant-clean.  A corrupt \
     or mismatched checkpoint degrades to a cold start."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let hunt_cmd =
  let doc =
    "Run a simulated lossy deployment with periodic LMC restarts (online \
     model checking, 3.3)."
  in
  let run protocol seed drop interval max_live budget steer faults
      crash_budget restart_budget_ms max_retries store_dir resume symmetry
      metrics_out trace_out progress domains verify_domains record
      record_ring telemetry =
    if resume && store_dir = None then begin
      prerr_endline "lmc_cli: --resume requires --store DIR";
      exit 2
    end;
    match find_runner protocol with
    | Error e ->
        prerr_endline e;
        2
    | Ok { hunt = None; _ } ->
        prerr_endline "this protocol has no online-hunt setup";
        2
    | Ok { hunt = Some h; _ } ->
        let obs, finish =
          make_scope ~telemetry ?record ~metrics_out ~trace_out ~progress ()
        in
        let trace, finish_trace = make_trace ~record ~record_ring in
        Fun.protect
          ~finally:(fun () ->
            finish_trace ();
            finish ())
          (fun () ->
            emit_run_header trace ~protocol ~mode:"hunt" ~checker:"lmc"
              ~max_depth:None ~domains ~verify_domains ~symmetry;
            let code =
              h ~obs ~trace ~seed ~drop ~interval ~max_live ~budget ~steer
                ~faults ~crash_budget ~restart_budget_ms ~max_retries
                ~store_dir ~resume ~symmetry ~domains ~verify_domains
            in
            emit_run_end trace code;
            code)
  in
  Cmd.v
    (Cmd.info "hunt" ~doc)
    Term.(
      const run $ protocol_arg $ seed_arg $ drop_arg $ interval_arg
      $ max_live_arg $ budget_arg $ steer_arg $ faults_arg
      $ crash_budget_arg $ restart_budget_ms_arg $ max_retries_arg
      $ store_arg $ resume_arg $ symmetry_arg $ metrics_out_arg
      $ trace_out_arg $ progress_arg $ domains_arg $ verify_domains_arg
      $ record_arg $ record_ring_arg $ telemetry_term)

let trace_file_arg =
  let doc = "A trace.v1 JSONL file produced by --record." in
  Arg.(required & pos 0 (some string) None & info [] ~doc ~docv:"TRACE")

let replay_cmd =
  let doc =
    "Re-execute a flight-recorder file transition by transition; exits \
     non-zero on any fingerprint divergence."
  in
  let replay_domains_arg =
    let doc =
      "Re-run the exploration at $(docv) worker domains (default: the \
       recorded count).  The record stream must stay bit-identical \
       either way."
    in
    Arg.(value & opt (some pos_int) None & info [ "domains" ] ~doc ~docv:"N")
  in
  let run file domains =
    match (try Ok (load_trace file) with Sys_error msg -> Error msg) with
    | Error msg ->
        Printf.eprintf "lmc_cli: %s\n%!" msg;
        2
    | Ok records -> (
        match List.find_opt (fun f -> ev_of f = "run") records with
        | None ->
            Printf.eprintf
              "lmc_cli: %s: no run header; was it recorded with --record?\n%!"
              file;
            2
        | Some header -> (
            let mode =
              Option.value ~default:"check" (jstr (jfield "mode" header))
            in
            match jstr (jfield "protocol" header) with
            | None ->
                Printf.eprintf "lmc_cli: %s: run header names no protocol\n%!"
                  file;
                2
            | Some protocol -> (
                match find_runner protocol with
                | Error e ->
                    prerr_endline e;
                    2
                | Ok r -> r.replay ~mode ~header ~records ~domains)))
  in
  Cmd.v (Cmd.info "replay" ~doc)
    Term.(const run $ trace_file_arg $ replay_domains_arg)

let lint_cmd =
  let doc =
    "Run the protocol sanitizers (determinism, digest canonicality, \
     enabled_actions purity, dead-constructor coverage) over bundled \
     protocol instances."
  in
  let protocol_opt_arg =
    let doc = "Protocol instance to lint (see `list'; includes fixtures)." in
    Arg.(value & opt (some string) None & info [ "p"; "protocol" ] ~doc)
  in
  let all_arg =
    let doc = "Lint every bundled instance, fixtures included." in
    Arg.(value & flag & info [ "all" ] ~doc)
  in
  let transitions_arg =
    let doc = "Handler-invocation budget per protocol." in
    Arg.(
      value & opt pos_int 20_000 & info [ "max-transitions" ] ~doc ~docv:"N")
  in
  let out_arg =
    let doc = "Stream findings as lint.v1 JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let allow_arg =
    let doc =
      "Allowlist of expected findings (JSONL: protocol/kind/subject \
       objects, # comments).  The exit code then reflects the \
       reconciliation: unexpected findings or stale entries fail."
    in
    Arg.(value & opt (some string) None & info [ "allow" ] ~doc ~docv:"FILE")
  in
  let lint_symmetry_arg =
    let doc =
      "Symmetry audit mode: $(b,auto) (the default: audit each \
       target's own claim if it has one, silently infer otherwise), \
       $(b,off) (sanitizers only), or a named group ($(b,full), \
       $(b,rot)) claimed for every target."
    in
    Arg.(
      value & opt sym_mode_conv Sym_auto & info [ "symmetry" ] ~doc ~docv:"MODE")
  in
  let run protocol all max_depth max_transitions out allow sym =
    let targets =
      match (protocol, all) with
      | Some _, true -> Error "use either -p or --all, not both"
      | None, false -> Error "name a protocol with -p, or pass --all"
      | None, true -> Ok lint_targets
      | Some name, false -> (
          match List.assoc_opt name lint_targets with
          | Some l -> Ok [ (name, l) ]
          | None ->
              Error
                (Printf.sprintf "unknown protocol %S; try `lmc_cli list'"
                   name))
    in
    let allowlist =
      match allow with
      | None -> Ok []
      | Some path ->
          Result.map_error
            (fun e -> Printf.sprintf "%s: %s" path e)
            (Lint.Report.load_allowlist path)
    in
    match (targets, allowlist) with
    | Error e, _ | _, Error e ->
        Printf.eprintf "lmc_cli: %s\n%!" e;
        2
    | Ok targets, Ok allow ->
        let emitter, close_sink =
          match out with
          | None -> (Lint.Report.null, fun () -> ())
          | Some path -> (
              match Obs.Sink.jsonl_file path with
              | sink -> (Lint.Report.to_sink sink, fun () -> Obs.Sink.close sink)
              | exception Sys_error msg ->
                  Printf.eprintf "lmc_cli: %s\n%!" msg;
                  exit 2)
        in
        Fun.protect ~finally:close_sink (fun () ->
            Format.printf "%-18s %8s %8s %8s %10s  %s@." "PROTOCOL" "STATES"
              "TRANS" "PROBES" "TIME" "FINDINGS";
            let results =
              List.map
                (fun (name, l) ->
                  Lint.Report.emit_start emitter ~protocol:name ~max_depth
                    ~max_transitions;
                  let r = l ~max_depth ~max_transitions ~sym in
                  List.iter (Lint.Report.emit_finding emitter) r.l_findings;
                  Lint.Report.emit_end emitter ~protocol:name
                    ~findings:(List.length r.l_findings)
                    ~transitions:r.l_transitions ~states:r.l_states
                    ~elapsed_s:r.l_elapsed;
                  Format.printf "%-18s %8d %8d %8d %9.3fs  %d%s@." name
                    r.l_states r.l_transitions r.l_probes r.l_elapsed
                    (List.length r.l_findings)
                    (if r.l_completed then "" else " (budget-truncated)");
                  List.iter
                    (fun f ->
                      Format.printf "  %a@." Lint.Report.pp_finding f)
                    r.l_findings;
                  r)
                targets
            in
            let findings = List.concat_map (fun r -> r.l_findings) results in
            let { Lint.Report.unexpected; stale } =
              Lint.Report.reconcile ~allow
                ~linted:(List.map (fun r -> r.l_name) results)
                findings
            in
            match (unexpected, stale) with
            | [], [] ->
                Format.printf
                  "lint: %d protocol(s), %d finding(s), all allowlisted@."
                  (List.length results) (List.length findings);
                0
            | _ ->
                List.iter
                  (fun f ->
                    Format.printf "UNEXPECTED %a@." Lint.Report.pp_finding f)
                  unexpected;
                List.iter
                  (fun (e : Lint.Report.allow_entry) ->
                    Format.printf
                      "STALE allowlist entry %s: %s: %s (not found; drop it \
                       or fix the lint)@."
                      e.a_protocol
                      (Lint.Report.kind_to_string e.a_kind)
                      e.a_subject)
                  stale;
                1)
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run $ protocol_opt_arg $ all_arg $ depth_arg $ transitions_arg
      $ out_arg $ allow_arg $ lint_symmetry_arg)

let report_cmd =
  let doc =
    "Render an offline run report (handler coverage, depth and |I+| \
     curves, per-phase time attribution, pool utilization, witness \
     sequence charts) from recorded trace/metrics streams."
  in
  let metrics_arg =
    let doc = "Metrics JSONL (from --metrics-out) for pool statistics." in
    Arg.(
      value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")
  in
  let report_profile_arg =
    let doc =
      "Also render the sampled profile (self time per frame, hottest \
       stacks) from the profile.v1 records a --profile run appended to \
       the file."
    in
    Arg.(value & flag & info [ "profile" ] ~doc)
  in
  let run file metrics_path profile =
    match (try Ok (load_trace file) with Sys_error msg -> Error msg) with
    | Error msg ->
        Printf.eprintf "lmc_cli: %s\n%!" msg;
        2
    | Ok records -> (
        let prof_records =
          if profile then load_records ~schema:Obs.Prof.schema file else []
        in
        if profile && prof_records = [] then begin
          Printf.eprintf
            "lmc_cli: %s: no profile.v1 records (was the run recorded \
             with --profile?)\n\
             %!"
            file;
          2
        end
        else if records = [] && not profile then begin
          Printf.eprintf "lmc_cli: %s: no trace.v1 records\n%!" file;
          2
        end
        else
          try
            let code =
              if records = [] then 0 else Report.render ~records ~metrics_path
            in
            if profile then
              max code (Report.render_profile prof_records)
            else code
          with Sys_error msg ->
            Printf.eprintf "lmc_cli: %s\n%!" msg;
            2)
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ trace_file_arg $ metrics_arg $ report_profile_arg)

(* ------------------------------------------------------------------ *)
(* Named scenarios                                                     *)
(* ------------------------------------------------------------------ *)

(* The bundled suite.  The scenario layer (lib/sim/scenario.ml) is
   protocol-generic; the concrete closures live here because only the
   CLI sees both the protocol registry and the online checker.  Every
   scenario is a pure value — name, seed, plan and expected verdict
   are fixed, so the same scenario replays bit-identically at any
   --domains count. *)

let parse_plan ~name plan =
  if plan = "" then Fault.Plan.empty
  else
    match Fault.Plan.of_string plan with
    | Ok p -> p
    | Error e -> invalid_arg (Printf.sprintf "scenario %s: %s" name e)

let popcount membership =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 membership

(* Membership events the plan schedules, for the hunt-side report
   (soaks count executed churn from the simulator itself). *)
let plan_churn faults =
  List.length
    (List.filter
       (fun (_, ev) ->
         match ev with
         | `Join _ | `Leave _ -> true
         | `Crash _ | `Recover _ -> false)
       (Fault.Plan.node_events faults))

let swim_soak ~name ~description ~nodes ~seed ~plan ?(drop = 0.1)
    ?(check_every = 5.) ~duration () =
  let faults = parse_plan ~name plan in
  {
    Sim.Scenario.name;
    description;
    protocol = "swim";
    nodes;
    seed;
    plan;
    kind = Sim.Scenario.Soak;
    expected = Sim.Scenario.Clean;
    run =
      (fun ~domains:_ ->
        let module P = Protocols.Swim.Make (struct
          let num_servers = nodes
          let bug = Protocols.Swim.No_bug
        end) in
        let module K = Sim.Scenario.Soak (P) in
        let link =
          Net.Lossy_link.create ~drop_prob:drop ~latency_min:0.05
            ~latency_max:0.3 ()
        in
        K.run ~check_every ~invariant:P.membership_safety ~duration
          {
            K.S.seed;
            link;
            timer_min = 2.0;
            timer_max = 20.0;
            action_prob = None;
            faults;
          });
  }

let ping_soak ~name ~description ~seed ~plan ~duration () =
  let faults = parse_plan ~name plan in
  {
    Sim.Scenario.name;
    description;
    protocol = "ping";
    nodes = 3;
    seed;
    plan;
    kind = Sim.Scenario.Soak;
    expected = Sim.Scenario.Clean;
    run =
      (fun ~domains:_ ->
        let module P = Protocols.Ping.Make (struct
          let num_servers = 2
        end) in
        let module K = Sim.Scenario.Soak (P) in
        let link =
          Net.Lossy_link.create ~drop_prob:0.2 ~latency_min:0.05
            ~latency_max:0.3 ()
        in
        K.run ~invariant:P.no_excess_pongs ~duration
          {
            K.S.seed;
            link;
            timer_min = 2.0;
            timer_max = 20.0;
            action_prob = None;
            faults;
          });
  }

let pb_soak ~name ~description ~seed ~plan ~duration () =
  let faults = parse_plan ~name plan in
  {
    Sim.Scenario.name;
    description;
    protocol = "pb-store";
    nodes = 3;
    seed;
    plan;
    kind = Sim.Scenario.Soak;
    expected = Sim.Scenario.Clean;
    run =
      (fun ~domains:_ ->
        let module P = Protocols.Pb_store.Make (struct
          let key = 7
          let value = 42
          let bug = Protocols.Pb_store.No_bug
        end) in
        let module K = Sim.Scenario.Soak (P) in
        let link =
          Net.Lossy_link.create ~drop_prob:0.2 ~latency_min:0.05
            ~latency_max:0.3 ()
        in
        K.run ~invariant:P.read_your_writes ~duration
          {
            K.S.seed;
            link;
            timer_min = 2.0;
            timer_max = 20.0;
            action_prob = None;
            faults;
          });
  }

(* Hunt-kind scenarios drive the full online checker, same shape as
   `lmc hunt' but with the scenario's fixed knobs.  The checker's
   crash budget mirrors the plan: a scenario whose plan crashes the
   relay also lets the checker explore one crash per node path. *)
let swim_hunt ~name ~description ~bug ~protocol ~seed ~plan ~drop
    ~crash_budget ~interval ~max_live ~budget ~expected () =
  let nodes = 4 in
  let faults = parse_plan ~name plan in
  {
    Sim.Scenario.name;
    description;
    protocol;
    nodes;
    seed;
    plan;
    kind = Sim.Scenario.Hunt;
    expected;
    run =
      (fun ~domains ->
        let module P = Protocols.Swim.Make (struct
          let num_servers = nodes
          let bug = bug
        end) in
        let module O = Online.Online_mc.Make (P) (P) in
        let module S = Sim.Live_sim.Make (P) in
        let link =
          Net.Lossy_link.create ~drop_prob:drop ~latency_min:0.05
            ~latency_max:0.3 ()
        in
        let config =
          {
            O.sim =
              {
                S.seed;
                link;
                timer_min = 2.0;
                timer_max = 20.0;
                action_prob = None;
                faults;
              };
            check_interval = interval;
            max_live_time = max_live;
            checker =
              {
                O.Checker.default_config with
                time_limit = Some budget;
                max_transitions = Some 100_000;
                crash_budget;
                domains;
              };
            action_bounds = [ 1; 2 ];
            steer = false;
            steer_scope = `Node;
            supervisor =
              { O.default_supervisor with checksum_snapshots = true };
            store = None;
          }
        in
        let outcome =
          O.run config ~strategy:O.Checker.General
            ~invariant:P.membership_safety
        in
        let fleet = popcount outcome.O.membership in
        let churn = plan_churn faults in
        match outcome.O.report with
        | Some r ->
            let v = r.O.violation.O.Checker.violation in
            {
              Sim.Scenario.verdict = Sim.Scenario.Violation;
              detail =
                Printf.sprintf "%s: %s (witness %d event(s) at t=%.0f)"
                  v.Dsm.Invariant.invariant v.Dsm.Invariant.detail
                  r.O.violation.O.Checker.system_depth r.O.live_time;
              steps = outcome.O.states_explored;
              churn;
              fleet;
            }
        | None ->
            {
              Sim.Scenario.verdict = Sim.Scenario.Clean;
              detail = "";
              steps = outcome.O.states_explored;
              churn;
              fleet;
            });
  }

let scenario_suite () =
  [
    swim_soak ~name:"churn-storm"
      ~description:
        "8-node SWIM fleet under join/leave waves with a crash-recovery \
         in the middle"
      ~nodes:8 ~seed:11
      ~plan:
        "join:node=6,at=15;leave:node=2,at=20;leave:node=5,at=25;\
         crash:node=1,at=30,recover=45;join:node=2,at=50;leave:node=7,at=70;\
         join:node=5,at=80"
      ~duration:120. ();
    ping_soak ~name:"partition-heal"
      ~description:
        "client/2-server ping under a 40 s partition that heals mid-run"
      ~seed:3 ~plan:"part:from=20,until=60,cut=0+1/2" ~duration:120. ();
    pb_soak ~name:"crash-recover-waves"
      ~description:
        "primary-backup store through three crash-recovery waves"
      ~seed:5
      ~plan:
        "crash:node=0,at=20,recover=30;crash:node=1,at=45,recover=60;\
         crash:node=0,at=80,recover=95"
      ~duration:120. ();
    swim_soak ~name:"skewed-load"
      ~description:
        "6-node SWIM under open-loop client load, 4/s bursting then \
         trickling, with one departure"
      ~nodes:6 ~seed:19
      ~plan:"load:rate=4,from=5,until=60;load:rate=1,from=70,until=110;\
             leave:node=4,at=40"
      ~duration:120. ();
    swim_soak ~name:"churn-500"
      ~description:
        "500-node SWIM fleet absorbing join/leave churn (scale soak)"
      ~nodes:500 ~seed:23
      ~plan:
        "leave:node=17,at=10;leave:node=230,at=15;join:node=499,at=5;\
         leave:node=400,at=20;join:node=17,at=35;leave:node=88,at=40;\
         join:node=230,at=50"
      ~drop:0.05 ~check_every:10. ~duration:60. ();
    swim_hunt ~name:"nosuspect-storm"
      ~description:
        "no-suspicion SWIM under an ack-delaying reorder/dup storm \
         (expected: false-positive death verdict)"
      ~bug:Protocols.Swim.No_suspicion ~protocol:"swim-nosuspect" ~seed:11
      ~plan:"reorder:p=0.8,window=40;dup:p=0.3" ~drop:0.0 ~crash_budget:0
      ~interval:15. ~max_live:600. ~budget:2.0
      ~expected:Sim.Scenario.Violation ();
    swim_hunt ~name:"nosuspect-calm"
      ~description:
        "no-suspicion SWIM on a calm network (control: the bug stays \
         latent without the storm)"
      ~bug:Protocols.Swim.No_suspicion ~protocol:"swim-nosuspect" ~seed:11
      ~plan:"" ~drop:0.0 ~crash_budget:0 ~interval:15. ~max_live:60.
      ~budget:1.0 ~expected:Sim.Scenario.Clean ();
    swim_hunt ~name:"ackrace-crash"
      ~description:
        "ack-race SWIM with the relay crash-recovering mid-duty \
         (expected: phantom forwarded ack)"
      ~bug:Protocols.Swim.Ack_race ~protocol:"swim-ackrace" ~seed:5
      ~plan:
        "crash:node=2,at=30,recover=45;crash:node=2,at=120,recover=135;\
         crash:node=2,at=240,recover=255"
      ~drop:0.3 ~crash_budget:1 ~interval:15. ~max_live:900. ~budget:2.0
      ~expected:Sim.Scenario.Violation ();
    swim_hunt ~name:"ackrace-calm"
      ~description:
        "ack-race SWIM with no crashes (control: the stale seq is never \
         armed)"
      ~bug:Protocols.Swim.Ack_race ~protocol:"swim-ackrace" ~seed:5 ~plan:""
      ~drop:0.3 ~crash_budget:0 ~interval:15. ~max_live:60. ~budget:1.0
      ~expected:Sim.Scenario.Clean ();
  ]

let scenario_cmd =
  let doc =
    "Run named workload + fault-plan scenario bundles (churn storms, \
     partition-heal, crash waves, skewed load, planted-SWIM hunts) with \
     expected verdicts."
  in
  let list_flag =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the bundled scenarios and exit.")
  in
  let run_name_arg =
    let doc = "Run a single scenario by name." in
    Arg.(value & opt (some string) None & info [ "run" ] ~doc ~docv:"NAME")
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Run every bundled scenario; the exit code is 0 iff every \
             verdict matches its expectation.")
  in
  let scenario_out_arg =
    let doc = "Stream scenario.v1 JSONL records to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let run list_ run_name all_ out domains =
    let suite = scenario_suite () in
    if list_ then begin
      Format.printf "%-18s %-5s %-14s %6s %-10s %s@." "NAME" "KIND"
        "PROTOCOL" "NODES" "EXPECTED" "DESCRIPTION";
      List.iter
        (fun (s : Sim.Scenario.t) ->
          Format.printf "%-18s %-5s %-14s %6d %-10s %s@." s.name
            (Sim.Scenario.kind_to_string s.kind)
            s.protocol s.nodes
            (Sim.Scenario.verdict_to_string s.expected)
            s.description)
        suite;
      0
    end
    else
      let chosen =
        match (run_name, all_) with
        | Some _, true -> Error "use either --run or --all, not both"
        | None, false -> Error "pass --list, --run NAME or --all"
        | None, true -> Ok suite
        | Some name, false -> (
            match
              List.find_opt (fun (s : Sim.Scenario.t) -> s.name = name) suite
            with
            | Some s -> Ok [ s ]
            | None ->
                Error
                  (Printf.sprintf
                     "unknown scenario %S; try `lmc_cli scenario --list'"
                     name))
      in
      match chosen with
      | Error e ->
          Printf.eprintf "lmc_cli: %s\n%!" e;
          2
      | Ok scenarios -> (
          let events, close_sink =
            match out with
            | None -> (Sim.Scenario.Events.null, fun () -> ())
            | Some path -> (
                match Obs.Sink.jsonl_file path with
                | sink ->
                    ( Sim.Scenario.Events.of_sink sink,
                      fun () -> Obs.Sink.close sink )
                | exception Sys_error msg ->
                    Printf.eprintf "lmc_cli: %s\n%!" msg;
                    exit 2)
          in
          Fun.protect ~finally:close_sink (fun () ->
              Format.printf "%-18s %-5s %-10s %-10s %-4s %s@." "NAME" "KIND"
                "EXPECTED" "VERDICT" "OK" "DETAIL";
              let outcomes =
                Sim.Scenario.run_all ~domains events scenarios
              in
              List.iter
                (fun (o : Sim.Scenario.outcome) ->
                  Format.printf "%-18s %-5s %-10s %-10s %-4s %s@."
                    o.scenario.Sim.Scenario.name
                    (Sim.Scenario.kind_to_string o.scenario.Sim.Scenario.kind)
                    (Sim.Scenario.verdict_to_string
                       o.scenario.Sim.Scenario.expected)
                    (Sim.Scenario.verdict_to_string o.report.Sim.Scenario.verdict)
                    (if o.pass then "ok" else "FAIL")
                    (Printf.sprintf
                       "%d step(s), %d churn, fleet %d, %.1fs%s"
                       o.report.Sim.Scenario.steps
                       o.report.Sim.Scenario.churn o.report.Sim.Scenario.fleet
                       o.elapsed
                       (if o.report.Sim.Scenario.detail = "" then ""
                        else "; " ^ o.report.Sim.Scenario.detail)))
                outcomes;
              let failed =
                List.filter (fun (o : Sim.Scenario.outcome) -> not o.pass)
                  outcomes
              in
              Format.printf "scenario: %d run, %d verdict mismatch(es)@."
                (List.length outcomes) (List.length failed);
              if failed = [] then 0 else 1))
  in
  Cmd.v
    (Cmd.info "scenario" ~doc)
    Term.(
      const run $ list_flag $ run_name_arg $ all_flag $ scenario_out_arg
      $ domains_arg)

let () =
  let doc = "local model checking of distributed protocols (NSDI'11)" in
  let info = Cmd.info "lmc_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            check_cmd;
            hunt_cmd;
            scenario_cmd;
            lint_cmd;
            replay_cmd;
            report_cmd;
          ]))
