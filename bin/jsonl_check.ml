(* jsonl_check: validate that every line of a JSONL file parses as a
   JSON value, and that lines carrying a known schema tag ("schema":
   "trace.v1" from the flight recorder, "lint.v1" from `lmc lint
   --out', "store.v1" from the persistent-checkpoint layer,
   "profile.v1" from the sampling profiler, "timeseries.v1" from the
   heartbeat gauge ring, "scenario.v1" from `lmc scenario') are
   well-formed records: known record kind, the fields that kind
   requires, and strictly increasing [seq] numbers per schema.  Exits
   0 when every file is well-formed, 1 with line-numbered diagnostics
   otherwise.  Used by `make check' / `make lint' to assert that the
   CLI's machine-readable streams stay parseable. *)

let trace_schema = "trace.v1"
let lint_schema = "lint.v1"
let store_schema = "store.v1"
let profile_schema = "profile.v1"
let timeseries_schema = "timeseries.v1"
let scenario_schema = "scenario.v1"

let field name fields = List.assoc_opt name fields

let is_int = function Dsm.Json.Int _ -> true | _ -> false
let is_string = function Dsm.Json.String _ -> true | _ -> false
let is_list = function Dsm.Json.List _ -> true | _ -> false
let is_bool = function Dsm.Json.Bool _ -> true | _ -> false
let is_number = function Dsm.Json.Int _ | Dsm.Json.Float _ -> true | _ -> false
let is_obj = function Dsm.Json.Obj _ -> true | _ -> false

(* Required fields per record kind: the CLI's [run]/[end] framing and
   every record the checkers emit.  A missing kind here means a
   producer grew a record type without teaching the validator. *)
let required_fields = function
  | "run" -> Some [ ("protocol", is_string); ("mode", is_string) ]
  | "end" -> Some [ ("exit", is_int) ]
  | "lmc_run" -> Some [ ("protocol", is_string); ("nodes", is_int) ]
  | "lmc_end" ->
      Some
        [
          ("transitions", is_int);
          ("soundness_prefilter_rejections", is_int);
          ("soundness_search_rejections", is_int);
          ("symmetry", is_string);
          ("orbit_hits", is_int);
          ("completed", is_bool);
        ]
  | "bdfs_run" -> Some [ ("protocol", is_string); ("domains", is_int) ]
  | "bdfs_end" ->
      Some
        [
          ("transitions", is_int);
          ("symmetry", is_string);
          ("orbit_hits", is_int);
          ("completed", is_bool);
        ]
  | "step" ->
      Some
        [
          ("node", is_int);
          ("kind", is_string);
          ("src", is_int);
          ("label", is_string);
          ("fp_before", is_string);
          ("fp_after", is_string);
          ("produced", is_list);
          ("depth", is_int);
          ("dom", is_int);
        ]
  | "drop" ->
      Some [ ("node", is_int); ("kind", is_string); ("label", is_string) ]
  | "prelim" -> Some [ ("invariant", is_string); ("tuple", is_list) ]
  | "soundness" -> Some [ ("kind", is_string); ("verdict", is_string) ]
  | "reject" -> Some [ ("invariant", is_string); ("why", is_string) ]
  | "witness" ->
      Some
        [
          ("invariant", is_string);
          ("protocol", is_string);
          ("init", is_list);
          ("wsteps", is_list);
          ("final_fp", is_string);
        ]
  | "phases" -> Some [ ("elapsed_us", is_int) ]
  | "restart" -> Some [ ("run", is_int); ("live_time", is_number) ]
  | "live" -> Some [ ("clock", is_number); ("kind", is_string) ]
  | "ring_meta" -> Some [ ("dropped", is_int); ("capacity", is_int) ]
  | _ -> None

(* The sanitizer's finding taxonomy; `lmc lint' must not grow a kind
   without teaching the validator (and the allowlist readers). *)
let lint_kinds =
  [
    "nondeterministic_handler";
    "nondeterministic_actions";
    "noncanonical_state";
    "digest_collision";
    "unmarshalable_state";
    "dead_message";
    "dead_action";
    "handler_exception";
    "nondeterministic_recovery";
    "store_digest_drift";
    "broken_symmetry";
    "unsound_orbit";
  ]

let is_lint_kind = function
  | Dsm.Json.String s -> List.mem s lint_kinds
  | _ -> false

let lint_required_fields = function
  | "run_start" -> Some [ ("protocol", is_string); ("max_transitions", is_int) ]
  | "finding" ->
      Some
        [
          ("kind", is_lint_kind);
          ("protocol", is_string);
          ("subject", is_string);
          ("detail", is_string);
        ]
  | "run_end" ->
      Some
        [
          ("protocol", is_string);
          ("findings", is_int);
          ("transitions", is_int);
          ("states", is_int);
          ("elapsed_s", is_number);
        ]
  | _ -> None

(* The checkpoint layer's record kinds (lib/store/events.ml): opening
   or resuming a checkpoint directory, the per-snapshot flush, and
   hash-table growth.  Like lint.v1, the stream interleaves with
   trace.v1 in one JSONL sink but numbers its own [seq] space. *)
let store_required_fields = function
  | "open" -> Some [ ("dir", is_string); ("resumed", is_bool) ]
  | "flush" ->
      Some
        [
          ("live_time", is_number);
          ("combos", is_int);
          ("node_states", is_int);
          ("iplus", is_int);
          ("hits", is_int);
        ]
  | "compact" ->
      Some
        [
          ("file", is_string);
          ("old_capacity", is_int);
          ("new_capacity", is_int);
        ]
  | "resume" ->
      Some
        [
          ("dir", is_string);
          ("live_time", is_number);
          ("checks", is_int);
          ("states", is_int);
          ("hits", is_int);
        ]
  | _ -> None

(* The sampling profiler's export (lib/obs/prof.ml): one [prof_run]
   header with the run's total attributed time, then one [stack] line
   per distinct collapsed stack. *)
let profile_required_fields = function
  | "prof_run" -> Some [ ("clock_us", is_int); ("stacks", is_int) ]
  | "stack" ->
      Some [ ("stack", is_list); ("us", is_int); ("samples", is_int) ]
  | _ -> None

(* The heartbeat-driven gauge/counter ring (lib/obs/timeseries.ml):
   [ts_run] header, [sample] lines with the counter and gauge maps,
   and a [ts_meta] trailer accounting for ring drops. *)
let timeseries_required_fields = function
  | "ts_run" -> Some [ ("interval_s", is_number); ("capacity", is_int) ]
  | "sample" ->
      Some [ ("t", is_number); ("counters", is_obj); ("gauges", is_obj) ]
  | "ts_meta" ->
      Some [ ("samples", is_int); ("dropped", is_int); ("capacity", is_int) ]
  | _ -> None

(* The scenario runner (lib/sim/scenario.ml + `lmc scenario'): one
   [scenario_run] header per scenario with its full recipe, one
   [scenario_end] with the verdict/expectation reconciliation. *)
let scenario_required_fields = function
  | "scenario_run" ->
      Some
        [
          ("name", is_string);
          ("protocol", is_string);
          ("nodes", is_int);
          ("seed", is_int);
          ("plan", is_string);
          ("kind", is_string);
          ("expected", is_string);
          ("domains", is_int);
        ]
  | "scenario_end" ->
      Some
        [
          ("name", is_string);
          ("verdict", is_string);
          ("expected", is_string);
          ("pass", is_bool);
          ("steps", is_int);
          ("churn", is_int);
          ("fleet", is_int);
          ("detail", is_string);
          ("elapsed", is_number);
        ]
  | _ -> None

let check_record ~required_fields ~last_seq fields =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let seq =
    match field "seq" fields with
    | Some (Dsm.Json.Int s) ->
        if s <= last_seq then
          err "seq %d not greater than preceding seq %d" s last_seq;
        s
    | Some _ ->
        err "field \"seq\": expected int";
        last_seq
    | None ->
        err "missing field \"seq\"";
        last_seq
  in
  (match field "ev" fields with
  | Some (Dsm.Json.String ev) -> (
      match required_fields ev with
      | None -> err "unknown record kind %S" ev
      | Some reqs ->
          List.iter
            (fun (name, check) ->
              match field name fields with
              | None -> err "%s: missing field %S" ev name
              | Some v ->
                  if not (check v) then err "%s: field %S: wrong type" ev name)
            reqs)
  | Some _ -> err "field \"ev\": expected string"
  | None -> err "missing field \"ev\"");
  (seq, List.rev !errors)

(* Each schema validates independently: a file may interleave trace.v1
   and lint.v1 lines (both ride Obs sinks), and each stream numbers
   its own [seq] space. *)
let check_file path =
  let ic = open_in path in
  let last_trace_seq = ref (-1)
  and last_lint_seq = ref (-1)
  and last_store_seq = ref (-1)
  and last_profile_seq = ref (-1)
  and last_timeseries_seq = ref (-1)
  and last_scenario_seq = ref (-1) in
  let validate ~required_fields ~last_seq ~schema lineno fields =
    let seq, errors = check_record ~required_fields ~last_seq:!last_seq fields in
    last_seq := seq;
    List.iter
      (fun msg -> Printf.eprintf "%s:%d: %s: %s\n" path lineno schema msg)
      errors;
    errors = []
  in
  let rec loop lineno ok =
    match input_line ic with
    | exception End_of_file -> ok
    | line when String.trim line = "" -> loop (lineno + 1) ok
    | line -> (
        match Dsm.Json.of_string line with
        | Ok (Dsm.Json.Obj fields)
          when field "schema" fields = Some (Dsm.Json.String trace_schema) ->
            let ok' =
              validate ~required_fields ~last_seq:last_trace_seq
                ~schema:trace_schema lineno fields
            in
            loop (lineno + 1) (ok && ok')
        | Ok (Dsm.Json.Obj fields)
          when field "schema" fields = Some (Dsm.Json.String lint_schema) ->
            let ok' =
              validate ~required_fields:lint_required_fields
                ~last_seq:last_lint_seq ~schema:lint_schema lineno fields
            in
            loop (lineno + 1) (ok && ok')
        | Ok (Dsm.Json.Obj fields)
          when field "schema" fields = Some (Dsm.Json.String store_schema) ->
            let ok' =
              validate ~required_fields:store_required_fields
                ~last_seq:last_store_seq ~schema:store_schema lineno fields
            in
            loop (lineno + 1) (ok && ok')
        | Ok (Dsm.Json.Obj fields)
          when field "schema" fields = Some (Dsm.Json.String profile_schema)
          ->
            let ok' =
              validate ~required_fields:profile_required_fields
                ~last_seq:last_profile_seq ~schema:profile_schema lineno
                fields
            in
            loop (lineno + 1) (ok && ok')
        | Ok (Dsm.Json.Obj fields)
          when field "schema" fields
               = Some (Dsm.Json.String timeseries_schema) ->
            let ok' =
              validate ~required_fields:timeseries_required_fields
                ~last_seq:last_timeseries_seq ~schema:timeseries_schema
                lineno fields
            in
            loop (lineno + 1) (ok && ok')
        | Ok (Dsm.Json.Obj fields)
          when field "schema" fields = Some (Dsm.Json.String scenario_schema)
          ->
            let ok' =
              validate ~required_fields:scenario_required_fields
                ~last_seq:last_scenario_seq ~schema:scenario_schema lineno
                fields
            in
            loop (lineno + 1) (ok && ok')
        | Ok _ -> loop (lineno + 1) ok
        | Error msg ->
            Printf.eprintf "%s:%d: %s\n" path lineno msg;
            loop (lineno + 1) false)
  in
  let ok = loop 1 true in
  close_in ic;
  ok

let () =
  let paths = List.tl (Array.to_list Sys.argv) in
  if paths = [] then begin
    prerr_endline "usage: jsonl_check FILE...";
    exit 2
  end;
  let ok = List.for_all check_file paths in
  exit (if ok then 0 else 1)
