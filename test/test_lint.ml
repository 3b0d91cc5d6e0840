(* Tests for lib/lint: the interleaving checker (soundness on known-racy
   clients, exact exploration counts on the Par structures CI gates)
   and the protocol sanitizers (each planted fixture detected with its
   expected kind, every bundled correct protocol and a qcheck sweep of
   synthetic seeds lint clean, lint.v1 emission round-trips). *)

let check = Alcotest.check
let fail = Alcotest.fail

module I = Lint.Interleave
module A = I.Shim.Atomic
module R = Lint.Report

(* ------------------------------------------------------------------ *)
(* Interleave: soundness on toy clients                                *)
(* ------------------------------------------------------------------ *)

(* The classic lost update: two unsynchronised read-modify-write
   threads.  The checker must find the interleaving where both read 0. *)
let racy_counter () =
  let c = A.make 0 in
  let body () = A.set c (A.get c + 1) in
  ( [ body; body ],
    fun () ->
      let v = A.get c in
      if v <> 2 then I.failf "lost update: counter = %d" v )

let test_racy_counter () =
  let o = I.explore racy_counter in
  match o.I.failure with
  | None -> fail "interleaving checker missed the lost update"
  | Some f ->
      check Alcotest.bool "failure message names the lost update" true
        (String.length f.I.message > 0
        && String.sub f.I.message 0 11 = "lost update")

let mutexed_counter () =
  let m = I.Shim.Mutex.create () in
  let c = A.make 0 in
  let body () = I.Shim.Mutex.protect m (fun () -> A.set c (A.get c + 1)) in
  ( [ body; body ],
    fun () ->
      let v = A.get c in
      if v <> 2 then I.failf "counter = %d" v )

let test_mutexed_counter () =
  let o = I.explore mutexed_counter in
  (match o.I.failure with
  | Some f -> fail (Format.asprintf "%a" I.pp_failure f)
  | None -> ());
  check Alcotest.bool "complete" true o.I.complete;
  (* the two lock orders are the only schedules that differ *)
  check Alcotest.int "executions" 2 o.I.executions

let deadlocking_locks () =
  let ma = I.Shim.Mutex.create () and mb = I.Shim.Mutex.create () in
  let t1 () = I.Shim.Mutex.protect ma (fun () -> I.Shim.Mutex.protect mb ignore) in
  let t2 () = I.Shim.Mutex.protect mb (fun () -> I.Shim.Mutex.protect ma ignore) in
  ([ t1; t2 ], fun () -> ())

let test_deadlock_found () =
  match (I.explore deadlocking_locks).I.failure with
  | None -> fail "lock-order inversion not detected"
  | Some f ->
      check Alcotest.bool "reported as deadlock" true
        (f.I.message = "deadlock")

(* ------------------------------------------------------------------ *)
(* Interleave: Par.Deque under the shimmed primitives                  *)
(* ------------------------------------------------------------------ *)

module D = Par.Deque.Make (I.Shim)

(* Owner pushes [npush] (after [preload] sequential pushes in the
   setup), then pops twice; [nthieves] thieves each steal once.  All
   cross-thread traffic goes through the deque; per-thread results land
   in single-writer cells read only by the final check. *)
let deque_client ?(preload = 0) ~npush ~nthieves () =
  let q = D.create () in
  for i = 1 to preload do
    D.push q i
  done;
  let owner_got = ref [] in
  let thief_got = Array.make nthieves None in
  let owner () =
    for i = preload + 1 to preload + npush do
      D.push q i
    done;
    (match D.pop q with Some x -> owner_got := x :: !owner_got | None -> ());
    match D.pop q with Some x -> owner_got := x :: !owner_got | None -> ()
  in
  let thief i () = thief_got.(i) <- D.steal q in
  ( owner :: List.init nthieves thief,
    fun () ->
      let taken =
        !owner_got @ (Array.to_list thief_got |> List.filter_map Fun.id)
      in
      let rec drain acc =
        match D.pop q with Some x -> drain (x :: acc) | None -> acc
      in
      let all = List.sort compare (taken @ drain []) in
      if all <> List.init (preload + npush) (fun i -> i + 1) then
        I.failf "items lost or duplicated: [%s]"
          (String.concat ";" (List.map string_of_int all)) )

(* Exhaustive exploration with the execution count pinned: a count
   drift means the independence relation, the sleep sets, or the deque
   itself changed — all of which demand a deliberate re-baseline. *)
let deque_case name ?preload ~npush ~nthieves ~executions () =
  let o = I.explore (deque_client ?preload ~npush ~nthieves) in
  (match o.I.failure with
  | Some f -> fail (Format.asprintf "%s: %a" name I.pp_failure f)
  | None -> ());
  check Alcotest.bool (name ^ ": complete") true o.I.complete;
  check Alcotest.int (name ^ ": executions") executions o.I.executions

let test_deque_owner_vs_thief () =
  deque_case "push2" ~npush:2 ~nthieves:1 ~executions:22 ();
  deque_case "push3" ~npush:3 ~nthieves:1 ~executions:18 ()

let test_deque_two_thieves () =
  deque_case "pre2" ~preload:2 ~npush:0 ~nthieves:2 ~executions:317 ();
  deque_case "pre3" ~preload:3 ~npush:0 ~nthieves:2 ~executions:228 ();
  deque_case "pre2push1" ~preload:2 ~npush:1 ~nthieves:2 ~executions:470 ()

(* A deliberately broken steal (read top / read slot / non-CAS bump)
   must be caught: proves the deque tests can fail at all. *)
let broken_steal () =
  let top = A.make 0 and items = [| "a"; "b" |] in
  let got = Array.make 2 None in
  let thief i () =
    let t = A.get top in
    if t < Array.length items then begin
      got.(i) <- Some items.(t);
      A.set top (t + 1)
    end
  in
  ( [ thief 0; thief 1 ],
    fun () ->
      match (got.(0), got.(1)) with
      | Some a, Some b when a = b -> I.failf "duplicate take: %s" a
      | _ -> () )

let test_broken_steal_caught () =
  match (I.explore broken_steal).I.failure with
  | None -> fail "non-CAS steal not detected"
  | Some _ -> ()

(* ------------------------------------------------------------------ *)
(* Interleave: Par.Shard_tbl under the shimmed primitives              *)
(* ------------------------------------------------------------------ *)

module T = Par.Shard_tbl.Make (I.Shim)

(* Writers on distinct shards are fully independent, so sleep sets
   collapse the exploration to a single execution. *)
let tbl_distinct_keys () =
  let t = T.create ~shards:2 4 in
  let w k () = ignore (T.add_if_absent t k k) in
  ( [ w 0; w 1 ],
    fun () ->
      if not (T.mem t 0 && T.mem t 1) || T.length t <> 2 then
        I.failf "lost update: length = %d" (T.length t) )

let tbl_same_key () =
  let t = T.create ~shards:2 4 in
  let won = Array.make 2 false in
  let w i () = won.(i) <- T.add_if_absent t 7 i in
  ( [ w 0; w 1 ],
    fun () ->
      (match (won.(0), won.(1)) with
      | true, true -> I.failf "both inserts won"
      | false, false -> I.failf "no insert won"
      | _ -> ());
      if T.length t <> 1 then I.failf "length = %d" (T.length t) )

let tbl_case name client ~executions =
  let o = I.explore client in
  (match o.I.failure with
  | Some f -> fail (Format.asprintf "%s: %a" name I.pp_failure f)
  | None -> ());
  check Alcotest.bool (name ^ ": complete") true o.I.complete;
  check Alcotest.int (name ^ ": executions") executions o.I.executions

let test_shard_tbl () =
  tbl_case "distinct-keys" tbl_distinct_keys ~executions:1;
  tbl_case "same-key" tbl_same_key ~executions:2

(* ------------------------------------------------------------------ *)
(* Sanitize: the planted fixtures                                      *)
(* ------------------------------------------------------------------ *)

let run_lint (module P : Dsm.Protocol.S) =
  let module S = Lint.Sanitize.Make (P) in
  let r = S.run () in
  if not r.S.completed then fail (P.name ^ ": lint budget exhausted");
  r.S.findings

let expect_fixture (module P : Dsm.Protocol.S) kind subject =
  match run_lint (module P) with
  | [ f ] ->
      check Alcotest.string "kind" (R.kind_to_string kind)
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" subject f.R.subject
  | fs ->
      fail
        (Printf.sprintf "%s: expected exactly one finding, got %d" P.name
           (List.length fs))

let test_fixture_nondet () =
  expect_fixture
    (module Protocols.Lint_fixtures.Nondet)
    R.Nondeterministic_handler "Ping"

let test_fixture_noncanon () =
  expect_fixture
    (module Protocols.Lint_fixtures.Noncanon)
    R.Noncanonical_state "state"

let test_fixture_dead () =
  expect_fixture
    (module Protocols.Lint_fixtures.Dead_letter)
    R.Dead_message "Noise"

let test_fixture_flaky_recovery () =
  expect_fixture
    (module Protocols.Lint_fixtures.Flaky_recovery)
    R.Nondeterministic_recovery "on_recover(node 0)"

(* The crash-recovery pb-store variant must lint clean under
   message-only exploration (the defect is reachable only through a
   crash), and in particular its [on_recover] must pass the recovery
   audit: deterministic, and canonical — recovered states digest like
   their message-reachable twins. *)
let test_crash_variant_recovery_clean () =
  match
    run_lint
      (module Protocols.Pb_store.Make (struct
        let key = 7
        let value = 42
        let bug = Protocols.Pb_store.Lose_acked_writes_on_recovery
      end))
  with
  | [] -> ()
  | f :: _ -> fail (Format.asprintf "unexpected finding: %a" R.pp_finding f)

(* The persistence audit's planted fixture: a tampering hook between
   the 64-bit folding and the insert stands in for a corrupting store
   layer, and must surface as a digest-drift finding.  The clean
   round-trip is exercised by every other lint in this file (the audit
   runs on each distinct state fingerprint). *)
let test_fixture_store_drift () =
  let module P = Protocols.Tree.Make (Protocols.Tree.Paper_config) in
  let module S = Lint.Sanitize.Make (P) in
  let r =
    S.run
      ~config:
        {
          S.default_config with
          store_tamper = Some (fun k -> Int64.logxor k 0x00ff_00ff_00ff_00ffL);
        }
      ()
  in
  if not r.S.completed then fail "lint budget exhausted";
  match
    List.filter (fun f -> f.R.kind = R.Store_digest_drift) r.S.findings
  with
  | _ :: _ -> ()
  | [] -> fail "tampered store produced no store_digest_drift finding"

(* ------------------------------------------------------------------ *)
(* Sanitize: bundled correct protocols lint clean                      *)
(* ------------------------------------------------------------------ *)

let clean_instances : (string * (module Dsm.Protocol.S)) list =
  [
    ("tree", (module Protocols.Tree.Make (Protocols.Tree.Paper_config)));
    ( "chain",
      (module Protocols.Chain.Make (struct
        let length = 8
      end)) );
    ( "ping",
      (module Protocols.Ping.Make (struct
        let num_servers = 2
      end)) );
    ( "randtree",
      (module Protocols.Randtree.Make (struct
        let num_nodes = 4
        let max_children = 2
        let max_attempts = 1
        let bug = Protocols.Randtree.No_bug
      end)) );
    ( "2pc",
      (module Protocols.Twophase.Make (struct
        let num_nodes = 4
        let no_voters = [ 2 ]
        let bug = Protocols.Twophase.No_bug
      end)) );
    ( "ring",
      (module Protocols.Ring_election.Make (struct
        let num_nodes = 3
        let starters = [ 0; 1 ]
        let bug = Protocols.Ring_election.No_bug
      end)) );
    ( "mutex",
      (module Protocols.Token_mutex.Make (struct
        let num_nodes = 3
        let contenders = [ 1; 2 ]
        let max_regenerations = 1
        let bug = Protocols.Token_mutex.No_bug
      end)) );
    ( "abp",
      (module Protocols.Fifo.Make (Protocols.Alternating_bit.Make (struct
        let data = [ 10; 20 ]
        let max_retransmits = 1
        let bug = Protocols.Alternating_bit.No_bug
      end))) );
    ( "pb-store",
      (module Protocols.Pb_store.Make (struct
        let key = 7
        let value = 42
        let bug = Protocols.Pb_store.No_bug
      end)) );
  ]

let test_correct_protocols_clean () =
  List.iter
    (fun (name, p) ->
      match run_lint p with
      | [] -> ()
      | f :: _ ->
          fail
            (Format.asprintf "%s: unexpected finding: %a" name R.pp_finding f))
    clean_instances

module Synthetic_seed (Seed : sig
  val seed : int
end) =
Protocols.Synthetic.Make (struct
  let seed = Seed.seed
  let num_nodes = 3
  let max_state = 4
  let kinds = 3
end)

(* Synthetic protocols are pure by construction (every behavioural
   decision hashes the seed and the inputs), so a determinism,
   canonicality, purity, or exception finding on any seed is a
   sanitizer false positive.  The coverage lint is excluded: a
   hash-derived behaviour may legitimately make every delivery of some
   message family a no-op (e.g. seed 34379), which in a hand-written
   protocol would be dead code but here is just the dice.

   The sanitizer's 20,000-transition default guards hand-written
   protocols, whose spaces need not be finite.  [Protocols.Synthetic]
   documents bounds that make every instance's space finite: node
   states strictly increase up to [max_state] and each handler sends at
   most two messages, so every run ends after at most
   [num_nodes * max_state * 2] deliveries and one start action.  A
   finite space is exhausted by any budget that never trips, so the
   clean-seed property lifts the budget instead of guessing a size:
   [completed] then means what it says — the whole space was seen —
   and a seed that merely has a large space (the worst of the sampled
   range takes 1.7M transitions) is no longer reported unclean. *)
let synthetic_lint_clean seed =
  let module P = Synthetic_seed (struct
    let seed = seed
  end) in
  let module S = Lint.Sanitize.Make (P) in
  let r =
    S.run
      ~config:
        {
          S.default_config with
          min_deliveries = max_int;
          max_transitions = max_int;
        }
      ()
  in
  (r.S.completed && r.S.findings = [], r.S.stats.S.transitions)

let synthetic_clean =
  QCheck.Test.make ~count:120 ~name:"synthetic seeds lint clean"
    QCheck.(int_range 0 100_000)
    (fun seed -> fst (synthetic_lint_clean seed))

(* Seeds the property used to report unclean under the default budget:
   both are clean, and only larger than 20,000 transitions. *)
let test_synthetic_large_seeds_clean () =
  List.iter
    (fun (seed, transitions) ->
      let clean, seen = synthetic_lint_clean seed in
      let tag = Printf.sprintf "seed %d" seed in
      check Alcotest.bool (tag ^ " clean and complete") true clean;
      check Alcotest.int (tag ^ " transitions") transitions seen)
    [ (36536, 28_912); (18157, 25_743) ]

(* And under the default config, the only findings a synthetic seed
   may ever produce are coverage verdicts. *)
let synthetic_contract_only =
  QCheck.Test.make ~count:60 ~name:"synthetic findings are coverage-only"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module P = Synthetic_seed (struct
        let seed = seed
      end) in
      let module S = Lint.Sanitize.Make (P) in
      let r = S.run () in
      List.for_all
        (fun (f : R.finding) ->
          match f.R.kind with
          | R.Dead_message | R.Dead_action -> true
          | _ -> false)
        r.S.findings)

(* ------------------------------------------------------------------ *)
(* Report: families, allowlists, and the lint.v1 stream                *)
(* ------------------------------------------------------------------ *)

let test_family () =
  let cases =
    [
      ("Prepare(1,2)", "Prepare");
      ("Pong 3", "Pong");
      ("m123", "m");
      ("42", "42");
      ("fail-over", "fail-over");
      ("GetReply(miss)", "GetReply");
    ]
  in
  List.iter
    (fun (label, want) -> check Alcotest.string label want (R.family label))
    cases

let with_temp_file contents f =
  let path = Filename.temp_file "lint_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_allowlist_reconcile () =
  let allow =
    with_temp_file
      "# a comment\n\
       {\"protocol\":\"p\",\"kind\":\"dead_message\",\"subject\":\"M\"}\n\
       {\"protocol\":\"q\",\"kind\":\"dead_action\",\"subject\":\"A\"}\n"
      (fun path ->
        match R.load_allowlist path with
        | Ok l -> l
        | Error e -> fail e)
  in
  check Alcotest.int "entries" 2 (List.length allow);
  let finding =
    { R.kind = R.Dead_message; protocol = "p"; subject = "M"; detail = "d" }
  in
  let novel = { finding with R.subject = "Other" } in
  (* the covered finding is absorbed; the novel one surfaces; the "q"
     entry is stale only once "q" is actually linted *)
  let r = R.reconcile ~allow ~linted:[ "p" ] [ finding; novel ] in
  check Alcotest.int "unexpected" 1 (List.length r.R.unexpected);
  check Alcotest.int "stale (q unlinted)" 0 (List.length r.R.stale);
  let r = R.reconcile ~allow ~linted:[ "p"; "q" ] [ finding ] in
  check Alcotest.int "stale (q linted)" 1 (List.length r.R.stale)

let test_allowlist_rejects_garbage () =
  let bad s =
    with_temp_file s (fun path ->
        match R.load_allowlist path with Ok _ -> false | Error _ -> true)
  in
  check Alcotest.bool "unknown kind" true
    (bad "{\"protocol\":\"p\",\"kind\":\"nope\",\"subject\":\"M\"}\n");
  check Alcotest.bool "missing field" true (bad "{\"protocol\":\"p\"}\n");
  check Alcotest.bool "not json" true (bad "hello\n")

(* Round-trip: emit a run through a jsonl_file sink, then re-parse the
   serialized lines and re-validate what bin/jsonl_check enforces —
   schema tag, per-ev required fields, strictly increasing seq. *)
let test_lint_v1_round_trip () =
  let path = Filename.temp_file "lint_stream" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Obs.Sink.jsonl_file path in
      let t = R.to_sink sink in
      R.emit_start t ~protocol:"demo" ~max_depth:None ~max_transitions:100;
      R.emit_finding t
        { R.kind = R.Dead_message; protocol = "demo"; subject = "M";
          detail = "d" };
      R.emit_end t ~protocol:"demo" ~findings:1 ~transitions:7 ~states:3
        ~elapsed_s:0.01;
      Obs.Sink.close sink;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      let lines = List.rev !lines in
      check Alcotest.int "records" 3 (List.length lines);
      let last_seq = ref (-1) in
      let evs =
        List.map
          (fun line ->
            match Dsm.Json.of_string line with
            | Error e -> fail e
            | Ok (Dsm.Json.Obj fields) ->
                let str name =
                  match List.assoc_opt name fields with
                  | Some (Dsm.Json.String s) -> s
                  | _ -> fail (Printf.sprintf "missing string field %S" name)
                in
                check Alcotest.string "schema" "lint.v1" (str "schema");
                (match List.assoc_opt "seq" fields with
                | Some (Dsm.Json.Int s) ->
                    if s <= !last_seq then fail "seq not increasing";
                    last_seq := s
                | _ -> fail "missing seq");
                (match str "ev" with
                | "finding" ->
                    check Alcotest.string "kind" "dead_message" (str "kind");
                    check Alcotest.string "subject" "M" (str "subject")
                | "run_start" | "run_end" -> ()
                | ev -> fail ("unknown ev " ^ ev));
                str "ev"
            | Ok _ -> fail "not an object")
          lines
      in
      check
        Alcotest.(list string)
        "ev order"
        [ "run_start"; "finding"; "run_end" ]
        evs)

(* ------------------------------------------------------------------ *)
(* Symmetry: inference, commutation/orbit audits, canonicalization     *)
(* ------------------------------------------------------------------ *)

module Sym = Dsm.Symmetry
module Y_broken = Lint.Symmetry.Make (Protocols.Lint_fixtures.Sym_broken)
module Y_flood = Lint.Symmetry.Make (Protocols.Lint_fixtures.Sym_flood)

(* The invariant the sym-flood runner checks: slot-symmetric (it never
   looks at node identifiers), so the orbit audit should license the
   full group. *)
let flood_gap =
  Dsm.Invariant.for_all_pairs ~name:"bounded-progress-gap"
    (fun _ a _ b ->
      if abs (a - b) > 100 then Some "progress gap exceeds 100" else None)

(* The planted claim defect: fixture-sym-broken claims [S_3] but its
   Ping handler special-cases node 0.  The audit must report exactly
   one [broken_symmetry] finding and poison the claim entirely —
   identity verdict for BOTH reduction layers, so no checker ever
   reduces under the broken group. *)
let test_sym_broken_claim_caught () =
  let r =
    Y_broken.run
      ~config:
        {
          Y_broken.default_config with
          claim = Some (Sym.with_id_maps (Sym.full 3));
        }
      ()
  in
  if not r.Y_broken.completed then fail "audit budget exhausted";
  (match r.Y_broken.findings with
  | [ f ] ->
      check Alcotest.string "kind" "broken_symmetry"
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" "Ping" f.R.subject
  | fs ->
      fail
        (Printf.sprintf "expected exactly one finding, got %d"
           (List.length fs)));
  check Alcotest.bool "commutation poisoned to identity" true
    (Sym.is_trivial r.Y_broken.verdict.Y_broken.commutation.Sym.group);
  check Alcotest.bool "orbit poisoned to identity" true
    (Sym.is_trivial r.Y_broken.verdict.Y_broken.orbit)

(* Same protocol, no claim: inference proposes candidates, the audit
   silently demotes them (that is the audit doing its job), and no
   finding reaches the report pipeline. *)
let test_sym_broken_inference_silent () =
  let r = Y_broken.run () in
  if not r.Y_broken.completed then fail "audit budget exhausted";
  check Alcotest.int "no findings" 0 (List.length r.Y_broken.findings);
  check Alcotest.bool "commutation demoted to identity" true
    (Sym.is_trivial r.Y_broken.verdict.Y_broken.commutation.Sym.group)

(* The positive control: the same flood without the special case is
   genuinely [S_3]-symmetric, so the claimed group passes both audits
   and the verdict licenses both reduction layers. *)
let test_sym_flood_claim_passes () =
  let r =
    Y_flood.run
      ~config:
        {
          Y_flood.default_config with
          claim = Some (Sym.with_id_maps (Sym.full 3));
          invariant = Some flood_gap;
        }
      ()
  in
  if not r.Y_flood.completed then fail "audit budget exhausted";
  check Alcotest.int "no findings" 0 (List.length r.Y_flood.findings);
  check Alcotest.string "commutation = full" "full"
    (Sym.name r.Y_flood.verdict.Y_flood.commutation.Sym.group);
  check Alcotest.string "orbit = full" "full"
    (Sym.name r.Y_flood.verdict.Y_flood.orbit)

(* And inference finds the same group without being told. *)
let test_sym_flood_inferred () =
  let r =
    Y_flood.run
      ~config:{ Y_flood.default_config with invariant = Some flood_gap }
      ()
  in
  check Alcotest.int "no findings" 0 (List.length r.Y_flood.findings);
  check Alcotest.string "commutation = full" "full"
    (Sym.name r.Y_flood.verdict.Y_flood.commutation.Sym.group);
  check Alcotest.string "orbit = full" "full"
    (Sym.name r.Y_flood.verdict.Y_flood.orbit)

(* A slot-asymmetric invariant on an identifier-free protocol breaks
   both reduction layers at once (with identity mappers the full
   action IS slot permutation), and the broken claim masks the orbit
   verdict: one [broken_symmetry] finding, both layers refused. *)
let test_sym_asym_invariant_poisons_claim () =
  let asym =
    Dsm.Invariant.for_all_nodes ~name:"node0-even" (fun i s ->
        if i = 0 && s mod 2 = 1 then Some "node 0 odd" else None)
  in
  let r =
    Y_flood.run
      ~config:
        {
          Y_flood.default_config with
          claim = Some (Sym.with_id_maps (Sym.full 3));
          invariant = Some asym;
        }
      ()
  in
  (match r.Y_flood.findings with
  | [ f ] ->
      check Alcotest.string "kind" "broken_symmetry"
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" "invariant" f.R.subject
  | fs ->
      fail
        (Printf.sprintf "expected exactly one finding, got %d"
           (List.length fs)));
  check Alcotest.bool "commutation refused" true
    (Sym.is_trivial r.Y_flood.verdict.Y_flood.commutation.Sym.group);
  check Alcotest.bool "orbit refused" true
    (Sym.is_trivial r.Y_flood.verdict.Y_flood.orbit)

(* The genuine [unsound_orbit] path needs the two layers to diverge:
   states that embed node identifiers, mapped by the spec, so the
   invariant IS equivariant under the full action (rewrite ids, then
   permute slots — B-DFS reduction stays licensed) yet is not under
   LMC's slot-only permutation (states travel to other nodes
   untouched). *)
module Owner = struct
  let name = "test-owner"
  let num_nodes = 3

  type state = int  (* the node's own identifier, set at [initial] *)
  type message = Nop [@warning "-37"]  (* no sender exists; audit probes only *)
  type action = Never [@warning "-37"]

  let initial self = self
  let handle_message ~self:_ st (_ : message Dsm.Envelope.t) = (st, [])
  let enabled_actions ~self:_ _ = []
  let handle_action ~self:_ st (Never : action) = (st, [])
  let on_recover = Dsm.Protocol.default_on_recover
  let pp_state ppf s = Format.fprintf ppf "%d" s
  let pp_message ppf Nop = Format.fprintf ppf "Nop"
  let pp_action ppf Never = Format.fprintf ppf "Never"
end

let test_sym_unsound_orbit () =
  let module Y = Lint.Symmetry.Make (Owner) in
  let claim =
    {
      Sym.group = Sym.full 3;
      map_state = (fun rename s -> rename s);
      map_message = (fun _ m -> m);
    }
  in
  let owns_own_id =
    Dsm.Invariant.for_all_nodes ~name:"owns-own-id" (fun i s ->
        if s <> i then Some "identifier moved to another slot" else None)
  in
  let r =
    Y.run
      ~config:
        {
          Y.default_config with
          claim = Some claim;
          invariant = Some owns_own_id;
        }
      ()
  in
  (match r.Y.findings with
  | [ f ] ->
      check Alcotest.string "kind" "unsound_orbit"
        (R.kind_to_string f.R.kind);
      check Alcotest.string "subject" "invariant" f.R.subject
  | fs ->
      fail
        (Printf.sprintf "expected exactly one finding, got %d"
           (List.length fs)));
  check Alcotest.string "commutation survives" "full"
    (Sym.name r.Y.verdict.Y.commutation.Sym.group);
  check Alcotest.bool "orbit refused" true
    (Sym.is_trivial r.Y.verdict.Y.orbit)

(* Orbit canonicalization: the canonical tuple is orbit-invariant and
   lexicographically least; for the full group that is the sorted
   tuple.  A transposition is not a rotation, so under [C_3] it lands
   in a different orbit. *)
let test_orbit_canonicalization () =
  let fp i = Dsm.Fingerprint.of_value i in
  let hex t =
    String.concat "," (List.map Dsm.Fingerprint.to_hex (Array.to_list t))
  in
  let a = fp 1 and b = fp 2 and c = fp 3 in
  let full = Sym.full 3 and rot = Sym.rotations 3 in
  let sorted =
    Array.of_list (List.sort Dsm.Fingerprint.compare [ a; b; c ])
  in
  let orbit =
    [
      [| a; b; c |]; [| a; c; b |]; [| b; a; c |];
      [| b; c; a |]; [| c; a; b |]; [| c; b; a |];
    ]
  in
  List.iter
    (fun t ->
      check Alcotest.string "full: sorted representative" (hex sorted)
        (hex (Sym.canonical_tuple full t));
      check Alcotest.string "full: combo orbit-invariant"
        (Dsm.Fingerprint.to_hex (Sym.canonical_combo full [| a; b; c |]))
        (Dsm.Fingerprint.to_hex (Sym.canonical_combo full t)))
    orbit;
  (* rotations: the three cyclic shifts share a representative... *)
  let r0 = Sym.canonical_combo rot [| a; b; c |] in
  List.iter
    (fun t ->
      check Alcotest.string "rot: combo orbit-invariant"
        (Dsm.Fingerprint.to_hex r0)
        (Dsm.Fingerprint.to_hex (Sym.canonical_combo rot t)))
    [ [| b; c; a |]; [| c; a; b |] ];
  (* ...and a transposition does not. *)
  check Alcotest.bool "rot: transposition is a different orbit" false
    (Dsm.Fingerprint.equal r0 (Sym.canonical_combo rot [| a; c; b |]));
  (* identity group: canonicalization is the identity *)
  let id = Sym.identity_group 3 in
  check Alcotest.string "id: untouched"
    (hex [| b; a; c |])
    (hex (Sym.canonical_tuple id [| b; a; c |]))

(* Every kind — including the two symmetry kinds — must round-trip
   through the string encoding the lint.v1 stream and the allowlists
   use. *)
let test_kind_round_trip () =
  check Alcotest.bool "broken_symmetry registered" true
    (List.mem R.Broken_symmetry R.all_kinds);
  check Alcotest.bool "unsound_orbit registered" true
    (List.mem R.Unsound_orbit R.all_kinds);
  List.iter
    (fun k ->
      let s = R.kind_to_string k in
      match R.kind_of_string s with
      | Ok k' ->
          check Alcotest.string ("round-trip " ^ s) s (R.kind_to_string k')
      | Error e -> fail (s ^ ": " ^ e))
    R.all_kinds;
  check Alcotest.bool "unknown kind rejected" true
    (match R.kind_of_string "no_such_kind" with
    | Error _ -> true
    | Ok _ -> false)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lint"
    [
      ( "interleave-soundness",
        [
          Alcotest.test_case "racy counter fails" `Quick test_racy_counter;
          Alcotest.test_case "mutexed counter clean" `Quick
            test_mutexed_counter;
          Alcotest.test_case "deadlock found" `Quick test_deadlock_found;
          Alcotest.test_case "broken steal caught" `Quick
            test_broken_steal_caught;
        ] );
      ( "interleave-par",
        [
          Alcotest.test_case "deque owner vs thief" `Quick
            test_deque_owner_vs_thief;
          Alcotest.test_case "deque two thieves" `Quick
            test_deque_two_thieves;
          Alcotest.test_case "shard_tbl" `Quick test_shard_tbl;
        ] );
      ( "sanitize-fixtures",
        [
          Alcotest.test_case "nondeterministic handler" `Quick
            test_fixture_nondet;
          Alcotest.test_case "noncanonical state" `Quick
            test_fixture_noncanon;
          Alcotest.test_case "dead message" `Quick test_fixture_dead;
          Alcotest.test_case "flaky recovery" `Quick
            test_fixture_flaky_recovery;
          Alcotest.test_case "crash variant recovers clean" `Quick
            test_crash_variant_recovery_clean;
          Alcotest.test_case "store digest drift" `Quick
            test_fixture_store_drift;
        ] );
      ( "sanitize-clean",
        Alcotest.test_case "bundled correct protocols" `Quick
          test_correct_protocols_clean
        :: Alcotest.test_case "large synthetic seeds clean" `Quick
             test_synthetic_large_seeds_clean
        :: List.map QCheck_alcotest.to_alcotest
             [ synthetic_clean; synthetic_contract_only ] );
      ( "report",
        [
          Alcotest.test_case "label families" `Quick test_family;
          Alcotest.test_case "allowlist reconcile" `Quick
            test_allowlist_reconcile;
          Alcotest.test_case "allowlist rejects garbage" `Quick
            test_allowlist_rejects_garbage;
          Alcotest.test_case "lint.v1 round-trip" `Quick
            test_lint_v1_round_trip;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "broken claim caught" `Quick
            test_sym_broken_claim_caught;
          Alcotest.test_case "broken inference silent" `Quick
            test_sym_broken_inference_silent;
          Alcotest.test_case "flood claim passes" `Quick
            test_sym_flood_claim_passes;
          Alcotest.test_case "flood group inferred" `Quick
            test_sym_flood_inferred;
          Alcotest.test_case "asymmetric invariant poisons claim" `Quick
            test_sym_asym_invariant_poisons_claim;
          Alcotest.test_case "unsound orbit refused" `Quick
            test_sym_unsound_orbit;
          Alcotest.test_case "orbit canonicalization" `Quick
            test_orbit_canonicalization;
          Alcotest.test_case "kind round-trip" `Quick test_kind_round_trip;
        ] );
    ]
