(** The local model checker (LMC) — the paper's contribution (§4).

    Instead of global states, LMC keeps one store of traversed states
    {e per node} ([LS_n]) and a single shared network [I+] holding
    every message generated during checking; delivered messages are
    never removed (the monotonic-network abstraction, Fig. 8), so each
    message is eventually applied to every traversed state of its
    destination, which preserves completeness.

    System states exist only transiently: after each new node state,
    Cartesian combinations with the other nodes' stores are built just
    to evaluate the user invariant ([checkSystemInvariant], Fig. 9).
    A combination that violates the invariant is only a {e preliminary}
    violation — it may be unreachable — and is confirmed by
    {!Soundness} before being reported.

    Two system-state creation strategies:
    {ul
    {- [General] (LMC-GEN, the paper's Fig. 10 baseline): the full
       product of the stores;}
    {- [Automatic]: the pruning is read off the invariant's
       {!Dsm.Invariant.shape}, in place of the paper's hand-written
       LMC-OPT abstraction.  A {!Dsm.Invariant.for_all_pairs}
       invariant's key plays that abstraction's role: combinations are
       built only around two node states whose keys conflict, and a
       state with no key is never combined at all.}} *)

(** Cross-restart persistence, built from {!Store.Checkpoint} stores.
    Not parameterised by the protocol, so the online supervisor builds
    it once and threads it through every [Make(P)] restart. *)
type persist = {
  p_combos : Store.Fp_set.t;
      (** combinations whose invariant check came back clean; an
          invariant verdict is a pure function of the combination, so a
          clean combination stays clean and warm restarts skip it *)
  p_nodes : Store.Fp_set.t array;
      (** per-node visited node-state fingerprints, across restarts *)
  p_iplus : Store.Fp_set.t;
      (** every message that ever entered [I+] *)
}

module Make (P : Dsm.Protocol.S) : sig
  (** How system states are created for invariant checking. *)
  type strategy =
    | General
    | Automatic
        (** derive the pruning from the invariant's shape — the paper's
            future-work idea made concrete.  A new node state seeds
            combinations only if it has a key: for
            {!Dsm.Invariant.for_all_pairs}, with each partner whose key
            conflicts with it; for {!Dsm.Invariant.for_all_nodes}, when
            it violates on its own.  A combination holding such a seed
            is built when its newest component is created, keyed or
            not — when [General] builds it — so [Automatic] checks
            every combination [General] checks that can violate, at
            the same point of exploration, whether the run completes
            or a budget cuts it short.  An opaque invariant falls back
            to [General].  Pairwise keys are interned once per node
            state, and [conflict] is asked once per pair of distinct
            keys in a run (the [lmc.conflict_evals] counter). *)

  type config = {
    max_depth : int option;
        (** bound on the number of events of a system state (the sum
            of its node states' path depths); per-node path depths are
            bounded by the same value *)
    time_limit : float option;  (** wall-clock seconds *)
    max_transitions : int option;
    local_action_bound : int option;
        (** max internal actions per node along a path (§4.2 "Local
            events") *)
    crash_budget : int;
        (** crash-recovery events explored per node path.  A crash is a
            local event that rewrites the node state through
            {!Dsm.Protocol.S.on_recover} — it requires no message and
            produces none, so soundness schedules it like any other
            history entry.  [0] (the default) skips the crash pass
            entirely and reproduces the crash-free state graph
            bit-for-bit. *)
    create_system_states : bool;
        (** disable for the LMC-explore configuration of Fig. 13 *)
    verify_soundness : bool;
        (** disable for the LMC-system-state configuration of Fig. 13;
            preliminary violations are then counted but not reported *)
    use_history : bool;
        (** per-state message history suppressing redundant
            re-deliveries (§4.2 "Duplicate messages"); off only for
            ablations *)
    stop_on_violation : bool;
    max_paths_per_entry : int;
        (** cap on event sequences enumerated per node state during
            soundness verification *)
    max_sequence_combos : int;
        (** cap on sequence combinations per soundness invocation *)
    soundness_budget : int;  (** backtracking budget per sequence set *)
    max_preds_per_entry : int;
        (** cap on predecessor pointers kept per node state; with the
            history simplification, the soundness budget and this cap,
            the only sources of incompleteness are explicit and
            configurable *)
    reverify_rejected : bool;
        (** cache soundness-rejected violations and re-verify them after
            exploration settles, when later-added predecessor pointers
            may have made them schedulable (§4.2's suggested remedy) *)
    max_rejected_cache : int;  (** size bound on that cache *)
    soundness_via_sequences : bool;
        (** use the paper's explicit sequence-combination enumeration
            instead of the default DAG-product search; kept for
            ablation — the enumeration samples an exponential path
            space under [max_paths_per_entry]/[max_sequence_combos]
            and can miss the one schedulable combination *)
    defer_soundness : bool;
        (** postpone all soundness verification to a single pass after
            exploration settles — the decoupling the paper's third
            contribution highlights.  Deferred checks see the final
            predecessor DAGs (strictly more complete than inline
            checking) and can be parallelised via [verify_domains].
            Trade-off: no early stop on the first confirmed bug. *)
    verify_domains : int;
        (** worker domains for the deferred/re-verification pass
            ("the model checking process can be embarrassingly
            parallelized"); 1 = serial.  Only the DAG soundness mode
            parallelises. *)
    domains : int;
        (** worker domains for {e exploration}: per-message and
            per-node compute batches (handler executions,
            fingerprints) and combination invariant checks fan out
            over a {!Par.Pool}; results are applied in submission
            order, so any domain count produces bit-identical results
            — verdicts, counters, witness traces — to [domains = 1].
            Requires handlers, [enabled_actions] and the invariant to
            be pure.  Independent of [verify_domains] (the
            verification fan-out).  1 = the unchanged sequential
            path. *)
    pool : Par.Pool.t option;
        (** run exploration on a caller-owned pool instead of
            spawning one per run — {!Online.Online_mc} shares a pool
            across its budgeted restarts this way.  The pool is
            borrowed, never shut down; when set it overrides
            [domains]. *)
    obs : Obs.scope;
        (** observability scope.  Counters mirroring every [result]
            tally ([lmc.transitions], [lmc.node_states],
            [lmc.soundness_calls], ...) are always recorded —
            single atomic increments, safe under [verify_domains > 1];
            structured events ([lmc.node_state],
            [lmc.preliminary_violation], [lmc.sound_violation],
            [lmc.round] / [lmc.reverify] spans) flow to the scope's
            sinks, and a periodic ["progress"] heartbeat reports
            explored states / |I+| / preliminary violations during
            long runs.  Defaults to {!Obs.null} (no sinks, throwaway
            registry). *)
    trace : Obs.Trace.t;
        (** flight recorder.  When enabled, every explored transition
            is logged as a causal [trace.v1] record (acting node,
            handler label, consumed/produced message fingerprints with
            I+ provenance, state fingerprints before/after, depth),
            together with the soundness search's own records
            (preliminary violations, per-call verdicts, rejections and
            why), fully replayable violation witnesses, and per-phase
            time attribution.  Records are emitted only on the
            sequential apply path, so the stream's fingerprints are
            bit-identical for any [domains] /​ [verify_domains] value.
            Defaults to {!Obs.Trace.null} (disabled; the hot loops pay
            one branch). *)
    on_new_node_state : (Dsm.Node_id.t -> P.state -> unit) option;
        (** @deprecated superseded by the [obs] event stream: the
            callback is kept working but is now just one more
            subscriber of the [lmc.node_state] notification (fired
            once per newly visited node state).  New code should
            attach an {!Obs.Sink} instead. *)
    persist : persist option;
        (** disk-backed stores shared across restarts ({!persist}).
            When set, every combination consults the on-disk set of
            proven-clean combinations before a system state is created;
            clean verdicts are recorded back.  Skips and inserts happen
            on the sequential apply path only, so verdicts and traces
            stay bit-identical at any [domains] value.  Violating
            combinations are never stored: soundness depends on the
            snapshot, so they must be re-judged on every restart.
            Default [None]. *)
    symmetry : Dsm.Symmetry.group;
        (** audited role-permutation group for combination orbit
            deduplication.  A combination whose slot-permuted
            fingerprint tuple canonicalizes to one already proven
            invariant-clean is skipped without re-evaluating the
            invariant.  {b Sound iff the invariant is slot-symmetric
            under the group} (its verdict does not depend on which node
            holds which state) — audit with [Lint.Symmetry] before
            passing anything but the identity group.  Only clean
            verdicts are orbit-shared, so the first violating
            combination in enumeration order — and hence the verdict,
            witness and preliminary-violation count — is bit-identical
            to an unreduced run.  Orbit bookkeeping happens on the
            sequential apply path only, so results also stay
            bit-identical at any [domains] value.  With
            [config.persist], the persisted key becomes the canonical
            (orbit-representative) fingerprint — itself the raw
            fingerprint of a real combination, so stores interoperate
            between reduced and unreduced runs (mismatched lookups can
            only re-check, never skip unsoundly).  Default: the
            identity group (no reduction). *)
  }

  val default_config : config

  type violation = {
    system : P.state array;  (** the violating system state *)
    violation : Dsm.Invariant.violation;
    schedule : (P.message, P.action) Dsm.Trace.t;
        (** a witness total order of events from the snapshot to the
            violating system state, found by soundness verification *)
    system_depth : int;  (** events in the witness schedule *)
  }

  type result = {
    node_states : int array;  (** per-node store sizes (|LS_n|) *)
    total_node_states : int;
    transitions : int;  (** handler executions *)
    net_messages : int;  (** |I+| at the end *)
    system_states_created : int;
    preliminary_violations : int;
    sound_violation : violation option;
    soundness_calls : int;  (** isStateSound invocations *)
    sequences_checked : int;
        (** event-sequence combinations fed to the soundness engine *)
    soundness_rejections : int;
        (** preliminary violations not confirmed (proven unreachable,
            or undecided within the soundness budget) *)
    soundness_prefilter_rejections : int;
        (** the part of [soundness_rejections] the DAG prefilter
            decided, before any search: some component must consume a
            message no component produces *)
    soundness_search_rejections : int;
        (** the rest of [soundness_rejections]: the interleaving search
            ran and found no valid order, or ran out of budget (every
            sequence-mode rejection counts here) *)
    soundness_budget_exhausted : int;
        (** soundness checks that ran out of search budget — counted
            within [soundness_rejections]; a nonzero value means some
            rejections are "unknown", not "proven invalid" *)
    local_assert_drops : int;  (** node states discarded per §4.2 *)
    store_hits : int;
        (** combinations skipped because a previous run (or an earlier
            restart) already proved them invariant-clean; [0] without
            [config.persist] *)
    orbit_hits : int;
        (** combinations skipped because a slot permutation of them
            was proven invariant-clean earlier in this run; [0] with
            the identity group *)
    completed : bool;  (** fixpoint reached within budget *)
    elapsed : float;
    system_state_time : float;
        (** seconds spent creating system states and checking the
            invariant on them *)
    soundness_time : float;  (** seconds spent in soundness checks *)
    retained_bytes : int;
        (** analytic footprint of the node stores and I+ (Fig. 12) *)
    max_system_depth : int;
        (** deepest system state created (events) *)
    max_node_depth : int;
        (** longest per-node event path explored *)
  }

  (** Exploration time excluding system-state creation and soundness
      verification (the LMC-explore series of Fig. 13). *)
  val explore_time : result -> float

  (** [run config ~strategy ~invariant snapshot] runs [findBugs] from
      the live system state [snapshot] (node states indexed by id).
      [I+] starts empty, as in Fig. 9 line 2. *)
  val run :
    config ->
    strategy:strategy ->
    invariant:P.state Dsm.Invariant.t ->
    P.state array ->
    result
end
