(* Cross-restart persistence (lib/store): not parameterised by the
   protocol, so the online supervisor can build it once and thread it
   through every [Make(P)] restart. *)
type persist = {
  p_combos : Store.Fp_set.t;
      (* combinations whose invariant check came back clean; the
         verdict is a pure function of the tuple, so a clean
         combination stays clean and warm restarts skip it *)
  p_nodes : Store.Fp_set.t array;
      (* per-node visited node-state fingerprints, across restarts *)
  p_iplus : Store.Fp_set.t;  (* every message that ever entered I+ *)
}

module Make (P : Dsm.Protocol.S) = struct
  module Envelope = Dsm.Envelope
  module Fingerprint = Dsm.Fingerprint
  module Vec = Dsm.Vec
  module Trace = Dsm.Trace

  type strategy = General | Automatic

  (* How combinations are seeded, unpacked once per run from the
     strategy and the invariant's shape.  A keyed entry's key is
     computed once, when the entry is created; a keyless entry never
     seeds a combination. *)
  type 'k prune =
    | Full  (* [General], or an invariant of no known shape *)
    | Nodewise of (Dsm.Node_id.t -> P.state -> 'k option)
        (* keyed iff the state violates on its own *)
    | Pairwise of {
        key : Dsm.Node_id.t -> P.state -> 'k option;
        conflict : 'k -> 'k -> string option;
      }

  type config = {
    max_depth : int option;
    time_limit : float option;
    max_transitions : int option;
    local_action_bound : int option;
    crash_budget : int;
        (* crash-recovery events allowed per node path; 0 (default)
           explores no crashes and leaves the state graph untouched *)
    create_system_states : bool;
    verify_soundness : bool;
    use_history : bool;
    stop_on_violation : bool;
    max_paths_per_entry : int;
    max_sequence_combos : int;
    soundness_budget : int;
    max_preds_per_entry : int;
    reverify_rejected : bool;
    max_rejected_cache : int;
    soundness_via_sequences : bool;
    defer_soundness : bool;
    verify_domains : int;
    domains : int;
    pool : Par.Pool.t option;
    obs : Obs.scope;
    trace : Obs.Trace.t;
    on_new_node_state : (Dsm.Node_id.t -> P.state -> unit) option;
    persist : persist option;
        (* disk-backed stores shared across restarts; combination
           skips happen on the sequential apply path only, so verdicts
           stay bit-identical at any domain count *)
    symmetry : Dsm.Symmetry.group;
        (* audited role-permutation group for combination orbit
           deduplication: combinations whose slot-permuted fingerprint
           tuple was already proven invariant-clean are skipped.  Sound
           iff the invariant is slot-symmetric under the group —
           audited by [Lint.Symmetry]; the checker trusts the caller.
           Only clean verdicts are orbit-shared, so the first violating
           combination (verdict, witness, preliminary count) is
           bit-identical to a run with the identity group.  All orbit
           bookkeeping lives on the sequential apply path. *)
  }

  let default_config =
    {
      max_depth = None;
      time_limit = None;
      max_transitions = None;
      local_action_bound = None;
      crash_budget = 0;
      create_system_states = true;
      verify_soundness = true;
      use_history = true;
      stop_on_violation = true;
      max_paths_per_entry = 64;
      max_sequence_combos = 4096;
      soundness_budget = 50_000;
      max_preds_per_entry = 256;
      reverify_rejected = true;
      max_rejected_cache = 20_000;
      soundness_via_sequences = false;
      defer_soundness = false;
      verify_domains = 1;
      domains = 1;
      pool = None;
      obs = Obs.null;
      trace = Obs.Trace.null;
      on_new_node_state = None;
      persist = None;
      symmetry = Dsm.Symmetry.identity_group P.num_nodes;
    }

  type violation = {
    system : P.state array;
    violation : Dsm.Invariant.violation;
    schedule : (P.message, P.action) Trace.t;
    system_depth : int;
  }

  type result = {
    node_states : int array;
    total_node_states : int;
    transitions : int;
    net_messages : int;
    system_states_created : int;
    preliminary_violations : int;
    sound_violation : violation option;
    soundness_calls : int;
    sequences_checked : int;
    soundness_rejections : int;
    soundness_prefilter_rejections : int;
    soundness_search_rejections : int;
    soundness_budget_exhausted : int;
    local_assert_drops : int;
    store_hits : int;
        (** combinations skipped because a previous (or earlier) run
            already proved them invariant-clean; [0] without
            [config.persist] *)
    orbit_hits : int;
        (** combinations skipped because a slot permutation of them was
            already proven invariant-clean this run; [0] with the
            identity group *)
    completed : bool;
    elapsed : float;
    system_state_time : float;
    soundness_time : float;
    retained_bytes : int;
    max_system_depth : int;
    max_node_depth : int;
  }

  let explore_time r = r.elapsed -. r.system_state_time -. r.soundness_time

  type event_kind = Net_event of int | Action_event of P.action | Crash_event

  type event_info = {
    label : Fingerprint.t;
    kind : event_kind;
    requires : Fingerprint.t option;
    produces : Fingerprint.t list;
  }

  type pred = { prev : int option; event : event_info }

  type 'k entry = {
    idx : int;
    node : Dsm.Node_id.t;
    root : bool;
    state : P.state;
    fp : Fingerprint.t;
    history : Fingerprint.Set.t;
    depth : int;
    local_count : int;
    crashes : int;  (* crash-recoveries consumed on the path here *)
    key : 'k option;
    mutable preds : pred list;
    mutable fp_hex : string option;
        (* hex rendering of [fp], cached — every outgoing transition
           of this entry puts it in a step record's [fp_before] *)
    mutable summary : (int * Soundness.summary) option;
        (* soundness-prefilter summary of this entry's predecessor
           DAG, stamped with its node's [generation] when computed *)
  }

  type net_entry = {
    net_id : int;
    env : P.message Envelope.t;
    net_fp : Fingerprint.t;
    mutable cursor : int;  (* states of [env.dst] already served *)
    mutable first_inj : int;
        (* I+ provenance: seq of the step record that first injected
           this message; -1 = predates recording (or recording off) *)
    mutable lbl : string option;
        (* rendered payload, cached — exploration delivers the same
           message to many states, the trace renders it once *)
    mutable hex : string option;  (* hex of [net_fp], same reuse story *)
    mutable frm : string option;
        (* profiler frame name ("deliver:Accept"), cached on the entry
           so the per-transition push is a field read, not a lookup *)
  }

  (* A soundness-rejected preliminary violation, cached so it can be
     re-verified once exploration has added more predecessor pointers
     (the remedy §4.2 suggests for the simplification of verifying only
     at state-creation time). *)
  type 'k rejected = {
    r_tuple : 'k entry array;
    r_system : P.state array;
    r_violation : Dsm.Invariant.violation;
    r_depth : int;
  }

  (* Pre-resolved metric handles: the registry lookup happens once per
     run, the hot loops pay one atomic increment per update.  The
     counters mirror the [result] record exactly, so a metrics dump of
     a finished run agrees with the printed summary. *)
  type obs_handles = {
    scope : Obs.scope;
    soundness_obs : Obs.scope option;
        (* [None] for the null scope, sparing {!Soundness} the
           per-call recording entirely *)
    prof : Obs.Prof.t option;
        (* the scope's sampling profiler, resolved once; frames are
           pushed on the sequential apply path only, like trace
           records, so profiles never depend on domain scheduling *)
    fam_act : (P.action, string) Hashtbl.t;
        (* action -> profiler frame name ("action:Propose"), touched
           only when a profiler is attached; delivery frames are
           cached on the net entry itself ([net_entry.frm]) *)
    node_state_observers : (Dsm.Node_id.t -> P.state -> unit) list;
        (* subscribers of the lmc.node_state stream; the deprecated
           [on_new_node_state] callback is re-implemented as one *)
    c_transitions : Obs.Metrics.counter;
    c_node_states : Obs.Metrics.counter;
    c_net_messages : Obs.Metrics.counter;
    c_system_states : Obs.Metrics.counter;
    c_prelim : Obs.Metrics.counter;
    c_soundness_calls : Obs.Metrics.counter;
    c_sequences : Obs.Metrics.counter;
    c_rejections : Obs.Metrics.counter;
    c_prefilter_rejections : Obs.Metrics.counter;
    c_search_rejections : Obs.Metrics.counter;
    c_summary_hits : Obs.Metrics.counter;
    c_summary_misses : Obs.Metrics.counter;
    c_budget_exhausted : Obs.Metrics.counter;
    c_local_drops : Obs.Metrics.counter;
    c_store_hits : Obs.Metrics.counter;
    c_orbit_hits : Obs.Metrics.counter;
    h_system_depth : Obs.Metrics.histogram;
    h_node_depth : Obs.Metrics.histogram;
    h_soundness_us : Obs.Metrics.histogram;
  }

  let make_obs_handles (config : config) =
    let scope = config.obs in
    {
      scope;
      soundness_obs = (if Obs.is_null scope then None else Some scope);
      prof = Obs.prof scope;
      fam_act = Hashtbl.create 16;
      node_state_observers =
        (match config.on_new_node_state with Some f -> [ f ] | None -> []);
      c_transitions = Obs.counter scope "lmc.transitions";
      c_node_states = Obs.counter scope "lmc.node_states";
      c_net_messages = Obs.counter scope "lmc.net_messages";
      c_system_states = Obs.counter scope "lmc.system_states_created";
      c_prelim = Obs.counter scope "lmc.preliminary_violations";
      c_soundness_calls = Obs.counter scope "lmc.soundness_calls";
      c_sequences = Obs.counter scope "lmc.sequences_checked";
      c_rejections = Obs.counter scope "lmc.soundness_rejections";
      c_prefilter_rejections =
        Obs.counter scope "lmc.soundness_prefilter_rejections";
      c_search_rejections = Obs.counter scope "lmc.soundness_search_rejections";
      c_summary_hits = Obs.counter scope "lmc.soundness_summary_hits";
      c_summary_misses = Obs.counter scope "lmc.soundness_summary_misses";
      c_budget_exhausted = Obs.counter scope "lmc.soundness_budget_exhausted";
      c_local_drops = Obs.counter scope "lmc.local_assert_drops";
      c_store_hits = Obs.counter scope "lmc.store_hits";
      c_orbit_hits = Obs.counter scope "lmc.orbit_hits";
      h_system_depth = Obs.histogram scope "lmc.system_depth";
      h_node_depth = Obs.histogram scope "lmc.node_depth";
      h_soundness_us = Obs.histogram scope "lmc.soundness_us";
    }

  (* Witness records embed marshalled protocol values so [lmc replay]
     can re-execute them against the live handlers. *)
  module RW = Obs.Replay.Make (P)

  type 'k t = {
    config : config;
    crash_labels : Fingerprint.t array array;
        (* [crash_labels.(n).(k)]: label of node [n]'s (k+1)-th
           crash-recovery, precomputed so the hot path never hashes;
           empty when [crash_budget = 0] *)
    o : obs_handles;
    tracing : bool;  (* [config.trace] is enabled; gates field assembly *)
    soundness_trace : Obs.Trace.t option;
        (* passed to {!Soundness} only on the sequential path *)
    snapshot : P.state array;  (* starting states, for witness records *)
    ph_handler_us : int Atomic.t;
    ph_fingerprint_us : int Atomic.t;
    ph_invariant_us : int Atomic.t;
        (* per-phase attribution, accumulated from any domain *)
    mutable timed_tick : int;
        (* sampling cursor for {!timed}.  Deliberately non-atomic: an
           occasionally lost increment only perturbs which calls get
           sampled, and an atomic op on every handler / invariant call
           is exactly the cost the sampling exists to avoid. *)
    act_lbl : (P.action, string) Hashtbl.t;
        (* rendered action labels, cached like [net_entry.lbl] *)
    prune : 'k prune;
    invariant : P.state Dsm.Invariant.t;
    stores : 'k entry Vec.t array;
    generation : int array;
        (* per node, bumped whenever a predecessor pointer is appended
           to one of its existing entries — the only event that can
           change an existing entry's predecessor DAG, so a summary
           stamped with the current generation is current *)
    by_fp : (Fingerprint.t, int) Hashtbl.t array;
    action_cursor : int array;  (* states already expanded for actions *)
    crash_cursor : int array;  (* states already expanded for crashes *)
    net : net_entry Vec.t;
    net_by_fp : (Fingerprint.t, int) Hashtbl.t;
    seeds : 'k entry array Vec.t;
        (* the entries each [Automatic] seed pinned: one violating
           entry, or a conflicting pair *)
    reduce : bool;  (* [config.symmetry] is non-trivial *)
    orbit_clean : (Fingerprint.t, unit) Hashtbl.t;
        (* canonical (least slot-permuted) fingerprints of combinations
           proven invariant-clean this run; read and written on the
           sequential apply path only *)
    rejected : 'k rejected Vec.t;
    pool : Par.Pool.t option;
        (* exploration pool ([config.domains]); independent of the
           deferred-verification fan-out ([config.verify_domains]) *)
    combo_buf : ('k entry array * int * Fingerprint.t option) Vec.t;
        (* combination tuples awaiting a batched invariant check (with
           their store fingerprint when [config.persist] is set);
           always drained before [check_system_invariant] returns *)
    started : float;
    mutable transitions : int;
    mutable system_states_created : int;
    mutable store_hits : int;
    mutable orbit_hits : int;
    mutable preliminary_violations : int;
    mutable soundness_calls : int;
    mutable sequences_checked : int;
    mutable soundness_rejections : int;
    mutable prefilter_rejections : int;
    mutable search_rejections : int;
    mutable local_assert_drops : int;
    mutable soundness_budget_exhausted : int;
    mutable sound_violation : violation option;
    mutable system_state_time : float;
    mutable soundness_time : float;
    mutable max_system_depth : int;
    mutable max_node_depth : int;
    mutable truncated : bool;
  }

  exception Stop

  let now () = Unix.gettimeofday ()

  let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

  (* Attribute [f]'s wall time to [cell] when recording; free otherwise.
     Worker domains call this concurrently — the cells are atomic.
     Attribution is sampled: every 256th call is timed and counted for
     256, so the hot path pays two clock reads on 0.4% of calls
     instead of all of them.  Invariant checks on tuple states make
     this wrapper far hotter than the step records themselves (tuple
     enumeration grows with depth while the state graph saturates), so
     the sampling stride is what keeps the ring recorder inside its 2%
     budget.  The phases record is a statistical profile either way —
     wall-clock is not part of the determinism contract. *)
  let sample_mask = 255

  let timed t cell f =
    let tick = t.timed_tick in
    t.timed_tick <- tick + 1;
    if t.tracing && tick land sample_mask = 0 then begin
      let t0 = now_us () in
      let r = f () in
      ignore
        (Atomic.fetch_and_add cell ((now_us () - t0) * (sample_mask + 1)));
      r
    end
    else f ()

  (* ----- flight-recorder emission (sequential apply path only) ----- *)

  (* Label caches: exploration revisits the same messages and actions
     constantly, so each distinct value is rendered through Format
     once and the trace reuses the string.  Only touched from record
     thunks, which run on the sequential apply path or single-threaded
     at ring dump time. *)
  let message_label (m : net_entry) =
    match m.lbl with
    | Some l -> l
    | None ->
        let l = Format.asprintf "%a" P.pp_message m.env.Envelope.payload in
        m.lbl <- Some l;
        l

  let action_label t action =
    match Hashtbl.find_opt t.act_lbl action with
    | Some l -> l
    | None ->
        let l = Format.asprintf "%a" P.pp_action action in
        Hashtbl.add t.act_lbl action l;
        l

  let message_hex (m : net_entry) =
    match m.hex with
    | Some h -> h
    | None ->
        let h = Fingerprint.to_hex m.net_fp in
        m.hex <- Some h;
        h

  (* ----- profiler frames (sequential apply path only) ----- *)

  (* Frame names group by label *family* — the constructor before any
     payload — so "Accept(2,7)" and "Accept(3,1)" share one flamegraph
     frame.  Memoised per rendered label; only touched with a profiler
     attached. *)
  let label_family label =
    let cut = ref (String.length label) in
    (match String.index_opt label '(' with
    | Some i -> if i < !cut then cut := i
    | None -> ());
    (match String.index_opt label ' ' with
    | Some i -> if i < !cut then cut := i
    | None -> ());
    String.sub label 0 !cut

  let net_frame (m : net_entry) =
    match m.frm with
    | Some f -> f
    | None ->
        let f = "deliver:" ^ label_family (message_label m) in
        m.frm <- Some f;
        f

  let action_frame t action =
    match Hashtbl.find_opt t.o.fam_act action with
    | Some f -> f
    | None ->
        let f = "action:" ^ label_family (action_label t action) in
        Hashtbl.add t.o.fam_act action f;
        f

  let entry_hex (e : 'k entry) =
    match e.fp_hex with
    | Some h -> h
    | None ->
        let h = Fingerprint.to_hex e.fp in
        e.fp_hex <- Some h;
        h

  (* [label] is a thunk: rendering a message or action goes through
     Format, which is the most expensive part of assembling a step
     record.  Deferring it (with the hex conversions) into the record
     thunk means ring-mode recording pays neither per transition.
     Provenance stays eager — [consumed] carries the [first_inj] the
     caller read before this emit, and the produced entries are
     stamped right after it, because a read deferred to dump time
     could see a later injection. *)
  let stamp_injections pentries seq =
    List.iter
      (fun e -> if e.first_inj < 0 then e.first_inj <- seq)
      pentries

  let record_net_step t (m : net_entry) (entry : 'k entry) ~fp_after ~pentries
      =
    let consumed_inj = m.first_inj in
    let depth = entry.depth + 1 in
    let seq =
      Obs.Trace.record_step_lazy t.config.trace (fun () ->
          {
            Obs.Trace.node = m.env.Envelope.dst;
            kind = Obs.Trace.Deliver;
            src = m.env.Envelope.src;
            label = message_label m;
            fp_before = entry_hex entry;
            fp_after = Fingerprint.to_hex fp_after;
            consumed = Some (message_hex m, consumed_inj);
            produced = List.map message_hex pentries;
            depth;
            dom = 0;
          })
    in
    stamp_injections pentries seq

  let record_act_step t ~node action (entry : 'k entry) ~fp_after ~pentries =
    let depth = entry.depth + 1 in
    let seq =
      Obs.Trace.record_step_lazy t.config.trace (fun () ->
          {
            Obs.Trace.node;
            kind = Obs.Trace.Action;
            src = -1;
            label = action_label t action;
            fp_before = entry_hex entry;
            fp_after = Fingerprint.to_hex fp_after;
            consumed = None;
            produced = List.map message_hex pentries;
            depth;
            dom = 0;
          })
    in
    stamp_injections pentries seq

  let record_crash_step t ~node (entry : 'k entry) ~fp_after =
    ignore
      (Obs.Trace.record_step_lazy t.config.trace (fun () ->
           {
             Obs.Trace.node;
             kind = Obs.Trace.Crash;
             src = -1;
             label = "crash-recover";
             fp_before = entry_hex entry;
             fp_after = Fingerprint.to_hex fp_after;
             consumed = None;
             produced = [];
             depth = entry.depth + 1;
             dom = 0;
           }))

  let record_drop t ~node ~kind ~src ~label ~fp_before ~depth =
    ignore
      (Obs.Trace.emit_lazy t.config.trace ~ev:"drop" (fun () ->
           [
             ("node", Dsm.Json.Int node);
             ("kind", Dsm.Json.String kind);
             ("src", Dsm.Json.Int src);
             ("label", Dsm.Json.String (label ()));
             ("fp_before", Dsm.Json.String (Fingerprint.to_hex fp_before));
             ("depth", Dsm.Json.Int depth);
           ]))

  let record_prelim t (violation : Dsm.Invariant.violation) sdepth
      (tuple : 'k entry array) =
    ignore
      (Obs.Trace.emit t.config.trace ~ev:"prelim"
         [
           ("invariant", Dsm.Json.String violation.Dsm.Invariant.invariant);
           ("detail", Dsm.Json.String violation.Dsm.Invariant.detail);
           ("system_depth", Dsm.Json.Int sdepth);
           ( "tuple",
             Dsm.Json.List
               (Array.to_list
                  (Array.map
                     (fun (e : 'k entry) ->
                       Dsm.Json.String (Fingerprint.to_hex e.fp))
                     tuple)) );
         ])

  let record_reject t (violation : Dsm.Invariant.violation) sdepth ~why =
    ignore
      (Obs.Trace.emit t.config.trace ~ev:"reject"
         [
           ("invariant", Dsm.Json.String violation.Dsm.Invariant.invariant);
           ("system_depth", Dsm.Json.Int sdepth);
           ("why", Dsm.Json.String why);
         ])

  let record_witness t (violation : Dsm.Invariant.violation) schedule =
    ignore
      (Obs.Trace.emit t.config.trace ~ev:"witness"
         (RW.witness_fields ~init:t.snapshot ~schedule
            ~invariant:violation.Dsm.Invariant.invariant
            ~detail:violation.Dsm.Invariant.detail))

  (* Live progress for long runs: explored node states, |I+| and the
     violation tallies (§5's headline numbers), reported while the
     checker is still working.  Sits on the per-transition path — the
     heartbeat's common case is a branch and an integer increment. *)
  let heartbeat t =
    Obs.heartbeat t.o.scope (fun () ->
        [
          ("transitions", Dsm.Json.Int t.transitions);
          ( "node_states",
            Dsm.Json.Int
              (Array.fold_left (fun acc s -> acc + Vec.length s) 0 t.stores)
          );
          ("net_messages", Dsm.Json.Int (Vec.length t.net));
          ("system_states", Dsm.Json.Int t.system_states_created);
          ("preliminary_violations", Dsm.Json.Int t.preliminary_violations);
          ("elapsed_s", Dsm.Json.Float (now () -. t.started));
        ])

  let check_budget t =
    heartbeat t;
    let over_time =
      match t.config.time_limit with
      | Some limit -> now () -. t.started > limit
      | None -> false
    in
    let over_transitions =
      match t.config.max_transitions with
      | Some limit -> t.transitions >= limit
      | None -> false
    in
    if over_time || over_transitions then begin
      t.truncated <- true;
      raise Stop
    end

  let entry_key t node state =
    match t.prune with
    | Full -> None
    | Nodewise key | Pairwise { key; _ } -> key node state

  (* Whether two keyed entries of distinct nodes can violate a pairwise
     invariant together; the lower node id goes first, as in
     {!Dsm.Invariant.for_all_pairs}'s check. *)
  let keys_conflict conflict (a : 'k entry) (b : 'k entry) =
    match (a.key, b.key) with
    | Some ka, Some kb ->
        Option.is_some
          (if a.node < b.node then conflict ka kb else conflict kb ka)
    | _ -> false

  let depth_allows t d =
    match t.config.max_depth with Some bound -> d <= bound | None -> true

  (* Add a generated message to the shared network I+, deduplicating by
     fingerprint (the paper's duplicate limit of zero).  The returned
     fingerprint always enters the producing event's [produces] list:
     soundness bookkeeping counts productions, not distinct contents.
     The fingerprint itself is computed separately ([register_message]
     takes it precomputed) so parallel rounds can hash message payloads
     on worker domains and register them on the main one. *)
  let register_message t env fp =
    match Hashtbl.find_opt t.net_by_fp fp with
    | Some id -> Vec.get t.net id
    | None ->
        let id = Vec.length t.net in
        let entry =
          {
            net_id = id;
            env;
            net_fp = fp;
            cursor = 0;
            first_inj = -1;
            lbl = None;
            hex = None;
            frm = None;
          }
        in
        ignore (Vec.push t.net entry);
        Hashtbl.replace t.net_by_fp fp id;
        (match t.config.persist with
        | Some p -> ignore (Store.Fp_set.add p.p_iplus fp)
        | None -> ());
        Obs.Metrics.incr t.o.c_net_messages;
        entry

  (* ----- soundness verification (isStateSound, Fig. 9) ----- *)

  (* All event sequences that can lead to [entry], by following the
     predecessor pointers backwards.  Self-references are ignored
     (§4.2) and cycles are cut by an on-path guard; the number of
     sequences is capped. *)
  let enumerate_paths t (entry : 'k entry) : event_info list list =
    let store = t.stores.(entry.node) in
    let results = ref [] in
    let count = ref 0 in
    let max_paths = t.config.max_paths_per_entry in
    let rec walk e suffix on_path =
      if !count >= max_paths then ()
      else if e.root then begin
        results := suffix :: !results;
        incr count
      end
      else
        List.iter
          (fun p ->
            if !count < max_paths then
              match p.prev with
              | None -> ()
              | Some i when i = e.idx -> ()
              | Some i when List.mem i on_path -> ()
              | Some i ->
                  walk (Vec.get store i) (p.event :: suffix) (e.idx :: on_path))
          e.preds
    in
    walk entry [] [];
    !results

  let to_soundness_sequence node events : Soundness.sequence =
    List.map
      (fun (e : event_info) ->
        {
          Soundness.node;
          label = e.label;
          requires = e.requires;
          produces = e.produces;
        })
      events

  let step_of_event t node (e : event_info) : (P.message, P.action) Trace.step =
    match e.kind with
    | Net_event id -> Trace.Deliver (Vec.get t.net id).env
    | Action_event a -> Trace.Execute (node, a)
    | Crash_event -> Trace.Crash node

  (* The predecessor DAG of one component node state, restricted to the
     backward closure of the target.  Self-references are ignored
     (§4.2); cycles are tolerated, the memoised search handles them.
     [by_label], when given, learns every event, for mapping a witness
     order back to protocol steps. *)
  let build_graph ?by_label t (entry : 'k entry) : Soundness.node_graph =
    (* Even a snapshot-state target can carry self-edges (events that
       produced messages without changing the state), so the closure is
       built uniformly. *)
    begin
      let store = t.stores.(entry.node) in
      let seen = Hashtbl.create 64 in
      let edges = ref [] in
      let stack = ref [ entry.idx ] in
      Hashtbl.replace seen entry.idx ();
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | i :: rest ->
            stack := rest;
            let e = Vec.get store i in
            List.iter
              (fun (p : pred) ->
                match p.prev with
                | None -> ()
                | Some j ->
                    (* self-edges (j = i) carry productions of events
                       that left the state unchanged; the DAG search
                       may traverse them *)
                    Option.iter
                      (fun tbl ->
                        Hashtbl.replace tbl (entry.node, p.event.label) p.event)
                      by_label;
                    edges :=
                      ( j,
                        {
                          Soundness.node = entry.node;
                          label = p.event.label;
                          requires = p.event.requires;
                          produces = p.event.produces;
                        },
                        i )
                      :: !edges;
                    if not (Hashtbl.mem seen j) then begin
                      Hashtbl.replace seen j ();
                      stack := j :: !stack
                    end)
              e.preds
      done;
      { Soundness.root = 0; target = entry.idx; edges = !edges }
    end

  (* The entry's prefilter summary, from its cache when no predecessor
     was appended to its node since it was computed.  Only summaries
     are cached: the graph itself is rebuilt for the few tuples that
     pass the prefilter.  Sequential apply path only. *)
  let summary_of t (entry : 'k entry) =
    let gen = t.generation.(entry.node) in
    match entry.summary with
    | Some (g, s) when g = gen ->
        Obs.Metrics.incr t.o.c_summary_hits;
        s
    | _ ->
        Obs.Metrics.incr t.o.c_summary_misses;
        let s = Soundness.summarize (build_graph t entry) in
        entry.summary <- Some (gen, s);
        s

  let count_rejection t ~prefiltered =
    t.soundness_rejections <- t.soundness_rejections + 1;
    Obs.Metrics.incr t.o.c_rejections;
    if prefiltered then begin
      t.prefilter_rejections <- t.prefilter_rejections + 1;
      Obs.Metrics.incr t.o.c_prefilter_rejections
    end
    else begin
      t.search_rejections <- t.search_rejections + 1;
      Obs.Metrics.incr t.o.c_search_rejections
    end

  (* Confirm a preliminary violation (isStateSound): either search the
     product of the per-node predecessor DAGs directly (default), or
     enumerate explicit event-sequence combinations as in the paper. *)
  let verify_soundness_run ?(cache_rejection = true) t
      (tuple : 'k entry array) system violation sdepth =
    t.soundness_calls <- t.soundness_calls + 1;
    Obs.Metrics.incr t.o.c_soundness_calls;
    let t0 = now () in
    (* Map a scheduled event back to its protocol-level step. *)
    let by_label : (Dsm.Node_id.t * Fingerprint.t, event_info) Hashtbl.t =
      Hashtbl.create 64
    in
    let found = ref None in
    let exhausted = ref false in
    let prefiltered = ref false in
    if t.config.soundness_via_sequences then begin
      let paths =
        Array.map (fun e -> Array.of_list (enumerate_paths t e)) tuple
      in
      Array.iteri
        (fun n node_paths ->
          Array.iter
            (List.iter (fun (e : event_info) ->
                 Hashtbl.replace by_label (n, e.label) e))
            node_paths)
        paths;
      let combos = ref 0 in
      ignore
        (Combination.iter paths (fun sequences ->
             incr combos;
             t.sequences_checked <- t.sequences_checked + 1;
             Obs.Metrics.incr t.o.c_sequences;
             let seqs =
               Array.mapi (fun n evs -> to_soundness_sequence n evs) sequences
             in
             match
               Soundness.check ?obs:t.o.soundness_obs
                 ?trace:t.soundness_trace ~budget:t.config.soundness_budget
                 ~initial_net:[] seqs
             with
             | Soundness.Valid order ->
                 found := Some order;
                 `Stop
             | Soundness.Invalid ->
                 if !combos >= t.config.max_sequence_combos then `Stop
                 else `Continue
             | Soundness.Budget_exhausted ->
                 exhausted := true;
                 if !combos >= t.config.max_sequence_combos then `Stop
                 else `Continue))
    end
    else begin
      t.sequences_checked <- t.sequences_checked + 1;
      Obs.Metrics.incr t.o.c_sequences;
      let summaries = Array.map (summary_of t) tuple in
      if
        not
          (Soundness.prefilter ?obs:t.o.soundness_obs
             ?trace:t.soundness_trace ~initial_net:[] summaries)
      then prefiltered := true
      else
        let graphs = Array.map (build_graph ~by_label t) tuple in
        match
          Soundness.check_dag ?obs:t.o.soundness_obs
            ?trace:t.soundness_trace ~budget:t.config.soundness_budget
            ~summaries ~initial_net:[] graphs
        with
        | Soundness.Valid order -> found := Some order
        | Soundness.Invalid -> ()
        | Soundness.Budget_exhausted ->
            exhausted := true;
            t.soundness_budget_exhausted <- t.soundness_budget_exhausted + 1;
            Obs.Metrics.incr t.o.c_budget_exhausted
    end;
    let spent = now () -. t0 in
    t.soundness_time <- t.soundness_time +. spent;
    Obs.Metrics.observe t.o.h_soundness_us
      (int_of_float (1e6 *. spent));
    match !found with
    | None ->
        if t.tracing then
          record_reject t violation sdepth
            ~why:(if !exhausted then "budget_exhausted" else "invalid");
        if cache_rejection then begin
          count_rejection t ~prefiltered:!prefiltered;
          if
            t.config.reverify_rejected
            && Vec.length t.rejected < t.config.max_rejected_cache
          then
            ignore
              (Vec.push t.rejected
                 {
                   r_tuple = tuple;
                   r_system = system;
                   r_violation = violation;
                   r_depth = sdepth;
                 })
        end
    | Some order ->
        let schedule =
          List.map
            (fun (sev : Soundness.event) ->
              match Hashtbl.find_opt by_label (sev.node, sev.label) with
              | Some e -> step_of_event t sev.node e
              | None -> assert false)
            order
        in
        ignore sdepth;
        t.sound_violation <-
          Some
            {
              system = Array.copy system;
              violation;
              schedule;
              (* the witness may include productive events that left a
                 node state unchanged, so its length can exceed the sum
                 of the component state depths *)
              system_depth = List.length schedule;
            };
        Obs.event t.o.scope "lmc.sound_violation"
          ~fields:
            [
              ("invariant", Dsm.Json.String violation.Dsm.Invariant.invariant);
              ("detail", Dsm.Json.String violation.Dsm.Invariant.detail);
              ("witness_events", Dsm.Json.Int (List.length schedule));
            ];
        if t.tracing then record_witness t violation schedule;
        if t.config.stop_on_violation then raise Stop

  (* Soundness verification under a boundary-sampled profiler frame:
     [Prof.enter]/[leave] pin the phase edges, so the (often long)
     search never bleeds into the enclosing combination frame. *)
  let verify_soundness ?cache_rejection t (tuple : 'k entry array) system
      violation sdepth =
    Obs.frame t.o.scope "soundness" (fun () ->
        verify_soundness_run ?cache_rejection t tuple system violation
          sdepth)

  (* ----- system state creation (checkSystemInvariant, Fig. 9) ----- *)

  let tuple_fp tuple =
    Fingerprint.combine (Array.to_list (Array.map (fun e -> e.fp) tuple))

  (* With a non-trivial symmetry group, combinations are keyed by the
     fingerprint of the lexicographically-least slot permutation of
     their tuple — which is the raw fingerprint of a real combination
     (the orbit representative), so persisted stores stay meaningful
     whether or not later runs reduce.  With the identity group this
     is [tuple_fp] bit for bit. *)
  let ctuple_fp t tuple =
    if t.reduce then
      Dsm.Symmetry.canonical_combo t.config.symmetry
        (Array.map (fun e -> e.fp) tuple)
    else tuple_fp tuple

  let orbit_hit t =
    t.orbit_hits <- t.orbit_hits + 1;
    Obs.Metrics.incr t.o.c_orbit_hits

  let mark_orbit_clean t = function
    | Some cfp when t.reduce -> Hashtbl.replace t.orbit_clean cfp ()
    | _ -> ()

  (* With [config.persist], every combination consults the on-disk set
     of proven-clean combinations before a system state is created: a
     hit is work some earlier restart already did.  Only clean
     verdicts are recorded — a violating combination must be re-judged
     from every snapshot, because soundness depends on the snapshot it
     is scheduled from.  All store reads and writes below happen on
     the sequential apply path, in submission order.

     With [config.symmetry], the in-memory orbit set is consulted
     first: a hit means a slot permutation of this tuple was already
     proven clean this run.  Violating combinations never enter the
     set, so reduction can only skip invariant evaluations that would
     have come back clean. *)
  let consider_combo t (tuple : 'k entry array) =
    check_budget t;
    let sdepth = Array.fold_left (fun acc e -> acc + e.depth) 0 tuple in
    if depth_allows t sdepth then begin
      let cfp =
        if t.reduce || t.config.persist <> None then
          Some (ctuple_fp t tuple)
        else None
      in
      let orbit_seen =
        match cfp with
        | Some f when t.reduce -> Hashtbl.mem t.orbit_clean f
        | _ -> false
      in
      if orbit_seen then orbit_hit t
      else
      let stored =
        match (t.config.persist, cfp) with
        | Some p, Some f -> Some (p, f)
        | _ -> None
      in
      match stored with
      | Some (p, f) when Store.Fp_set.mem p.p_combos f ->
          t.store_hits <- t.store_hits + 1;
          Obs.Metrics.incr t.o.c_store_hits;
          mark_orbit_clean t cfp
      | _ -> (
      t.system_states_created <- t.system_states_created + 1;
      Obs.Metrics.incr t.o.c_system_states;
      Obs.Metrics.observe t.o.h_system_depth sdepth;
      if sdepth > t.max_system_depth then t.max_system_depth <- sdepth;
      let system = Array.map (fun e -> e.state) tuple in
      match
        timed t t.ph_invariant_us (fun () ->
            Dsm.Invariant.check t.invariant system)
      with
      | None ->
          (match stored with
          | Some (p, f) -> ignore (Store.Fp_set.add p.p_combos f)
          | None -> ());
          mark_orbit_clean t cfp
      | Some violation ->
          t.preliminary_violations <- t.preliminary_violations + 1;
          Obs.Metrics.incr t.o.c_prelim;
          Obs.event t.o.scope "lmc.preliminary_violation"
            ~fields:
              [
                ( "invariant",
                  Dsm.Json.String violation.Dsm.Invariant.invariant );
                ("system_depth", Dsm.Json.Int sdepth);
              ];
          if t.tracing then record_prelim t violation sdepth tuple;
          if t.config.verify_soundness then begin
            if
              t.config.defer_soundness
              && Vec.length t.rejected < t.config.max_rejected_cache
            then
              (* Contribution 3 of the paper: exploration, system-state
                 creation and soundness verification are decoupled, so
                 verification can be postponed (and parallelised) after
                 exploration settles.  When the queue overflows we fall
                 back to verifying inline — never drop a preliminary
                 violation silently. *)
              ignore
                (Vec.push t.rejected
                   {
                     r_tuple = Array.copy tuple;
                     r_system = system;
                     r_violation = violation;
                     r_depth = sdepth;
                   })
            else verify_soundness t (Array.copy tuple) system violation sdepth
          end)
    end

  (* ----- batched combination checking (parallel rounds) -----

     With a pool attached, combination tuples are buffered during
     enumeration; the pure part of [consider_combo] — building the
     system array and running the invariant — fans out across domains,
     and verdicts are applied strictly in submission order, so every
     counter, event and Stop point lands exactly where the inline path
     would put it. *)

  type combo_verdict =
    | C_gated  (* system depth beyond the bound: budget check only *)
    | C_orbit  (* orbit prefilter hit: a slot image was proven clean *)
    | C_seen  (* store prefilter hit: proven clean by an earlier run *)
    | C_ok
    | C_viol of P.state array * Dsm.Invariant.violation

  let combo_buf_max = 1024
  let combo_chunk = 64

  let apply_combo t (tuple : 'k entry array) sdepth cfp verdict =
    check_budget t;
    let store_hit () =
      t.store_hits <- t.store_hits + 1;
      Obs.Metrics.incr t.o.c_store_hits
    in
    (* The prefilters in [flush_combos] are read-only and ran against
       the store / orbit set as of flush time; the checks here are the
       authoritative ones, in apply (= submission) order, so the store,
       the orbit set and every counter evolve exactly as the inline
       path's would.  The orbit check comes first, as in
       [consider_combo]: an earlier apply in this very batch may have
       proven a slot image of this tuple clean. *)
    let orbit_seen =
      match (verdict, cfp) with
      | C_gated, _ -> false
      | _, Some f when t.reduce -> Hashtbl.mem t.orbit_clean f
      | _ -> false
    in
    if orbit_seen then orbit_hit t
    else
    let store_skip =
      match (t.config.persist, cfp, verdict) with
      | _, _, (C_gated | C_orbit | C_seen) -> false
      | Some p, Some f, C_ok -> not (Store.Fp_set.add p.p_combos f)
      | Some p, Some f, C_viol _ -> Store.Fp_set.mem p.p_combos f
      | _ -> false
    in
    match verdict with
    | C_gated -> ()
    | C_orbit ->
        (* prefilter said so and the authoritative check above did not:
           impossible, the orbit set only grows *)
        orbit_hit t
    | C_seen ->
        store_hit ();
        mark_orbit_clean t cfp
    | (C_ok | C_viol _) when store_skip ->
        store_hit ();
        mark_orbit_clean t cfp
    | C_ok | C_viol _ -> (
        (match verdict with
        | C_ok -> mark_orbit_clean t cfp
        | _ -> ());
        t.system_states_created <- t.system_states_created + 1;
        Obs.Metrics.incr t.o.c_system_states;
        Obs.Metrics.observe t.o.h_system_depth sdepth;
        if sdepth > t.max_system_depth then t.max_system_depth <- sdepth;
        match verdict with
        | C_gated | C_orbit | C_seen | C_ok -> ()
        | C_viol (system, violation) ->
            t.preliminary_violations <- t.preliminary_violations + 1;
            Obs.Metrics.incr t.o.c_prelim;
            Obs.event t.o.scope "lmc.preliminary_violation"
              ~fields:
                [
                  ( "invariant",
                    Dsm.Json.String violation.Dsm.Invariant.invariant );
                  ("system_depth", Dsm.Json.Int sdepth);
                ];
            if t.tracing then record_prelim t violation sdepth tuple;
            if t.config.verify_soundness then begin
              if
                t.config.defer_soundness
                && Vec.length t.rejected < t.config.max_rejected_cache
              then
                ignore
                  (Vec.push t.rejected
                     {
                       r_tuple = tuple;
                       r_system = system;
                       r_violation = violation;
                       r_depth = sdepth;
                     })
              else verify_soundness t tuple system violation sdepth
            end)

  let flush_combos t pool =
    let n = Vec.length t.combo_buf in
    if n > 0 then begin
      let items = Vec.to_array t.combo_buf in
      Vec.clear t.combo_buf;
      (* Batched read-only prefilter against the persistent store: one
         lookup sweep for the whole batch spares the pool the invariant
         work on combinations an earlier run already proved clean.
         Monotone like the Shard_tbl prefilter — a miss here is
         re-decided at apply time. *)
      let seen =
        match t.config.persist with
        | None -> [||]
        | Some p ->
            Store.Fp_set.mem_batch p.p_combos
              (Array.map
                 (fun (_, _, cfp) ->
                   match cfp with Some f -> f | None -> assert false)
                 items)
      in
      (* Orbit prefilter, sequential and read-only (flush runs on the
         apply path): spare the pool the invariant work on combinations
         whose orbit was already proven clean as of flush time.  A miss
         is re-decided at apply — an earlier apply in this batch can
         still orbit-cover a later item. *)
      let orbit_seen =
        if not t.reduce then [||]
        else
          Array.map
            (fun (_, _, cfp) ->
              match cfp with
              | Some f -> Hashtbl.mem t.orbit_clean f
              | None -> false)
            items
      in
      let verdicts =
        Par.Pool.tabulate pool ~chunk:combo_chunk n (fun i ->
            let tuple, sdepth, _ = items.(i) in
            if not (depth_allows t sdepth) then C_gated
            else if orbit_seen <> [||] && orbit_seen.(i) then C_orbit
            else if seen <> [||] && seen.(i) then C_seen
            else
              let system = Array.map (fun (e : 'k entry) -> e.state) tuple in
              match
                timed t t.ph_invariant_us (fun () ->
                    Dsm.Invariant.check t.invariant system)
              with
              | None -> C_ok
              | Some violation -> C_viol (system, violation))
      in
      Array.iteri
        (fun i verdict ->
          let tuple, sdepth, cfp = items.(i) in
          apply_combo t tuple sdepth cfp verdict)
        verdicts
    end

  (* [tuple] may be a reused enumeration buffer; the pooled path copies
     it at enqueue time, the inline path relies on [consider_combo]
     copying before any retention. *)
  let submit_combo t (tuple : 'k entry array) =
    match t.pool with
    | None -> consider_combo t tuple
    | Some pool ->
        let sdepth = Array.fold_left (fun acc e -> acc + e.depth) 0 tuple in
        let cfp =
          (* computed at submit time — sequential, so canonicalization
             order never depends on domain scheduling *)
          if t.reduce || t.config.persist <> None then
            Some (ctuple_fp t tuple)
          else None
        in
        ignore (Vec.push t.combo_buf (Array.copy tuple, sdepth, cfp));
        if Vec.length t.combo_buf >= combo_buf_max then flush_combos t pool

  let drain_combos t =
    match t.pool with
    | Some pool when Vec.length t.combo_buf > 0 -> flush_combos t pool
    | _ -> ()

  let stopped t = t.sound_violation <> None && t.config.stop_on_violation

  (* Submit every tuple [keep] accepts that holds [pin.(n)] at each
     pinned node [n] and any stored state elsewhere, in the node-major
     order of {!Combination.iter}.  The stores cannot grow while the
     tuples are submitted, so they are read in place. *)
  let pinned_combos ?(keep = fun _ -> true) t (pin : 'k entry option array) =
    let tuple = Array.map (fun store -> Vec.get store 0) t.stores in
    let rec fill i =
      if i = P.num_nodes then begin
        if keep tuple then submit_combo t tuple;
        if stopped t then raise Exit
      end
      else
        match pin.(i) with
        | Some e ->
            tuple.(i) <- e;
            fill (i + 1)
        | None ->
            let store = t.stores.(i) in
            for j = 0 to Vec.length store - 1 do
              tuple.(i) <- Vec.get store j;
              fill (i + 1)
            done
    in
    try fill 0 with Exit -> ()

  (* Whether [e] conflicts with a component of [tuple] at a node other
     than its own, below node [until]. *)
  let conflicts_below conflict (e : 'k entry) (tuple : 'k entry array) until =
    let rec go m =
      m < until
      && ((m <> e.node && keys_conflict conflict e tuple.(m)) || go (m + 1))
    in
    go 0

  (* The seed that owns [tuple] when its newest component does not
     seed it: its first violating component, or its first conflicting
     pair, in node order. *)
  let owned t (seed : 'k entry array) (tuple : 'k entry array) =
    match t.prune with
    | Full -> true
    | Nodewise _ ->
        let rec first i =
          if Option.is_some tuple.(i).key then i else first (i + 1)
        in
        first 0 = seed.(0).node
    | Pairwise { conflict; _ } ->
        let n = Array.length tuple in
        let rec first i j =
          if j >= n then first (i + 1) (i + 2)
          else if keys_conflict conflict tuple.(i) tuple.(j) then (i, j)
          else first i (j + 1)
        in
        let a = seed.(0).node and b = seed.(1).node in
        first 0 1 = (min a b, max a b)

  (* The paper's future-work pruning, derived from the invariant's
     shape: a pairwise invariant needs a conflicting pair in the
     combination, a node-local one a violating component.  Every such
     pair or component is a seed, and every combination holding a seed
     is built exactly once, when its newest component is created — the
     moment [General] builds it, so both strategies judge it against
     the same predecessor DAGs, and a budget-truncated run has checked
     the same violating combinations under either.

     A new entry first seeds the combinations it completes a pair or a
     violating component in — for a pairwise key, LMC-OPT's "we select
     only the node states that at least two of them are mapped to
     different values"; a combination in which it conflicts with
     several partners goes to the first in node order.  Then it
     completes every older seed at other nodes with the combinations it
     is the newest component of and seeds nothing in, each under the
     seed that {!owned} it.  A bug-free Paxos run has no seeds, and so
     creates no system states at all. *)
  let seed_combos t (e : 'k entry) =
    let pin = Array.make P.num_nodes None in
    pin.(e.node) <- Some e;
    let pinned seed ~keep =
      Array.iter (fun (s : 'k entry) -> pin.(s.node) <- Some s) seed;
      pinned_combos t pin ~keep;
      Array.iter
        (fun (s : 'k entry) -> if s != e then pin.(s.node) <- None)
        seed
    in
    let complete ~fresh older =
      let rec go i =
        if i < older && not (stopped t) then begin
          let seed = Vec.get t.seeds i in
          if Array.for_all (fun (s : 'k entry) -> s.node <> e.node) seed
          then
            pinned seed ~keep:(fun tuple ->
                (not (fresh tuple)) && owned t seed tuple);
          go (i + 1)
        end
      in
      go 0
    in
    match (t.prune, e.key) with
    | Full, _ -> pinned_combos t pin
    | Nodewise _, Some _ ->
        ignore (Vec.push t.seeds [| e |]);
        pinned_combos t pin
    | Nodewise _, None ->
        complete ~fresh:(fun _ -> false) (Vec.length t.seeds)
    | Pairwise { conflict; _ }, _ ->
        let older = Vec.length t.seeds in
        (if Option.is_some e.key then
           (* the partner scan is the hot loop of a keyed run *)
           try
             for m = 0 to P.num_nodes - 1 do
               if m <> e.node then
                 Vec.iteri
                   (fun _ (other : 'k entry) ->
                     if keys_conflict conflict e other then begin
                       let pair = [| e; other |] in
                       ignore (Vec.push t.seeds pair);
                       pinned pair ~keep:(fun tuple ->
                           not (conflicts_below conflict e tuple m));
                       if stopped t then raise Exit
                     end)
                   t.stores.(m)
             done
           with Exit -> ());
        complete older ~fresh:(fun tuple ->
            conflicts_below conflict e tuple P.num_nodes)

  (* Time [f] as system-state creation, net of the soundness checks it
     triggers. *)
  let combination_phase t f =
    let t0 = now () in
    let soundness_before = t.soundness_time in
    Obs.frame t.o.scope "combination" (fun () ->
        Fun.protect
          ~finally:(fun () ->
            let phase = now () -. t0 in
            t.system_state_time <-
              t.system_state_time +. phase
              -. (t.soundness_time -. soundness_before))
          (fun () ->
            f ();
            (* Verdicts land before any later node state is created,
               so the pooled path interleaves exactly like the inline
               one. *)
            drain_combos t))

  let check_system_invariant t (new_entry : 'k entry) =
    if t.config.create_system_states then
      combination_phase t (fun () -> seed_combos t new_entry)

  (* ----- exploration (findBugs main loop, Fig. 9) ----- *)

  let add_next_state t ~node ~state ~fp ~history ~depth ~local_count ~crashes
      ~pred =
    let store = t.stores.(node) in
    match Hashtbl.find_opt t.by_fp.(node) fp with
    | Some i ->
        (* Known node state reached by a new path: record one more
           predecessor pointer (Fig. 9 line 14); the history — and the
           crash count — keep their first values (§4.2
           simplification). *)
        let e = Vec.get store i in
        if List.length e.preds < t.config.max_preds_per_entry then begin
          e.preds <- pred :: e.preds;
          t.generation.(node) <- t.generation.(node) + 1
        end;
        false
    | None ->
        let idx = Vec.length store in
        let entry =
          {
            idx;
            node;
            root = false;
            state;
            fp;
            history;
            depth;
            local_count;
            crashes;
            key = entry_key t node state;
            preds = [ pred ];
            fp_hex = None;
            summary = None;
          }
        in
        ignore (Vec.push store entry);
        Hashtbl.replace t.by_fp.(node) fp idx;
        (match t.config.persist with
        | Some p -> ignore (Store.Fp_set.add p.p_nodes.(node) fp)
        | None -> ());
        if depth > t.max_node_depth then t.max_node_depth <- depth;
        Obs.Metrics.incr t.o.c_node_states;
        Obs.Metrics.observe t.o.h_node_depth depth;
        Obs.event t.o.scope "lmc.node_state"
          ~fields:
            [
              ("node", Dsm.Json.Int node);
              ("depth", Dsm.Json.Int depth);
              ("fp", Dsm.Json.String (Fingerprint.to_hex fp));
            ];
        List.iter (fun f -> f node state) t.o.node_state_observers;
        check_system_invariant t entry;
        true

  (* Each transition splits into a pure *compute* half — the protocol
     handler plus every fingerprint, which is where the time goes — and
     a sequential *apply* half that mutates the stores and counters.
     Parallel rounds tabulate the compute half across the pool, then
     apply results in index order: because message [m]'s whole range is
     applied before the next message's range is read (and actions only
     ever append to their own node's store), the parallel schedule
     replays the sequential enumeration exactly — same states, same
     counters, same traces, for any domain count. *)

  type net_compute =
    | N_skip  (* history or depth gate *)
    | N_assert
    | N_step of
        P.state
        * Fingerprint.t
        * (P.message Envelope.t * Fingerprint.t) list

  let compute_net t (m : net_entry) (entry : 'k entry) =
    let skip_by_history =
      t.config.use_history && Fingerprint.Set.mem m.net_fp entry.history
    in
    if (not skip_by_history) && depth_allows t (entry.depth + 1) then
      match
        timed t t.ph_handler_us (fun () ->
            match
              P.handle_message ~self:m.env.Envelope.dst entry.state m.env
            with
            | exception Dsm.Protocol.Local_assert _ -> None
            | state', out -> Some (state', out))
      with
      | None -> N_assert
      | Some (state', out) ->
          timed t t.ph_fingerprint_us (fun () ->
              N_step
                ( state',
                  Fingerprint.of_value state',
                  List.map (fun env -> (env, Fingerprint.of_value env)) out ))
    else N_skip

  let apply_net_seq t (m : net_entry) (entry : 'k entry) = function
    | N_skip -> false
    | N_assert ->
        t.transitions <- t.transitions + 1;
        Obs.Metrics.incr t.o.c_transitions;
        check_budget t;
        t.local_assert_drops <- t.local_assert_drops + 1;
        Obs.Metrics.incr t.o.c_local_drops;
        if t.tracing then
          record_drop t ~node:m.env.Envelope.dst ~kind:"deliver"
            ~src:m.env.Envelope.src
            ~label:(fun () -> message_label m)
            ~fp_before:entry.fp ~depth:(entry.depth + 1);
        false
    | N_step (state', fp', outs) ->
        t.transitions <- t.transitions + 1;
        Obs.Metrics.incr t.o.c_transitions;
        check_budget t;
        let node = m.env.Envelope.dst in
        let pentries =
          List.map (fun (env, fp) -> register_message t env fp) outs
        in
        let produces = List.map (fun e -> e.net_fp) pentries in
        (* The step record precedes any record the new state causes
           (prelim / soundness / witness), preserving causal order. *)
        if t.tracing then
          record_net_step t m entry ~fp_after:fp' ~pentries;
        let event =
          {
            label = m.net_fp;
            kind = Net_event m.net_id;
            requires = Some m.net_fp;
            produces;
          }
        in
        let changed =
          if Fingerprint.equal fp' entry.fp then begin
            (* Self-loop predecessor (Fig. 9 line 14 with s' = s): the
               event did not change the node state but its message
               productions matter to other nodes' soundness DAGs —
               e.g. a tree node forwarding a token untouched. *)
            if
              produces <> []
              && List.length entry.preds < t.config.max_preds_per_entry
            then begin
              entry.preds <- { prev = Some entry.idx; event } :: entry.preds;
              t.generation.(node) <- t.generation.(node) + 1
            end;
            false
          end
          else
            add_next_state t ~node ~state:state' ~fp:fp'
              ~history:
                (if t.config.use_history then
                   Fingerprint.Set.add m.net_fp entry.history
                 else entry.history)
              ~depth:(entry.depth + 1) ~local_count:entry.local_count
              ~crashes:entry.crashes
              ~pred:{ prev = Some entry.idx; event }
        in
        changed || produces <> []

  (* The apply half under a per-delivery handler-family frame
     ("deliver:Accept"): nested combination/soundness frames then
     attribute to the handler whose new state triggered them.  Hot
     push/pop — no clock, no closure; the exception match keeps the
     stack balanced when [check_budget] raises [Stop].  Zero cost
     without a profiler. *)
  let apply_net t (m : net_entry) (entry : 'k entry) comp =
    match t.o.prof with
    | None -> apply_net_seq t m entry comp
    | Some p -> (
        Obs.Prof.push p (net_frame m);
        match apply_net_seq t m entry comp with
        | r ->
            Obs.Prof.pop p;
            r
        | exception e ->
            Obs.Prof.pop p;
            raise e)

  let try_net_event t (m : net_entry) (entry : 'k entry) =
    apply_net t m entry (compute_net t m entry)

  type act_step =
    | A_assert
    | A_step of
        P.state
        * Fingerprint.t
        * (P.message Envelope.t * Fingerprint.t) list

  type act_compute =
    | A_blocked  (* local-action bound or depth gate *)
    | A_steps of (P.action * act_step) list

  let compute_actions t node (entry : 'k entry) =
    let bound_ok =
      match t.config.local_action_bound with
      | Some b -> entry.local_count < b
      | None -> true
    in
    if bound_ok && depth_allows t (entry.depth + 1) then
      A_steps
        (List.map
           (fun action ->
             ( action,
               match
                 timed t t.ph_handler_us (fun () ->
                     match P.handle_action ~self:node entry.state action with
                     | exception Dsm.Protocol.Local_assert _ -> None
                     | state', out -> Some (state', out))
               with
               | None -> A_assert
               | Some (state', out) ->
                   timed t t.ph_fingerprint_us (fun () ->
                       A_step
                         ( state',
                           Fingerprint.of_value state',
                           List.map
                             (fun env -> (env, Fingerprint.of_value env))
                             out )) ))
           (P.enabled_actions ~self:node entry.state))
    else A_blocked

  let apply_one_action t node (entry : 'k entry) action step progress =
    t.transitions <- t.transitions + 1;
    Obs.Metrics.incr t.o.c_transitions;
    check_budget t;
    match step with
    | A_assert ->
        t.local_assert_drops <- t.local_assert_drops + 1;
        Obs.Metrics.incr t.o.c_local_drops;
        if t.tracing then
          record_drop t ~node ~kind:"action" ~src:(-1)
            ~label:(fun () -> action_label t action)
            ~fp_before:entry.fp ~depth:(entry.depth + 1);
        progress
    | A_step (state', fp', outs) ->
        let pentries =
          List.map (fun (env, fp) -> register_message t env fp) outs
        in
        let produces = List.map (fun e -> e.net_fp) pentries in
        if t.tracing then
          record_act_step t ~node action entry ~fp_after:fp' ~pentries;
        let changed =
          if Fingerprint.equal fp' entry.fp then false
          else
            let event =
              {
                label = Fingerprint.of_value (node, action);
                kind = Action_event action;
                requires = None;
                produces;
              }
            in
            add_next_state t ~node ~state:state' ~fp:fp'
              ~history:entry.history ~depth:(entry.depth + 1)
              ~local_count:(entry.local_count + 1) ~crashes:entry.crashes
              ~pred:{ prev = Some entry.idx; event }
        in
        progress || changed || produces <> []

  let apply_actions t node (entry : 'k entry) = function
    | A_blocked -> false
    | A_steps steps ->
        List.fold_left
          (fun progress (action, step) ->
            match t.o.prof with
            | None -> apply_one_action t node entry action step progress
            | Some p -> (
                (* Per-action frame ("action:Propose"), like the
                   delivery path. *)
                Obs.Prof.push p (action_frame t action);
                match apply_one_action t node entry action step progress with
                | r ->
                    Obs.Prof.pop p;
                    r
                | exception e ->
                    Obs.Prof.pop p;
                    raise e))
          false steps

  let try_actions t node (entry : 'k entry) =
    apply_actions t node entry (compute_actions t node entry)

  (* Crash-recovery expansion: a crash is a local event that rewrites
     the node state through [P.on_recover] — requires no message,
     produces none — so soundness schedules it like any other history
     entry.  Bounded per path by [crash_budget]; a recovery that lands
     on the same fingerprint is a no-op and adds nothing.  The pass is
     sequential even under a pool: it is one handler call per newly
     visited state, far off the hot path, and sequencing keeps the
     store layout identical at any domain count. *)
  let crash_step t node (entry : 'k entry) =
    if entry.crashes >= t.config.crash_budget then false
    else if not (depth_allows t (entry.depth + 1)) then false
    else begin
      let state' =
        timed t t.ph_handler_us (fun () -> P.on_recover ~self:node entry.state)
      in
      let fp' =
        timed t t.ph_fingerprint_us (fun () -> Fingerprint.of_value state')
      in
      t.transitions <- t.transitions + 1;
      Obs.Metrics.incr t.o.c_transitions;
      check_budget t;
      if Fingerprint.equal fp' entry.fp then false
      else begin
        if t.tracing then record_crash_step t ~node entry ~fp_after:fp';
        let event =
          {
            label = t.crash_labels.(node).(entry.crashes);
            kind = Crash_event;
            requires = None;
            produces = [];
          }
        in
        add_next_state t ~node ~state:state' ~fp:fp' ~history:entry.history
          ~depth:(entry.depth + 1) ~local_count:entry.local_count
          ~crashes:(entry.crashes + 1)
          ~pred:{ prev = Some entry.idx; event }
      end
    end

  let try_crash t node (entry : 'k entry) =
    match t.o.prof with
    | None -> crash_step t node entry
    | Some p -> (
        Obs.Prof.push p "crash";
        match crash_step t node entry with
        | r ->
            Obs.Prof.pop p;
            r
        | exception e ->
            Obs.Prof.pop p;
            raise e)

  let net_chunk = 16
  let action_chunk = 8

  let round t =
    let progress = ref false in
    (* Network events: each message visits the states of its
       destination that it has not been applied to yet (§4.2); messages
       generated during this round wait for the next one. *)
    let net_len = Vec.length t.net in
    for mi = 0 to net_len - 1 do
      let m = Vec.get t.net mi in
      let store = t.stores.(m.env.Envelope.dst) in
      let upto = Vec.length store in
      let from = m.cursor in
      if from < upto then begin
        m.cursor <- upto;
        progress := true;
        match t.pool with
        | Some pool ->
            (* The compute half reads only entries below [upto], all of
               which exist before the batch is published. *)
            let comps =
              Par.Pool.tabulate pool ~chunk:net_chunk (upto - from) (fun i ->
                  compute_net t m (Vec.get store (from + i)))
            in
            for i = 0 to upto - from - 1 do
              if apply_net t m (Vec.get store (from + i)) comps.(i) then
                progress := true
            done
        | None ->
            for si = from to upto - 1 do
              if try_net_event t m (Vec.get store si) then progress := true
            done
      end
    done;
    (* Local events: expand each newly visited node state once. *)
    for n = 0 to P.num_nodes - 1 do
      let store = t.stores.(n) in
      let upto = Vec.length store in
      let from = t.action_cursor.(n) in
      if from < upto then begin
        t.action_cursor.(n) <- upto;
        progress := true;
        match t.pool with
        | Some pool ->
            let comps =
              Par.Pool.tabulate pool ~chunk:action_chunk (upto - from)
                (fun i -> compute_actions t n (Vec.get store (from + i)))
            in
            for i = 0 to upto - from - 1 do
              if apply_actions t n (Vec.get store (from + i)) comps.(i) then
                progress := true
            done
        | None ->
            for si = from to upto - 1 do
              if try_actions t n (Vec.get store si) then progress := true
            done
      end
    done;
    (* Crash events: visit each node state once, like the action pass. *)
    if t.config.crash_budget > 0 then
      for n = 0 to P.num_nodes - 1 do
        let store = t.stores.(n) in
        let upto = Vec.length store in
        let from = t.crash_cursor.(n) in
        if from < upto then begin
          t.crash_cursor.(n) <- upto;
          progress := true;
          for si = from to upto - 1 do
            if try_crash t n (Vec.get store si) then progress := true
          done
        end
      done;
    !progress

  (* Parallel a-posteriori verification: the paper's third contribution
     notes that with exploration, system-state creation and soundness
     verification decoupled, "the model checking process can be
     embarrassingly parallelized".  The prefilter runs on the main
     domain against the summary cache, and the predecessor DAGs of the
     tuples that pass it are extracted there too (both read the
     mutable stores, which are quiescent by now); only those searches
     fan out across worker domains; results are folded back in
     deterministic cache order. *)
  let verify_parallel t (pending : 'k rejected array) =
    let t0 = now () in
    (* Worker domains record into the scope concurrently: the
       histogram/counter cells are atomic, per-domain effort merges
       without locks (the "per-domain buffers or atomic counters"
       requirement of always-on instrumentation). *)
    let soundness_obs = t.o.soundness_obs in
    let jobs =
      Array.map
        (fun r ->
          let j0 = now () in
          let summaries = Array.map (summary_of t) r.r_tuple in
          if Soundness.prefilter ?obs:soundness_obs ~initial_net:[] summaries
          then begin
            let by_label = Hashtbl.create 64 in
            let graphs = Array.map (build_graph ~by_label t) r.r_tuple in
            Some (graphs, summaries, by_label)
          end
          else begin
            Obs.Metrics.observe t.o.h_soundness_us
              (int_of_float (1e6 *. (now () -. j0)));
            None
          end)
        pending
    in
    let n = Array.length jobs in
    let verdicts = Array.make n Soundness.Invalid in
    let searched =
      Array.of_list
        (List.filter (fun i -> Option.is_some jobs.(i)) (List.init n Fun.id))
    in
    let domains = max 1 t.config.verify_domains in
    let next = Atomic.make 0 in
    let budget = t.config.soundness_budget in
    let worker () =
      let rec loop () =
        let k = Atomic.fetch_and_add next 1 in
        if k < Array.length searched then begin
          let i = searched.(k) in
          let graphs, summaries, _ = Option.get jobs.(i) in
          let j0 = now () in
          verdicts.(i) <-
            Soundness.check_dag ?obs:soundness_obs ~budget ~summaries
              ~initial_net:[] graphs;
          Obs.Metrics.observe t.o.h_soundness_us
            (int_of_float (1e6 *. (now () -. j0)));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      List.init (domains - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    t.soundness_calls <- t.soundness_calls + n;
    t.sequences_checked <- t.sequences_checked + n;
    Obs.Metrics.add t.o.c_soundness_calls n;
    Obs.Metrics.add t.o.c_sequences n;
    t.soundness_time <- t.soundness_time +. (now () -. t0);
    (* Fold the verdicts deterministically.  Trace records are emitted
       here, not on the worker domains, so their order is the cache
       order regardless of scheduling; the search-step count stays on
       the workers and is reported as -1. *)
    let record_par_verdict verdict_str witness_events =
      ignore
        (Obs.Trace.emit t.config.trace ~ev:"soundness"
           [
             ("kind", Dsm.Json.String "dag");
             ("steps", Dsm.Json.Int (-1));
             ("verdict", Dsm.Json.String verdict_str);
             ( "witness_events",
               match witness_events with
               | Some n -> Dsm.Json.Int n
               | None -> Dsm.Json.Null );
           ])
    in
    Array.iteri
      (fun i verdict ->
        let r = pending.(i) in
        match verdict with
        | Soundness.Invalid ->
            count_rejection t ~prefiltered:(Option.is_none jobs.(i));
            if t.tracing then begin
              record_par_verdict "invalid" None;
              record_reject t r.r_violation r.r_depth ~why:"invalid"
            end
        | Soundness.Budget_exhausted ->
            count_rejection t ~prefiltered:false;
            t.soundness_budget_exhausted <- t.soundness_budget_exhausted + 1;
            Obs.Metrics.incr t.o.c_budget_exhausted;
            if t.tracing then begin
              record_par_verdict "budget_exhausted" None;
              record_reject t r.r_violation r.r_depth ~why:"budget_exhausted"
            end
        | Soundness.Valid order ->
            if t.tracing then
              record_par_verdict "valid" (Some (List.length order));
            if t.sound_violation = None then begin
              let _, _, by_label = Option.get jobs.(i) in
              let schedule =
                List.map
                  (fun (sev : Soundness.event) ->
                    match Hashtbl.find_opt by_label (sev.node, sev.label) with
                    | Some e -> step_of_event t sev.node e
                    | None -> assert false)
                  order
              in
              t.sound_violation <-
                Some
                  {
                    system = Array.copy r.r_system;
                    violation = r.r_violation;
                    schedule;
                    system_depth = List.length schedule;
                  };
              Obs.event t.o.scope "lmc.sound_violation"
                ~fields:
                  [
                    ( "invariant",
                      Dsm.Json.String r.r_violation.Dsm.Invariant.invariant );
                    ( "detail",
                      Dsm.Json.String r.r_violation.Dsm.Invariant.detail );
                    ("witness_events", Dsm.Json.Int (List.length schedule));
                  ];
              if t.tracing then record_witness t r.r_violation schedule
            end)
      verdicts

  (* Final verification pass.  In deferred mode this is where all the
     preliminary violations are decided; otherwise it re-verifies
     soundness-rejected ones, whose later-added predecessor pointers
     can have made them schedulable (§4.2's completeness caveat and
     suggested remedy). *)
  let reverify_rejected t =
    let wanted =
      t.config.verify_soundness
      && (t.config.defer_soundness || t.config.reverify_rejected)
    in
    if wanted then begin
      let pending = Vec.to_array t.rejected in
      Vec.clear t.rejected;
      Obs.span t.o.scope "lmc.reverify"
        ~fields:
          [
            ("pending", Dsm.Json.Int (Array.length pending));
            ("verify_domains", Dsm.Json.Int t.config.verify_domains);
          ]
        (fun () ->
          Obs.frame t.o.scope "reverify" @@ fun () ->
          if
            t.config.verify_domains > 1
            && not t.config.soundness_via_sequences
            && not (t.config.stop_on_violation && t.sound_violation <> None)
          then verify_parallel t pending
          else
            Array.iter
              (fun r ->
                if
                  not
                    (t.config.stop_on_violation && t.sound_violation <> None)
                then
                  verify_soundness
                    ~cache_rejection:t.config.defer_soundness t r.r_tuple
                    r.r_system r.r_violation r.r_depth)
              pending)
    end

  (* The roots seed like new entries do, all at once. *)
  let check_initial t =
    let roots = Array.init P.num_nodes (fun n -> Vec.get t.stores.(n) 0) in
    let seed pinned = ignore (Vec.push t.seeds pinned) in
    (match t.prune with
    | Full -> ()
    | Nodewise _ ->
        Array.iter
          (fun (e : 'k entry) -> if Option.is_some e.key then seed [| e |])
          roots
    | Pairwise { conflict; _ } ->
        Array.iter
          (fun (a : 'k entry) ->
            Array.iter
              (fun (b : 'k entry) ->
                if a.node < b.node && keys_conflict conflict a b then
                  seed [| a; b |])
              roots)
          roots);
    let fire =
      match t.prune with Full -> true | _ -> Vec.length t.seeds > 0
    in
    if t.config.create_system_states && fire then consider_combo t roots

  let retained_bytes t =
    let entry_bytes acc (e : 'k entry) =
      acc
      + Fingerprint.serialized_size e.state
      + Fingerprint.size
      + (Fingerprint.Set.cardinal e.history * Fingerprint.size)
      + List.fold_left
          (fun acc (p : pred) ->
            acc + 48 + (List.length p.event.produces * Fingerprint.size))
          0 e.preds
      + 64 (* store slot + hash-table entry *)
    in
    let stores_bytes =
      Array.fold_left
        (fun acc store -> Vec.fold_left entry_bytes acc store)
        0 t.stores
    in
    let net_bytes =
      Vec.fold_left
        (fun acc (m : net_entry) ->
          acc + Fingerprint.serialized_size m.env + Fingerprint.size + 48)
        0 t.net
    in
    stores_bytes + net_bytes

  let exec config ~prune ~invariant snapshot pool =
    let tracing = Obs.Trace.enabled config.trace in
    let t =
      {
        config;
        crash_labels =
          Array.init
            (if config.crash_budget > 0 then P.num_nodes else 0)
            (fun n ->
              Array.init config.crash_budget (fun k ->
                  Fingerprint.of_value ("crash", n, k)));
        o = make_obs_handles config;
        tracing;
        soundness_trace = (if tracing then Some config.trace else None);
        snapshot = Array.copy snapshot;
        ph_handler_us = Atomic.make 0;
        ph_fingerprint_us = Atomic.make 0;
        ph_invariant_us = Atomic.make 0;
        timed_tick = 0;
        act_lbl = Hashtbl.create 64;
        prune;
        invariant;
        stores = Array.init P.num_nodes (fun _ -> Vec.create ());
        generation = Array.make P.num_nodes 0;
        by_fp = Array.init P.num_nodes (fun _ -> Hashtbl.create 256);
        action_cursor = Array.make P.num_nodes 0;
        crash_cursor = Array.make P.num_nodes 0;
        net = Vec.create ();
        net_by_fp = Hashtbl.create 256;
        seeds = Vec.create ();
        reduce = not (Dsm.Symmetry.is_trivial config.symmetry);
        orbit_clean = Hashtbl.create 4096;
        rejected = Vec.create ();
        pool;
        combo_buf = Vec.create ();
        started = now ();
        transitions = 0;
        system_states_created = 0;
        store_hits = 0;
        orbit_hits = 0;
        preliminary_violations = 0;
        soundness_calls = 0;
        sequences_checked = 0;
        soundness_rejections = 0;
        prefilter_rejections = 0;
        search_rejections = 0;
        local_assert_drops = 0;
        soundness_budget_exhausted = 0;
        sound_violation = None;
        system_state_time = 0.;
        soundness_time = 0.;
        max_system_depth = 0;
        max_node_depth = 0;
        truncated = false;
      }
    in
    (* Fig. 9 lines 2-4: LS_n starts from the live state; I+ empty. *)
    Array.iteri
      (fun n state ->
        let fp = Fingerprint.of_value state in
        let entry =
          {
            idx = 0;
            node = n;
            root = true;
            state;
            fp;
            history = Fingerprint.Set.empty;
            depth = 0;
            local_count = 0;
            crashes = 0;
            key = entry_key t n state;
            preds = [];
            fp_hex = None;
            summary = None;
          }
        in
        ignore (Vec.push t.stores.(n) entry);
        Hashtbl.replace t.by_fp.(n) fp 0;
        (match config.persist with
        | Some p -> ignore (Store.Fp_set.add p.p_nodes.(n) fp)
        | None -> ());
        Obs.Metrics.incr t.o.c_node_states)
      snapshot;
    let explore_domains =
      match pool with Some p -> Par.Pool.domains p | None -> 1
    in
    Obs.event t.o.scope "lmc.run.start"
      ~fields:
        [
          ("protocol", Dsm.Json.String P.name);
          ("nodes", Dsm.Json.Int P.num_nodes);
          ("domains", Dsm.Json.Int explore_domains);
          ("verify_domains", Dsm.Json.Int config.verify_domains);
        ];
    if tracing then
      ignore
        (Obs.Trace.emit config.trace ~ev:"lmc_run"
           [
             ("protocol", Dsm.Json.String P.name);
             ("nodes", Dsm.Json.Int P.num_nodes);
             ("domains", Dsm.Json.Int explore_domains);
             ("verify_domains", Dsm.Json.Int config.verify_domains);
           ]);
    (try
       Obs.frame t.o.scope "lmc" @@ fun () ->
       check_initial t;
       if not (t.config.stop_on_violation && t.sound_violation <> None) then begin
         let rounds = ref 0 in
         let continue = ref true in
         while !continue do
           check_budget t;
           incr rounds;
           Obs.span t.o.scope "lmc.round"
             ~fields:[ ("round", Dsm.Json.Int !rounds) ]
             (fun () -> continue := round t)
         done;
         reverify_rejected t
       end
     with Stop -> ());
    let elapsed = now () -. t.started in
    let node_states = Array.map Vec.length t.stores in
    Obs.event t.o.scope "lmc.run.end"
      ~fields:
        [
          ("protocol", Dsm.Json.String P.name);
          ("transitions", Dsm.Json.Int t.transitions);
          ( "node_states",
            Dsm.Json.Int (Array.fold_left ( + ) 0 node_states) );
          ("net_messages", Dsm.Json.Int (Vec.length t.net));
          ("system_states", Dsm.Json.Int t.system_states_created);
          ("preliminary_violations", Dsm.Json.Int t.preliminary_violations);
          ("soundness_calls", Dsm.Json.Int t.soundness_calls);
          ( "soundness_prefilter_rejections",
            Dsm.Json.Int t.prefilter_rejections );
          ("soundness_search_rejections", Dsm.Json.Int t.search_rejections);
          ("sound_violation", Dsm.Json.Bool (t.sound_violation <> None));
          ("store_hits", Dsm.Json.Int t.store_hits);
          ("symmetry", Dsm.Json.String (Dsm.Symmetry.name config.symmetry));
          ("orbit_hits", Dsm.Json.Int t.orbit_hits);
          ("completed", Dsm.Json.Bool (not t.truncated));
          ("domains", Dsm.Json.Int explore_domains);
          ("verify_domains", Dsm.Json.Int config.verify_domains);
          ("elapsed_s", Dsm.Json.Float elapsed);
        ];
    (match config.persist with
    | Some p ->
        Obs.Metrics.set
          (Obs.gauge t.o.scope "lmc.store_occupancy")
          (Store.Fp_set.occupancy p.p_combos);
        let considered = t.store_hits + t.system_states_created in
        if considered > 0 then
          Obs.Metrics.set
            (Obs.gauge t.o.scope "lmc.store_hit_rate")
            (float_of_int t.store_hits /. float_of_int considered)
    | None -> ());
    if tracing then begin
      (* Per-phase time attribution.  Handler / fingerprint / invariant
         are measured wherever they ran (worker domains included);
         system-state and soundness phases reuse the result's
         accounting; [lmc report] derives exploration/pool residue. *)
      ignore
        (Obs.Trace.emit config.trace ~ev:"phases"
           [
             ("handler_us", Dsm.Json.Int (Atomic.get t.ph_handler_us));
             ( "fingerprint_us",
               Dsm.Json.Int (Atomic.get t.ph_fingerprint_us) );
             ("invariant_us", Dsm.Json.Int (Atomic.get t.ph_invariant_us));
             ( "soundness_us",
               Dsm.Json.Int (int_of_float (1e6 *. t.soundness_time)) );
             ( "system_state_us",
               Dsm.Json.Int (int_of_float (1e6 *. t.system_state_time)) );
             ("elapsed_us", Dsm.Json.Int (int_of_float (1e6 *. elapsed)));
           ]);
      ignore
        (Obs.Trace.emit config.trace ~ev:"lmc_end"
           [
             ("transitions", Dsm.Json.Int t.transitions);
             ( "node_states",
               Dsm.Json.Int (Array.fold_left ( + ) 0 node_states) );
             ("net_messages", Dsm.Json.Int (Vec.length t.net));
             ("system_states", Dsm.Json.Int t.system_states_created);
             ( "preliminary_violations",
               Dsm.Json.Int t.preliminary_violations );
             ( "soundness_prefilter_rejections",
               Dsm.Json.Int t.prefilter_rejections );
             ( "soundness_search_rejections",
               Dsm.Json.Int t.search_rejections );
             ("sound_violation", Dsm.Json.Bool (t.sound_violation <> None));
             ( "symmetry",
               Dsm.Json.String (Dsm.Symmetry.name config.symmetry) );
             ("orbit_hits", Dsm.Json.Int t.orbit_hits);
             ("completed", Dsm.Json.Bool (not t.truncated));
           ]);
      Obs.Trace.flush config.trace
    end;
    {
      node_states;
      total_node_states = Array.fold_left ( + ) 0 node_states;
      transitions = t.transitions;
      net_messages = Vec.length t.net;
      system_states_created = t.system_states_created;
      preliminary_violations = t.preliminary_violations;
      sound_violation = t.sound_violation;
      soundness_calls = t.soundness_calls;
      sequences_checked = t.sequences_checked;
      soundness_rejections = t.soundness_rejections;
      soundness_prefilter_rejections = t.prefilter_rejections;
      soundness_search_rejections = t.search_rejections;
      soundness_budget_exhausted = t.soundness_budget_exhausted;
      local_assert_drops = t.local_assert_drops;
      store_hits = t.store_hits;
      orbit_hits = t.orbit_hits;
      completed = not t.truncated;
      elapsed;
      system_state_time = t.system_state_time;
      soundness_time = t.soundness_time;
      retained_bytes = retained_bytes t;
      max_system_depth = t.max_system_depth;
      max_node_depth = t.max_node_depth;
    }

  let run config ~strategy ~invariant snapshot =
    if Array.length snapshot <> P.num_nodes then
      invalid_arg "Checker.run: snapshot size does not match num_nodes";
    if config.domains < 1 then
      invalid_arg "Checker.run: domains must be >= 1";
    (match config.persist with
    | Some p when Array.length p.p_nodes <> P.num_nodes ->
        invalid_arg "Checker.run: persist has wrong node count"
    | _ -> ());
    let exec prune =
      match config.pool with
      | Some _ as pool ->
          (* Caller-owned pool (e.g. Online_mc sharing one across
             restarts): borrow it, never shut it down. *)
          exec config ~prune ~invariant snapshot pool
      | None when config.domains > 1 ->
          Par.Pool.with_pool ~obs:config.obs config.domains (fun pool ->
              exec config ~prune ~invariant snapshot (Some pool))
      | None -> exec config ~prune ~invariant snapshot None
    in
    match (strategy, Dsm.Invariant.shape invariant) with
    | General, _ | Automatic, Opaque -> exec Full
    | Automatic, Nodewise local ->
        exec (Nodewise (fun n s -> if local n s then Some () else None))
    | Automatic, Pairwise { key; conflict } ->
        exec (Pairwise { key; conflict })
end
