(** A-posteriori soundness verification (Fig. 9, [isStateSound] /
    [isSequenceValid], with the efficient implementation of §4.2).

    Combining independently explored node states can yield system
    states no real run produces; a preliminary invariant violation is
    reported to the user only if the per-node event sequences leading
    to the combined states admit a valid total order — one in which
    every network event consumes a message generated earlier.

    The engine works purely on fingerprints: an event carries the hash
    of the message it consumes (if any) and the hashes of the messages
    it generates, so validity checking reduces to multiset bookkeeping
    over hashes — "some integer comparison operations" in the paper's
    words — with no protocol re-execution.

    The paper selects enabled events greedily and argues (technical
    report) that greediness loses nothing.  We use greedy order first
    and fall back to bounded backtracking with memoisation, which is
    never less complete. *)

type event = {
  node : Dsm.Node_id.t;
  label : Dsm.Fingerprint.t;  (** event identity, for reporting *)
  requires : Dsm.Fingerprint.t option;
      (** message consumed; [None] for internal actions, which are
          always enabled *)
  produces : Dsm.Fingerprint.t list;  (** messages generated *)
}

(** Events of one node, oldest first, from the live state to the node
    state under scrutiny. *)
type sequence = event list

type verdict =
  | Valid of event list
      (** a real run exists; the witness total order is returned *)
  | Invalid  (** no interleaving of the sequences is executable *)
  | Budget_exhausted
      (** undecided within [budget] search steps (counts as not-proven,
          so no bug is reported from it) *)

(** [check ~budget ~initial_net sequences] decides whether the [n]
    sequences admit a valid total order.  [initial_net] lists message
    fingerprints already in flight when the sequences start (empty for
    snapshot-rooted checks).  [budget] bounds backtracking steps
    (default 200_000).  [obs] records per-call search effort into the
    scope's registry: a [soundness.steps] histogram plus
    per-kind/per-verdict counters; safe to pass from concurrent
    verification domains.  [trace] additionally records one
    [ev = "soundness"] flight-recorder record per call — the
    interleaving search's kind, effort and verdict; pass it only from
    the sequential verification path (record order must not depend on
    domain scheduling). *)
val check :
  ?obs:Obs.scope ->
  ?trace:Obs.Trace.t ->
  ?budget:int ->
  initial_net:Dsm.Fingerprint.t list ->
  sequence array ->
  verdict

(** {2 DAG-based verification}

    Enumerating explicit event sequences per node state (the paper's
    formulation) samples an exponential path space and can miss the
    one compatible combination.  [check_dag] instead searches the
    product of the per-node {e predecessor DAGs} directly: one
    memoised forward search decides whether {e any} combination of
    paths to the target node states is schedulable — strictly more
    complete than capped sequence enumeration, and usually faster. *)

(** One node's predecessor DAG, restricted to the entries that can
    reach the target: vertices are the checker's node-state indices,
    an edge [(from, event, to)] says executing [event] on state [from]
    yields state [to]. *)
type node_graph = {
  root : int;  (** the snapshot state *)
  target : int;  (** the node state under scrutiny *)
  edges : (int * event * int) list;
}

(** {3 The prefilter}

    Before any search, every message consumed on {e every}
    root->target path of a component must be producible by some edge
    of some component or by the initial net.  The test splits into a
    per-component {!summary} and a cheap combine, so a caller that
    sees the same component in many tuples (the checker's per-entry
    cache) summarises it once. *)

type summary = {
  required : Dsm.Fingerprint.Set.t option;
      (** messages consumed on every cycle-free root->target path;
          [None] when the target is unreachable from the root *)
  produced : Dsm.Fingerprint.Set.t;
      (** messages generated by any edge of the component *)
}

val summarize : node_graph -> summary

(** [prefilter ~initial_net summaries] is the prefilter's combine:
    for every component [i], [required_i] is a subset of
    [initial_net ∪ ⋃_j produced_j].  On rejection it also records the
    call as a 0-step [Invalid] DAG verdict into [obs] / [trace],
    exactly as {!check_dag} records its own prefilter rejections. *)
val prefilter :
  ?obs:Obs.scope ->
  ?trace:Obs.Trace.t ->
  initial_net:Dsm.Fingerprint.t list ->
  summary array ->
  bool

(** [check_dag ~budget ~initial_net graphs] decides whether every node
    can walk from its root to its target such that the interleaved
    events form a valid run.  The prefilter runs first; only if it
    passes are the graphs turned into a search.  [summaries], one per
    graph (as {!summarize} would compute them), skip re-summarising;
    the verdict is the same either way.

    The search interns every fingerprint into a dense id: the net is
    an array of counts plus the sparse set of the ids in flight, and
    its memo holds exact configurations — the component positions and
    a (message, count) pair per message in flight — found through a
    hash the search updates incrementally with each move.  All of this
    state belongs to the call, so calls may run on several domains at
    once. *)
val check_dag :
  ?obs:Obs.scope ->
  ?trace:Obs.Trace.t ->
  ?budget:int ->
  ?summaries:summary array ->
  initial_net:Dsm.Fingerprint.t list ->
  node_graph array ->
  verdict
