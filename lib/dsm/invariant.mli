(** User-specified invariants over system states.

    A system state is the vector of node-local states, indexed by node
    identifier — the paper's [L] — with the network deliberately
    absent: "the invariants are typically specified only on the system
    states, i.e., the invariants do not involve the network states"
    (section 1).

    The paper prunes system states through a hand-written abstraction
    per protocol (LMC-OPT, §4.2) and leaves "methods to automatically
    prune the system states according to a given invariant" as future
    work.  Here the invariant is the only place that pruning is
    defined: {!for_all_nodes} and {!for_all_pairs} record their
    {!shape}, and the local checker's [Automatic] strategy creates only
    the combinations that shape says can violate. *)

type violation = { invariant : string; detail : string }

type 'state t

val name : 'state t -> string

(** [check inv system] is [Some violation] when [inv] does not hold on
    [system]. *)
val check : 'state t -> 'state array -> violation option

(** [make ~name f] builds an invariant from a checker returning
    [Some detail] on violation.  Its shape is {!Opaque}. *)
val make : name:string -> ('state array -> string option) -> 'state t

(** Conjunction: first violation wins.  All-{!Nodewise} conjuncts stay
    nodewise, all-{!Pairwise} ones stay pairwise (keyed by the tuple of
    their keys); any other mix is {!Opaque}. *)
val conj : 'state t list -> 'state t

(** [for_all_nodes ~name f] holds when [f node state] is [None] for
    every node — the shape of node-local invariants such as RandTree's
    children/siblings disjointness (section 4.1). *)
val for_all_nodes :
  name:string -> (Node_id.t -> 'state -> string option) -> 'state t

(** [for_all_pairs ~name ~key ~conflict] holds when no two nodes
    [i < j] have keys [Some ki], [Some kj] with [conflict ki kj =
    Some detail] — the shape of agreement invariants such as Paxos
    safety.  [key] projects a node state onto what the invariant
    compares (for Paxos: the values chosen so far); [None] means the
    state can never be in a violating pair, so the checker never
    combines it.  The check and the pruning both derive from this one
    definition. *)
val for_all_pairs :
  name:string ->
  key:(Node_id.t -> 'state -> 'k option) ->
  conflict:('k -> 'k -> string option) ->
  'state t

val pp_violation : Format.formatter -> violation -> unit

(** {2 Shape introspection} *)

type 'state shape =
  | Opaque  (** no known structure: every combination may violate *)
  | Nodewise of (Node_id.t -> 'state -> bool)
      (** a combination violates only if some component violates on
          its own ({!for_all_nodes}) *)
  | Pairwise : {
      key : Node_id.t -> 'state -> 'k option;
      conflict : 'k -> 'k -> string option;
    }
      -> 'state shape
      (** a combination violates only if two keyed components conflict,
          lower node id first ({!for_all_pairs}) *)

val shape : 'state t -> 'state shape
