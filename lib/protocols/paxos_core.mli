(** Multi-index Paxos engine (proposer + acceptor + learner roles).

    The paper's testbed: "each node implements three roles: proposer,
    acceptor, and learner.  Multiple proposers can concurrently propose
    values for the same index" (§5).  A proposition broadcasts
    [Prepare]; acceptors answer [Promise] (the paper's
    PrepareResponse); on a majority the proposer broadcasts [Accept]
    carrying "the value returned by the PrepareResponse message with
    the highest proposal number"; each acceptor then broadcasts [Learn]
    and learners choose on a majority of [Learn]s for one round.

    The engine is pure and self-contained so that 1Paxos can embed it
    as its PaxosUtility layer (§5.6: "we have implemented PaxosUtility
    using Paxos itself").  All collections are canonical sorted
    association lists, as required for fingerprinting.

    The injectable bug reproduces §5.5 (first reported by WiDS
    Checker): with [Last_response_wins], the proposer takes the value
    "from the last PrepareResponse message instead of the
    PrepareResponse message with highest round number". *)

type value = int
type round = int

type bug = No_bug | Last_response_wins

type message =
  | Prepare of { idx : int; rnd : round }
  | Promise of { idx : int; rnd : round; vrnd : round; vval : value option }
  | Accept of { idx : int; rnd : round; v : value }
  | Learn of { idx : int; rnd : round; v : value }

type state

val empty : state

(** [attempts state idx] is how many propositions this node started for
    [idx]. *)
val attempts : state -> int -> int

(** [chosen state idx] is the value this node's learner chose for
    [idx], if any. *)
val chosen : state -> int -> value option

(** All (index, value) pairs chosen by this node's learner, sorted by
    index.  The key Paxos safety compares node states by. *)
val chosen_all : state -> (int * value) list

(** [has_accepted state idx] tells whether this node's acceptor has
    accepted any value for [idx]. *)
val has_accepted : state -> int -> (round * value) option

(** Highest round this node's acceptor promised for [idx] (0 if none). *)
val promised : state -> int -> round

(** [is_untouched state idx] is true when this node has seen no
    activity whatsoever for [idx] — the test driver's notion of a "new
    index". *)
val is_untouched : state -> int -> bool

(** The attempt number (round tier) the next [propose] for [idx] would
    use: above both the own attempt counter and any locally promised
    round.  Drivers bound this to keep the proposal ladder — and with
    it the state space — finite. *)
val next_attempt : n:int -> state -> idx:int -> int

(** [propose ~n ~self state ~idx ~v] starts a new proposition: picks a
    fresh round unique to [self], records the attempt, and broadcasts
    [Prepare] to all [n] acceptors (including [self]).  Returns
    destination/message pairs for the caller to wrap in envelopes. *)
val propose :
  n:int -> self:int -> state -> idx:int -> v:value -> state * (int * message) list

(** [handle ~n ~self ~bug state ~src msg] runs the role handlers. *)
val handle :
  n:int ->
  self:int ->
  bug:bug ->
  state ->
  src:int ->
  message ->
  state * (int * message) list

val pp_state : Format.formatter -> state -> unit
val pp_message : Format.formatter -> message -> unit

(** Agreement across two nodes' chosen (index, value) pairs, as from
    {!chosen_all}: no index chosen with different values.  Returns a
    human-readable description of the first disagreement. *)
val disagreement : (int * value) list -> (int * value) list -> string option

(** Learner records for [idx]: [((acceptor, round), value)] votes seen
    so far.  Introspection for tests and debugging. *)
val learns : state -> int -> ((int * round) * value) list
