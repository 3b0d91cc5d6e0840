(** 1Paxos: Multi-Paxos with a single active acceptor (§5.6, [15]).

    "An efficient variation of Multi-Paxos that uses only one acceptor.
    Upon failure, the active acceptor is replaced with a backup
    acceptor by the global leader. ... To uniquely identify the global
    leader and the active acceptor, 1Paxos uses a separate consensus
    protocol referred to as PaxosUtility.  The global leader and the
    active acceptor are identified by the last LeaderChange and
    AcceptorChange entries in the PaxosUtility."  As in the paper, we
    implement PaxosUtility with Paxos itself ({!Paxos_core}), making
    1Paxos a layered, multi-module service.

    Steady state: the node believing itself leader sends its proposal
    straight to its cached active acceptor; the (single) acceptor
    accepts and broadcasts a [Learn1]; receivers choose on that single
    message.  A fault-detector internal action makes a node claim
    leadership by proposing a [LeaderChange] entry into PaxosUtility;
    when the entry is chosen the new leader refreshes its cached
    acceptor from the utility log.

    The injectable bug is the paper's literal one: the initialisation
    code meant to pick the {e second} member as the default acceptor
    used [*(members.begin()++)] — postfix increment — and therefore
    picked the {e first} member, making the initial leader its own
    acceptor.  A deposed-but-unaware leader then proposes to itself,
    accepts its own proposal, learns from its own loopback [Learn1],
    and chooses a value nobody else agrees on. *)

type bug = No_bug | Postfix_increment

module type CONFIG = sig
  val num_nodes : int

  (** Fault-detector claims allowed per node. *)
  val max_leader_claims : int

  (** Proposals per (believed) leader per index. *)
  val max_attempts : int

  (** 1Paxos consensus indices in play. *)
  val max_index : int

  (** Bound on the PaxosUtility configuration-log depth explored. *)
  val max_util_entries : int

  (** Bound on the utility-layer round tier (see
      {!Paxos_core.next_attempt}); keeps the proposal ladder finite. *)
  val max_util_attempts : int

  val bug : bug
end

(** Entries of the PaxosUtility configuration log. *)
type entry = Leader_change of int | Acceptor_change of int

(** Entries travel through the utility layer as plain Paxos values. *)
val encode_entry : entry -> int

val decode_entry : int -> entry

type op_message =
  | Util of Paxos_core.message  (** PaxosUtility traffic, layered *)
  | Propose1 of { idx : int; rnd : int; v : int }
      (** leader -> active acceptor *)
  | Learn1 of { idx : int; rnd : int; v : int }
      (** single acceptor -> everyone *)

type op_action = Init | Claim_leadership | Propose of { idx : int }

type op_state = {
  booted : bool;
  util : Paxos_core.state;  (** the embedded PaxosUtility instance *)
  util_applied : int;  (** utility log prefix already applied *)
  leader : int;  (** cached global leader *)
  acceptor : int;  (** cached active acceptor *)
  is_leader : bool;  (** self-belief, possibly stale under loss *)
  claims : int;
  attempts : (int * int) list;  (** 1Paxos proposal attempts per index *)
  accepted : (int * (int * int)) list;
      (** acceptor storage: index -> (round, value) *)
  chosen : (int * int) list;  (** learned values: index -> value *)
}

module Make (C : CONFIG) : sig
  include
    Dsm.Protocol.S
      with type state = op_state
       and type message = op_message
       and type action = op_action

  (** Paxos safety over the 1Paxos log: no index chosen with different
      values at two nodes.  Pairwise, keyed by the chosen (index, value)
      pairs. *)
  val safety : op_state Dsm.Invariant.t
end
