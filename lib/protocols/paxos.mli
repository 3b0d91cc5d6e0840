(** Paxos as a checkable protocol (§5's testbed).

    Wraps {!Paxos_core} into a {!Dsm.Protocol.S}: an [Init] internal
    action boots each node (the three initialisation events of the
    Fig. 10 state space), and a [Propose] internal action is enabled at
    configured proposer nodes following the paper's test driver
    (§4.2): a node proposes its own identity as the value for the
    first index its learner has not yet chosen, up to a bounded number
    of attempts. *)

module type CONFIG = sig
  val num_nodes : int

  (** Nodes allowed to propose.  [[0]] gives the one-proposal state
      space of Fig. 10 (depth 22); [[0; 1]] the two-proposal space of
      §5.2 (depth 41). *)
  val proposers : int list

  (** Propositions per node per index. *)
  val max_attempts : int

  (** Consensus indices in play ([0 .. max_index - 1]). *)
  val max_index : int

  (** Whether the driver also proposes for untouched ("new") indices.
      The live deployment wants this on to generate traffic; the §4.2
      test driver used inside the checker wants it off so exploration
      focuses on the contended index ("a careful design of the test
      driver could greatly impact the efficiency of model checking"). *)
  val fresh_proposals : bool

  val bug : Paxos_core.bug
end

(** Three nodes, node 0 proposes once for one index, no bug — the
    benchmark state space of §5.1. *)
module Bench_config : CONFIG

type paxos_state = { booted : bool; core : Paxos_core.state }

type paxos_action = Init | Propose of { idx : int }

module Make (C : CONFIG) : sig
  include
    Dsm.Protocol.S
      with type state = paxos_state
       and type message = Paxos_core.message
       and type action = paxos_action

  (** The Paxos safety property: "no two nodes will choose different
      values for the same index".  Pairwise, keyed by the values a node
      has chosen (§4.2's LMC-OPT abstraction): a state that has chosen
      nothing is never combined. *)
  val safety : paxos_state Dsm.Invariant.t
end
