(** Two-phase commit.

    Node 0 coordinates; the rest are participants.  The coordinator
    broadcasts [Prepare]; each participant votes [Yes] (moving to
    prepared) or [No] (moving straight to aborted — the configured
    no-voters model participants that cannot commit); the coordinator
    decides [Commit] only on a unanimous yes and [Abort] otherwise,
    and broadcasts the decision.

    The atomicity invariant: no node commits while another aborts.

    The injectable bug is a classic implementation slip: the
    coordinator decides commit on a {e majority} of yes votes instead
    of unanimity, so a no-voter has already aborted when the commit
    decision reaches the others. *)

type bug = No_bug | Commit_on_majority

module type CONFIG = sig
  val num_nodes : int

  (** Participants that vote No (must not contain 0). *)
  val no_voters : int list

  val bug : bug
end

type coordinator_phase = C_init | C_preparing | C_committed | C_aborted

type participant_phase = P_idle | P_prepared | P_committed | P_aborted

type tpc_state = {
  coord : coordinator_phase;  (** meaningful at node 0 only *)
  part : participant_phase;  (** meaningful at participants only *)
  votes : (int * bool) list;  (** coordinator's tally, sorted by node *)
}

type tpc_message = Prepare | Vote of bool | Commit | Abort

module Make (_ : CONFIG) : sig
  include
    Dsm.Protocol.S
      with type state = tpc_state
       and type message = tpc_message
       and type action = unit

  (** Atomicity: never one node committed and another aborted.
      Pairwise, keyed by the node's decision in its own role (the
      coordinator's or a participant's), if it made one. *)
  val atomicity : tpc_state Dsm.Invariant.t
end
