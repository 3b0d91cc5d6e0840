(** Token-ring mutual exclusion.

    A single token circulates a unidirectional ring; only its holder
    may enter the critical section.  Interested nodes keep the token
    while inside and pass it on when done (or immediately, if not
    interested).

    The safety invariant: at most one node is in the critical section.

    The injectable bug is the textbook one: a node that waited "too
    long" regenerates a lost token (a timeout action), but the token
    was never lost — now two tokens circulate and two nodes can be in
    the critical section together. *)

type bug = No_bug | Regenerate_token

module type CONFIG = sig
  val num_nodes : int

  (** Nodes that want the critical section (each enters once). *)
  val contenders : int list

  (** Regeneration timeouts available per node (buggy builds only). *)
  val max_regenerations : int

  val bug : bug
end

type mutex_state = {
  has_token : bool;
  wants : bool;
  in_cs : bool;
  served : bool;  (** already had its critical section *)
  regenerations : int;
}

type mutex_action = Want | Enter | Leave | Pass | Regenerate

module Make (_ : CONFIG) : sig
  include
    Dsm.Protocol.S
      with type state = mutex_state
       and type message = unit
       and type action = mutex_action

  (** At most one node in the critical section.  Pairwise, keyed by
      being in it. *)
  val mutual_exclusion : mutex_state Dsm.Invariant.t
end
