(** Chang-Roberts leader election on a unidirectional ring.

    Any node may wake up and start an election by sending a token with
    its identifier to its successor.  A node receiving a token forwards
    it if the identifier beats its own, replaces it with its own token
    if it has not yet joined an election, swallows it otherwise, and
    declares itself leader when its own token comes home; the winner
    circulates an announcement.

    The agreement invariant: no two nodes believe in different
    leaders.

    The injectable bug drops the swallow rule: a participating node
    forwards a {e smaller} token instead of discarding it, so a losing
    candidate can see its token return and also declare itself
    leader. *)

type bug = No_bug | Forward_smaller

module type CONFIG = sig
  val num_nodes : int

  (** Nodes allowed to wake up and start an election. *)
  val starters : int list

  val bug : bug
end

type re_state = {
  participating : bool;
  leader : int option;
  woke : bool;  (** this node used its wake-up *)
}

type re_message = Token of int | Elected of int

module Make (_ : CONFIG) : sig
  include
    Dsm.Protocol.S
      with type state = re_state
       and type message = re_message
       and type action = unit

  (** No two nodes ever believe in different leaders.  Pairwise, keyed
      by the believed leader, if any. *)
  val agreement : re_state Dsm.Invariant.t
end
