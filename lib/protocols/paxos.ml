module type CONFIG = sig
  val num_nodes : int
  val proposers : int list
  val max_attempts : int
  val max_index : int
  val fresh_proposals : bool
  val bug : Paxos_core.bug
end

module Bench_config = struct
  let num_nodes = 3
  let proposers = [ 0 ]
  let max_attempts = 1
  let max_index = 1
  let fresh_proposals = true
  let bug = Paxos_core.No_bug
end

type paxos_state = { booted : bool; core : Paxos_core.state }

type paxos_action = Init | Propose of { idx : int }

module Make (C : CONFIG) = struct
  let name = "paxos"
  let num_nodes = C.num_nodes

  let () =
    if C.num_nodes < 2 then invalid_arg "Paxos: need at least 2 nodes";
    if List.exists (fun p -> p < 0 || p >= C.num_nodes) C.proposers then
      invalid_arg "Paxos: proposer out of range"

  type state = paxos_state
  type message = Paxos_core.message
  type action = paxos_action

  let initial _ = { booted = false; core = Paxos_core.empty }

  let envelopes self out =
    List.map (fun (dst, msg) -> Dsm.Envelope.make ~src:self ~dst msg) out

  let handle_message ~self state env =
    if not state.booted then
      raise (Dsm.Protocol.Local_assert "message before initialization");
    let core, out =
      Paxos_core.handle ~n:C.num_nodes ~self ~bug:C.bug state.core
        ~src:env.Dsm.Envelope.src env.Dsm.Envelope.payload
    in
    ({ state with core }, envelopes self out)

  (* The test driver of §4.2: "The index is selected from recent chosen
     proposals, where not all the nodes have learned the proposal yet.
     Otherwise, a new index is used."  The locally visible proxy for a
     not-fully-learned proposal is an index this node's acceptor has
     accepted but its learner has not chosen. *)
  let propose_candidate ~self state =
    if not (List.mem self C.proposers) then None
    else begin
      let rec hot idx =
        if idx >= C.max_index then None
        else if
          Paxos_core.has_accepted state.core idx <> None
          && Paxos_core.chosen state.core idx = None
          && Paxos_core.next_attempt ~n:C.num_nodes state.core ~idx
             <= C.max_attempts
        then Some idx
        else hot (idx + 1)
      in
      let rec fresh idx =
        if idx >= C.max_index then None
        else if Paxos_core.is_untouched state.core idx then Some idx
        else fresh (idx + 1)
      in
      match hot 0 with
      | Some idx -> Some idx
      | None -> if C.fresh_proposals then fresh 0 else None
    end

  let enabled_actions ~self state =
    if not state.booted then [ Init ]
    else
      match propose_candidate ~self state with
      | Some idx -> [ Propose { idx } ]
      | None -> []

  let handle_action ~self state = function
    | Init -> ({ state with booted = true }, [])
    | Propose { idx } ->
        if not state.booted then
          raise (Dsm.Protocol.Local_assert "propose before initialization");
        let core, out =
          Paxos_core.propose ~n:C.num_nodes ~self state.core ~idx
            ~v:(self + 1)
        in
        ({ state with core }, envelopes self out)

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s =
    if not s.booted then Format.pp_print_string ppf "(not booted)"
    else Paxos_core.pp_state ppf s.core

  let pp_message = Paxos_core.pp_message

  let pp_action ppf = function
    | Init -> Format.pp_print_string ppf "init"
    | Propose { idx } -> Format.fprintf ppf "propose(i=%d)" idx

  let safety =
    Dsm.Invariant.for_all_pairs ~name:"paxos-safety"
      ~key:(fun _ s ->
        match Paxos_core.chosen_all s.core with [] -> None | kvs -> Some kvs)
      ~conflict:Paxos_core.disagreement
end
