type bug = No_bug | Commit_on_majority

module type CONFIG = sig
  val num_nodes : int
  val no_voters : int list
  val bug : bug
end

type coordinator_phase = C_init | C_preparing | C_committed | C_aborted

type participant_phase = P_idle | P_prepared | P_committed | P_aborted

type tpc_state = {
  coord : coordinator_phase;
  part : participant_phase;
  votes : (int * bool) list;
}

type tpc_message = Prepare | Vote of bool | Commit | Abort

module Make (C : CONFIG) = struct
  let name = "two-phase-commit"
  let num_nodes = C.num_nodes

  let () =
    if C.num_nodes < 2 then invalid_arg "Twophase: need a participant";
    if List.mem 0 C.no_voters then
      invalid_arg "Twophase: the coordinator does not vote"

  type state = tpc_state
  type message = tpc_message
  type action = unit

  let coordinator = 0

  let initial _ = { coord = C_init; part = P_idle; votes = [] }

  let participants = List.filter (fun n -> n <> coordinator) (Dsm.Node_id.all C.num_nodes)

  let to_participants self msg =
    List.map (fun dst -> Dsm.Envelope.make ~src:self ~dst msg) participants

  let rec record_vote node v = function
    | [] -> [ (node, v) ]
    | (n, _) :: rest when n = node -> (n, v) :: rest  (* duplicate vote *)
    | (n, x) :: rest when n > node -> (node, v) :: (n, x) :: rest
    | nv :: rest -> nv :: record_vote node v rest

  (* "All voted yes" under the correct rule; a majority of participants
     under the buggy one. *)
  let decides_commit votes =
    let yes = List.length (List.filter snd votes) in
    match C.bug with
    | No_bug ->
        List.length votes = List.length participants
        && yes = List.length participants
    | Commit_on_majority -> yes > List.length participants / 2

  let decides_abort votes = List.exists (fun (_, v) -> not v) votes

  let handle_coordinator self state = function
    | Vote v, src ->
        if state.coord <> C_preparing then (state, [])
        else begin
          let votes = record_vote src v state.votes in
          if decides_commit votes then
            ({ state with coord = C_committed; votes },
             to_participants self Commit)
          else if decides_abort votes && not (decides_commit votes) then
            ({ state with coord = C_aborted; votes },
             to_participants self Abort)
          else ({ state with votes }, [])
        end
    | (Prepare | Commit | Abort), _ ->
        raise (Dsm.Protocol.Local_assert "decision message at coordinator")

  let handle_participant self state = function
    | Prepare ->
        (match state.part with
        | P_idle ->
            if List.mem self C.no_voters then
              ( { state with part = P_aborted },
                [ Dsm.Envelope.make ~src:self ~dst:coordinator (Vote false) ] )
            else
              ( { state with part = P_prepared },
                [ Dsm.Envelope.make ~src:self ~dst:coordinator (Vote true) ] )
        | P_prepared | P_committed | P_aborted -> (state, []))
    | Commit -> (
        match state.part with
        | P_prepared -> ({ state with part = P_committed }, [])
        | P_committed -> (state, [])
        | P_aborted ->
            (* With the majority bug a no-voter can receive Commit after
               aborting; it stays aborted — which is exactly what breaks
               atomicity across nodes. *)
            (state, [])
        | P_idle ->
            raise (Dsm.Protocol.Local_assert "commit before prepare"))
    | Abort -> (
        match state.part with
        | P_committed ->
            raise (Dsm.Protocol.Local_assert "abort after commit")
        | _ -> ({ state with part = P_aborted }, []))
    | Vote _ -> raise (Dsm.Protocol.Local_assert "vote at participant")

  let handle_message ~self state env =
    let msg = env.Dsm.Envelope.payload in
    if self = coordinator then
      handle_coordinator self state (msg, env.Dsm.Envelope.src)
    else handle_participant self state msg

  let enabled_actions ~self state =
    if self = coordinator && state.coord = C_init then [ () ] else []

  let handle_action ~self state () =
    ({ state with coord = C_preparing }, to_participants self Prepare)

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s =
    let c =
      match s.coord with
      | C_init -> "init"
      | C_preparing -> "preparing"
      | C_committed -> "committed"
      | C_aborted -> "aborted"
    in
    let p =
      match s.part with
      | P_idle -> "idle"
      | P_prepared -> "prepared"
      | P_committed -> "committed"
      | P_aborted -> "aborted"
    in
    Format.fprintf ppf "{coord=%s part=%s votes=%d}" c p (List.length s.votes)

  let pp_message ppf = function
    | Prepare -> Format.pp_print_string ppf "Prepare"
    | Vote v -> Format.fprintf ppf "Vote(%b)" v
    | Commit -> Format.pp_print_string ppf "Commit"
    | Abort -> Format.pp_print_string ppf "Abort"

  let pp_action ppf () = Format.pp_print_string ppf "begin"

  let decision n s =
    if n = coordinator then
      match s.coord with
      | C_committed -> Some `Committed
      | C_aborted -> Some `Aborted
      | C_init | C_preparing -> None
    else
      match s.part with
      | P_committed -> Some `Committed
      | P_aborted -> Some `Aborted
      | P_idle | P_prepared -> None

  let atomicity =
    Dsm.Invariant.for_all_pairs ~name:"2pc-atomicity" ~key:decision
      ~conflict:(fun a b ->
        if a <> b then Some "one node committed while another aborted"
        else None)
end
