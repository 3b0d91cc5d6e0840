type bug = No_bug | Regenerate_token

module type CONFIG = sig
  val num_nodes : int
  val contenders : int list
  val max_regenerations : int
  val bug : bug
end

type mutex_state = {
  has_token : bool;
  wants : bool;
  in_cs : bool;
  served : bool;
  regenerations : int;
}

type mutex_action = Want | Enter | Leave | Pass | Regenerate

module Make (C : CONFIG) = struct
  let name = "token-mutex"
  let num_nodes = C.num_nodes

  let () =
    if C.num_nodes < 2 then invalid_arg "Token_mutex: need at least 2 nodes";
    if List.exists (fun c -> c < 0 || c >= C.num_nodes) C.contenders then
      invalid_arg "Token_mutex: contender out of range"

  type state = mutex_state
  type message = unit
  type action = mutex_action

  let initial n =
    {
      has_token = n = 0;
      wants = false;
      in_cs = false;
      served = false;
      regenerations = 0;
    }

  let succ self = (self + 1) mod C.num_nodes

  let pass self = [ Dsm.Envelope.make ~src:self ~dst:(succ self) () ]

  let handle_message ~self:_ state _env =
    if state.has_token then
      raise (Dsm.Protocol.Local_assert "received a token while holding one");
    ({ state with has_token = true }, [])

  let enabled_actions ~self state =
    let want =
      if
        List.mem self C.contenders
        && (not state.wants)
        && (not state.served)
        && not state.in_cs
      then [ Want ]
      else []
    in
    let enter =
      if state.has_token && state.wants && not state.in_cs then [ Enter ]
      else []
    in
    let leave = if state.in_cs then [ Leave ] else [] in
    let pass_on =
      if state.has_token && (not state.wants) && not state.in_cs then
        [ Pass ]
      else []
    in
    let regenerate =
      match C.bug with
      | No_bug -> []
      | Regenerate_token ->
          if
            (not state.has_token)
            && state.wants
            && state.regenerations < C.max_regenerations
          then [ Regenerate ]
          else []
    in
    want @ enter @ leave @ pass_on @ regenerate

  let handle_action ~self state = function
    | Want -> ({ state with wants = true }, [])
    | Enter -> ({ state with in_cs = true }, [])
    | Leave ->
        ( {
            state with
            in_cs = false;
            wants = false;
            served = true;
            has_token = false;
          },
          pass self )
    | Pass -> ({ state with has_token = false }, pass self)
    | Regenerate ->
        (* the bug: "the token must be lost" — it is not *)
        ( { state with has_token = true; regenerations = state.regenerations + 1 },
          [] )

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s =
    Format.fprintf ppf "{%s%s%s%s}"
      (if s.has_token then "T" else "-")
      (if s.wants then "w" else "-")
      (if s.in_cs then "C" else "-")
      (if s.served then "s" else "-")

  let pp_message ppf () = Format.pp_print_string ppf "token"

  let pp_action ppf = function
    | Want -> Format.pp_print_string ppf "want"
    | Enter -> Format.pp_print_string ppf "enter"
    | Leave -> Format.pp_print_string ppf "leave"
    | Pass -> Format.pp_print_string ppf "pass"
    | Regenerate -> Format.pp_print_string ppf "regenerate-token"

  let mutual_exclusion =
    Dsm.Invariant.for_all_pairs ~name:"mutual-exclusion"
      ~key:(fun _ s -> if s.in_cs then Some () else None)
      ~conflict:(fun () () -> Some "two nodes in the critical section")
end
