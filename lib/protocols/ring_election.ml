type bug = No_bug | Forward_smaller

module type CONFIG = sig
  val num_nodes : int
  val starters : int list
  val bug : bug
end

type re_state = {
  participating : bool;
  leader : int option;
  woke : bool;
}

type re_message = Token of int | Elected of int

module Make (C : CONFIG) = struct
  let name = "ring-election"
  let num_nodes = C.num_nodes

  let () =
    if C.num_nodes < 2 then invalid_arg "Ring_election: need at least 2 nodes";
    if List.exists (fun s -> s < 0 || s >= C.num_nodes) C.starters then
      invalid_arg "Ring_election: starter out of range"

  type state = re_state
  type message = re_message
  type action = unit

  let initial _ = { participating = false; leader = None; woke = false }

  let succ self = (self + 1) mod C.num_nodes

  let send self msg = [ Dsm.Envelope.make ~src:self ~dst:(succ self) msg ]

  let handle_token ~self state id =
    if id = self then
      (* the own token survived a full round: this node wins *)
      ({ state with leader = Some self }, send self (Elected self))
    else if id > self then
      ({ state with participating = true }, send self (Token id))
    else if not state.participating then
      (* join the election with the own, larger identifier *)
      ({ state with participating = true }, send self (Token self))
    else
      match C.bug with
      | No_bug -> (state, []) (* swallow the losing token *)
      | Forward_smaller ->
          (* the bug: the losing token survives and can come home *)
          (state, send self (Token id))

  let handle_elected ~self state l =
    let state = { state with leader = Some l; participating = false } in
    if l = self then (state, []) else (state, send self (Elected l))

  let handle_message ~self state env =
    match env.Dsm.Envelope.payload with
    | Token id -> handle_token ~self state id
    | Elected l -> handle_elected ~self state l

  let enabled_actions ~self state =
    if
      List.mem self C.starters
      && (not state.woke)
      && (not state.participating)
      && state.leader = None
    then [ () ]
    else []

  let handle_action ~self state () =
    ( { state with participating = true; woke = true },
      send self (Token self) )

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s =
    Format.fprintf ppf "{part=%b leader=%s}" s.participating
      (match s.leader with None -> "-" | Some l -> string_of_int l)

  let pp_message ppf = function
    | Token id -> Format.fprintf ppf "Token(%d)" id
    | Elected l -> Format.fprintf ppf "Elected(%d)" l

  let pp_action ppf () = Format.pp_print_string ppf "wake"

  let agreement =
    Dsm.Invariant.for_all_pairs ~name:"election-agreement"
      ~key:(fun _ s -> s.leader)
      ~conflict:(fun la lb ->
        if la <> lb then
          Some
            (Printf.sprintf "one node follows N%d, another follows N%d" la lb)
        else None)
end
