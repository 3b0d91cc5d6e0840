type bug = No_bug | Postfix_increment

module type CONFIG = sig
  val num_nodes : int
  val max_leader_claims : int
  val max_attempts : int
  val max_index : int
  val max_util_entries : int
  val max_util_attempts : int
  val bug : bug
end

type entry = Leader_change of int | Acceptor_change of int

type op_message =
  | Util of Paxos_core.message
  | Propose1 of { idx : int; rnd : int; v : int }
  | Learn1 of { idx : int; rnd : int; v : int }

type op_action = Init | Claim_leadership | Propose of { idx : int }

type op_state = {
  booted : bool;
  util : Paxos_core.state;
  util_applied : int;
  leader : int;
  acceptor : int;
  is_leader : bool;
  claims : int;
  attempts : (int * int) list;
  accepted : (int * (int * int)) list;
  chosen : (int * int) list;
}

let encode_entry = function
  | Leader_change n -> 2 * n
  | Acceptor_change n -> (2 * n) + 1

let decode_entry v =
  if v mod 2 = 0 then Leader_change (v / 2) else Acceptor_change ((v - 1) / 2)

module Make (C : CONFIG) = struct
  let name = "1paxos"
  let num_nodes = C.num_nodes

  let () =
    if C.num_nodes < 3 then invalid_arg "Onepaxos: need at least 3 nodes"

  type state = op_state
  type message = op_message
  type action = op_action

  let initial _ =
    {
      booted = false;
      util = Paxos_core.empty;
      util_applied = 0;
      leader = 0;
      acceptor = 0;
      is_leader = false;
      claims = 0;
      attempts = [];
      accepted = [];
      chosen = [];
    }

  let rec assoc_update key f = function
    | [] -> [ (key, f None) ]
    | (k, v) :: rest when k = key -> (k, f (Some v)) :: rest
    | (k, v) :: rest when k > key -> (key, f None) :: (k, v) :: rest
    | kv :: rest -> kv :: assoc_update key f rest

  let attempts_for state idx =
    match List.assoc_opt idx state.attempts with Some a -> a | None -> 0

  (* The correct default: "the acceptor is set to the second [member]".
     The buggy initialisation used the postfix increment and got the
     first member instead — leader and acceptor collapse onto node 0. *)
  let correct_default_acceptor = 1

  let initial_acceptor =
    match C.bug with
    | No_bug -> correct_default_acceptor
    | Postfix_increment -> 0

  let env ~src ~dst payload = Dsm.Envelope.make ~src ~dst payload

  let wrap_util self out =
    List.map (fun (dst, msg) -> env ~src:self ~dst (Util msg)) out

  (* The utility log speaks through Paxos_core.chosen: apply newly
     decided entries in log order.  A node that becomes leader reads
     the active acceptor from the utility — this lookup is correct even
     in the buggy build; only the cached initial value is wrong. *)
  let apply_utility ~self state =
    let rec loop state =
      match Paxos_core.chosen state.util state.util_applied with
      | None -> state
      | Some v ->
          let state = { state with util_applied = state.util_applied + 1 } in
          let state =
            match decode_entry v with
            | Leader_change n ->
                let state =
                  { state with leader = n; is_leader = self = n }
                in
                if self = n then
                  (* Refresh the cached acceptor from the utility log;
                     fall back to the (correctly computed) default. *)
                  let last_acceptor =
                    let rec scan i acc =
                      if i >= state.util_applied then acc
                      else
                        match Paxos_core.chosen state.util i with
                        | Some v -> (
                            match decode_entry v with
                            | Acceptor_change a -> scan (i + 1) (Some a)
                            | Leader_change _ -> scan (i + 1) acc)
                        | None -> scan (i + 1) acc
                    in
                    scan 0 None
                  in
                  {
                    state with
                    acceptor =
                      Option.value ~default:correct_default_acceptor
                        last_acceptor;
                  }
                else state
            | Acceptor_change a -> { state with acceptor = a }
          in
          loop state
    in
    loop state

  let handle_util ~self state ~src msg =
    let util, out =
      Paxos_core.handle ~n:C.num_nodes ~self ~bug:Paxos_core.No_bug state.util
        ~src msg
    in
    let state = apply_utility ~self { state with util } in
    (state, wrap_util self out)

  (* Single-acceptor rule: the first accepted value for an index is
     locked; later proposals with a higher round re-learn the locked
     value.  This collapses new-leader recovery onto the acceptor
     itself, which is what makes one acceptor enough. *)
  let handle_propose1 ~self state ~idx ~rnd ~v =
    match List.assoc_opt idx state.accepted with
    | None ->
        let state =
          { state with accepted = assoc_update idx (fun _ -> (rnd, v)) state.accepted }
        in
        (state, List.init C.num_nodes (fun dst -> env ~src:self ~dst (Learn1 { idx; rnd; v })))
    | Some (r0, v0) ->
        if rnd > r0 then
          let state =
            {
              state with
              accepted = assoc_update idx (fun _ -> (rnd, v0)) state.accepted;
            }
          in
          ( state,
            List.init C.num_nodes (fun dst ->
                env ~src:self ~dst (Learn1 { idx; rnd; v = v0 })) )
        else (state, [])

  let handle_learn1 state ~idx ~v =
    match List.assoc_opt idx state.chosen with
    | Some _ -> (state, [])
    | None ->
        ({ state with chosen = assoc_update idx (fun _ -> v) state.chosen }, [])

  let handle_message ~self state e =
    if not state.booted then
      raise (Dsm.Protocol.Local_assert "message before initialization");
    match e.Dsm.Envelope.payload with
    | Util msg -> handle_util ~self state ~src:e.Dsm.Envelope.src msg
    | Propose1 { idx; rnd; v } -> handle_propose1 ~self state ~idx ~rnd ~v
    | Learn1 { idx; rnd = _; v } -> handle_learn1 state ~idx ~v

  let propose_candidate state =
    if not state.is_leader then None
    else
      let rec scan idx =
        if idx >= C.max_index then None
        else if
          List.assoc_opt idx state.chosen = None
          && attempts_for state idx < C.max_attempts
        then Some idx
        else scan (idx + 1)
      in
      scan 0

  let enabled_actions ~self:_ state =
    if not state.booted then [ Init ]
    else begin
      let claims =
        if
          (not state.is_leader)
          && state.claims < C.max_leader_claims
          && state.util_applied < C.max_util_entries
          && Paxos_core.next_attempt ~n:C.num_nodes state.util
               ~idx:state.util_applied
             <= C.max_util_attempts
        then [ Claim_leadership ]
        else []
      in
      let proposes =
        match propose_candidate state with
        | Some idx -> [ Propose { idx } ]
        | None -> []
      in
      claims @ proposes
    end

  let handle_action ~self state = function
    | Init ->
        ( {
            state with
            booted = true;
            leader = 0;
            acceptor = initial_acceptor;
            is_leader = self = 0;
          },
          [] )
    | Claim_leadership ->
        let state = { state with claims = state.claims + 1 } in
        (* Propose a LeaderChange entry at the next utility log slot
           this node knows to be free. *)
        let util, out =
          Paxos_core.propose ~n:C.num_nodes ~self state.util
            ~idx:state.util_applied
            ~v:(encode_entry (Leader_change self))
        in
        ({ state with util }, wrap_util self out)
    | Propose { idx } ->
        let k = attempts_for state idx + 1 in
        let state =
          { state with attempts = assoc_update idx (fun _ -> k) state.attempts }
        in
        (* Leadership epochs order rounds: a newer leader always beats
           a stale one at the acceptor. *)
        let rnd = (state.util_applied * (C.max_attempts + 1)) + k in
        ( state,
          [
            env ~src:self ~dst:state.acceptor
              (Propose1 { idx; rnd; v = self + 1 });
          ] )

  let pp_int_assoc ppf l =
    Format.fprintf ppf "[%s]"
      (String.concat ";"
         (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) l))

  let on_recover = Dsm.Protocol.default_on_recover

  let pp_state ppf s =
    if not s.booted then Format.pp_print_string ppf "(not booted)"
    else
      Format.fprintf ppf
        "{leader=%d acceptor=%d is_leader=%b claims=%d chosen=%a util_applied=%d}"
        s.leader s.acceptor s.is_leader s.claims pp_int_assoc s.chosen
        s.util_applied

  let pp_message ppf = function
    | Util m -> Format.fprintf ppf "Util(%a)" Paxos_core.pp_message m
    | Propose1 { idx; rnd; v } ->
        Format.fprintf ppf "Propose1(i=%d,r=%d,v=%d)" idx rnd v
    | Learn1 { idx; rnd; v } ->
        Format.fprintf ppf "Learn1(i=%d,r=%d,v=%d)" idx rnd v

  let pp_action ppf = function
    | Init -> Format.pp_print_string ppf "init"
    | Claim_leadership -> Format.pp_print_string ppf "claim-leadership"
    | Propose { idx } -> Format.fprintf ppf "propose1(i=%d)" idx

  let safety =
    Dsm.Invariant.for_all_pairs ~name:"1paxos-safety"
      ~key:(fun _ s -> match s.chosen with [] -> None | kvs -> Some kvs)
      ~conflict:Paxos_core.disagreement
end
