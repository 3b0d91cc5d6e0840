type value = int
type round = int

type bug = No_bug | Last_response_wins

type message =
  | Prepare of { idx : int; rnd : round }
  | Promise of { idx : int; rnd : round; vrnd : round; vval : value option }
  | Accept of { idx : int; rnd : round; v : value }
  | Learn of { idx : int; rnd : round; v : value }

type acceptor_slot = { promised : round; vrnd : round; vval : value option }

type proposer_slot = {
  crnd : round;
  pval : value;  (* the value this node wants chosen *)
  responses : (int * (round * value option)) list;  (* by responder *)
  last_resp : (round * value option) option;  (* for the §5.5 bug *)
  accept_sent : bool;
}

type learner_slot = {
  learns : ((int * round) * value) list;  (* (acceptor, round) -> value *)
  chosen : value option;
}

type slot = {
  acc : acceptor_slot;
  prop : proposer_slot option;
  lrn : learner_slot;
}

type state = {
  slots : (int * slot) list;  (* by index, sorted *)
  att : (int * int) list;  (* attempts per index, sorted *)
}

let empty = { slots = []; att = [] }

let empty_slot =
  {
    acc = { promised = 0; vrnd = 0; vval = None };
    prop = None;
    lrn = { learns = []; chosen = None };
  }

(* Canonical sorted-assoc update; keeps fingerprints stable. *)
let rec assoc_update key f = function
  | [] -> [ (key, f None) ]
  | (k, v) :: rest when k = key -> (k, f (Some v)) :: rest
  | (k, v) :: rest when k > key -> (key, f None) :: (k, v) :: rest
  | kv :: rest -> kv :: assoc_update key f rest

let slot state idx =
  match List.assoc_opt idx state.slots with Some s -> s | None -> empty_slot

let set_slot state idx s =
  { state with slots = assoc_update idx (fun _ -> s) state.slots }

let attempts state idx =
  match List.assoc_opt idx state.att with Some a -> a | None -> 0

let chosen state idx = (slot state idx).lrn.chosen

let chosen_all state =
  List.filter_map
    (fun (idx, s) ->
      match s.lrn.chosen with Some v -> Some (idx, v) | None -> None)
    state.slots

let has_accepted state idx =
  let a = (slot state idx).acc in
  match a.vval with Some v -> Some (a.vrnd, v) | None -> None

let promised state idx = (slot state idx).acc.promised

let is_untouched state idx =
  attempts state idx = 0 && List.assoc_opt idx state.slots = None

let majority n = (n / 2) + 1

let broadcast n msg = List.init n (fun dst -> (dst, msg))

(* A round above both the own attempt counter and any round the local
   acceptor has promised, so a re-proposal is not rejected by the
   proposer's own acceptor.  Rounds of distinct proposers never
   collide: k*n + self. *)
let next_attempt ~n state ~idx =
  max (attempts state idx + 1) ((promised state idx / n) + 1)

let propose ~n ~self state ~idx ~v =
  let k = next_attempt ~n state ~idx in
  let rnd = (k * n) + self + 1 in
  let s = slot state idx in
  let s =
    {
      s with
      prop =
        Some
          {
            crnd = rnd;
            pval = v;
            responses = [];
            last_resp = None;
            accept_sent = false;
          };
    }
  in
  let state = set_slot state idx s in
  let state = { state with att = assoc_update idx (fun _ -> k) state.att } in
  (state, broadcast n (Prepare { idx; rnd }))

let handle_prepare state ~src ~idx ~rnd =
  let s = slot state idx in
  if rnd > s.acc.promised then
    let s = { s with acc = { s.acc with promised = rnd } } in
    ( set_slot state idx s,
      [ (src, Promise { idx; rnd; vrnd = s.acc.vrnd; vval = s.acc.vval }) ] )
  else (state, [])

(* "The value in the Accept message is the value returned by the
   PrepareResponse message with the highest proposal number, which
   reflects the accepted values from previous proposals, if there is
   any" (§5).  The buggy variant takes the last response received
   instead — the WiDS-reported bug of §5.5. *)
let pick_value ~bug (p : proposer_slot) =
  match bug with
  | No_bug ->
      let best =
        List.fold_left
          (fun best (_, (vrnd, vval)) ->
            match (vval, best) with
            | Some _, Some (best_rnd, _) when vrnd > best_rnd ->
                Some (vrnd, vval)
            | Some _, None -> Some (vrnd, vval)
            | _ -> best)
          None p.responses
      in
      (match best with Some (_, Some v) -> v | _ -> p.pval)
  | Last_response_wins -> (
      match p.last_resp with Some (_, Some v) -> v | _ -> p.pval)

let handle_promise ~n ~bug state ~src ~idx ~rnd ~vrnd ~vval =
  let s = slot state idx in
  match s.prop with
  | Some p when rnd = p.crnd && not p.accept_sent ->
      let responses = assoc_update src (fun _ -> (vrnd, vval)) p.responses in
      let p = { p with responses; last_resp = Some (vrnd, vval) } in
      if List.length responses >= majority n then begin
        let v = pick_value ~bug p in
        let p = { p with accept_sent = true } in
        let state = set_slot state idx { s with prop = Some p } in
        (state, broadcast n (Accept { idx; rnd; v }))
      end
      else (set_slot state idx { s with prop = Some p }, [])
  | _ -> (state, [])

(* Local assertions (§4.2): a proposer broadcasts exactly one Accept
   per round, so within one real run a round determines its value.
   Receiving a message that contradicts that is only possible under
   LMC's conservative delivery (states from incompatible branches fed
   from the shared network); the checker discards such node states. *)
let handle_accept ~n state ~idx ~rnd ~v =
  let s = slot state idx in
  if s.acc.vrnd = rnd && s.acc.vval <> None && s.acc.vval <> Some v then
    raise
      (Dsm.Protocol.Local_assert "two Accept values for the same round");
  if rnd >= s.acc.promised then
    let s = { s with acc = { promised = rnd; vrnd = rnd; vval = Some v } } in
    (set_slot state idx s, broadcast n (Learn { idx; rnd; v }))
  else (state, [])

let handle_learn ~n state ~src ~idx ~rnd ~v =
  let s = slot state idx in
  if
    List.exists (fun ((_, r), v') -> r = rnd && v' <> v) s.lrn.learns
  then
    raise (Dsm.Protocol.Local_assert "conflicting Learn values for a round");
  let learns = assoc_update (src, rnd) (fun _ -> v) s.lrn.learns in
  let votes_for_rnd =
    List.length (List.filter (fun ((_, r), _) -> r = rnd) learns)
  in
  let chosen =
    match s.lrn.chosen with
    | Some _ as already -> already
    | None -> if votes_for_rnd >= majority n then Some v else None
  in
  (set_slot state idx { s with lrn = { learns; chosen } }, [])

let handle ~n ~self:_ ~bug state ~src msg =
  match msg with
  | Prepare { idx; rnd } -> handle_prepare state ~src ~idx ~rnd
  | Promise { idx; rnd; vrnd; vval } ->
      handle_promise ~n ~bug state ~src ~idx ~rnd ~vrnd ~vval
  | Accept { idx; rnd; v } -> handle_accept ~n state ~idx ~rnd ~v
  | Learn { idx; rnd; v } -> handle_learn ~n state ~src ~idx ~rnd ~v

let pp_value_option ppf = function
  | None -> Format.pp_print_string ppf "_"
  | Some v -> Format.pp_print_int ppf v

let pp_state ppf state =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (idx, s) ->
      Format.fprintf ppf "[%d] acc{prom=%d vrnd=%d vval=%a} chosen=%a@ " idx
        s.acc.promised s.acc.vrnd pp_value_option s.acc.vval pp_value_option
        s.lrn.chosen)
    state.slots;
  Format.fprintf ppf "@]"

let pp_message ppf = function
  | Prepare { idx; rnd } -> Format.fprintf ppf "Prepare(i=%d,r=%d)" idx rnd
  | Promise { idx; rnd; vrnd; vval } ->
      Format.fprintf ppf "Promise(i=%d,r=%d,vr=%d,vv=%a)" idx rnd vrnd
        pp_value_option vval
  | Accept { idx; rnd; v } -> Format.fprintf ppf "Accept(i=%d,r=%d,v=%d)" idx rnd v
  | Learn { idx; rnd; v } -> Format.fprintf ppf "Learn(i=%d,r=%d,v=%d)" idx rnd v

let disagreement a b =
  let rec scan = function
    | [] -> None
    | (idx, va) :: rest -> (
        match List.assoc_opt idx b with
        | Some vb when vb <> va ->
            Some
              (Printf.sprintf "index %d chosen as %d by one node, %d by another"
                 idx va vb)
        | _ -> scan rest)
  in
  scan a

let learns state idx = (slot state idx).lrn.learns
