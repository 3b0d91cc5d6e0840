type violation = { invariant : string; detail : string }

type 'state shape =
  | Opaque
  | Nodewise of (Node_id.t -> 'state -> bool)
  | Pairwise : {
      key : Node_id.t -> 'state -> 'k option;
      conflict : 'k -> 'k -> string option;
    }
      -> 'state shape

type 'state t = {
  name : string;
  check : 'state array -> string option;
  shape : 'state shape;
}

let name t = t.name

let shape t = t.shape

let check t system =
  match t.check system with
  | None -> None
  | Some detail -> Some { invariant = t.name; detail }

let make ~name check = { name; check; shape = Opaque }

(* A conjunction keeps a shape its conjuncts share: a combination can
   only violate it by violating one of them.  Pairwise keys pair up;
   either conjunct's key may be absent. *)
let conj_shape : type s. s shape -> s shape -> s shape =
 fun a b ->
  match (a, b) with
  | Nodewise f, Nodewise g -> Nodewise (fun n s -> f n s || g n s)
  | Pairwise p, Pairwise q ->
      let side conflict x y =
        match (x, y) with Some x, Some y -> conflict x y | _ -> None
      in
      Pairwise
        {
          key =
            (fun n s ->
              match (p.key n s, q.key n s) with
              | None, None -> None
              | kp, kq -> Some (kp, kq));
          conflict =
            (fun (p1, q1) (p2, q2) ->
              match side p.conflict p1 p2 with
              | Some _ as d -> d
              | None -> side q.conflict q1 q2);
        }
  | _ -> Opaque

let conj ts =
  let name = String.concat " & " (List.map (fun t -> t.name) ts) in
  let check system =
    let rec first = function
      | [] -> None
      | t :: rest -> (
          match t.check system with
          | Some detail -> Some (Printf.sprintf "[%s] %s" t.name detail)
          | None -> first rest)
    in
    first ts
  in
  let shape =
    match ts with
    | [] -> Opaque
    | t :: rest -> List.fold_left (fun s t -> conj_shape s t.shape) t.shape rest
  in
  { name; check; shape }

let for_all_nodes ~name f =
  let check system =
    let n = Array.length system in
    let rec loop i =
      if i >= n then None
      else
        match f i system.(i) with
        | Some detail -> Some (Printf.sprintf "at N%d: %s" i detail)
        | None -> loop (i + 1)
    in
    loop 0
  in
  { name; check; shape = Nodewise (fun n s -> f n s <> None) }

let for_all_pairs ~name ~key ~conflict =
  let check system =
    let keys = Array.mapi key system in
    let n = Array.length system in
    let result = ref None in
    (try
       for i = 0 to n - 1 do
         match keys.(i) with
         | None -> ()
         | Some ki ->
             for j = i + 1 to n - 1 do
               match keys.(j) with
               | None -> ()
               | Some kj -> (
                   match conflict ki kj with
                   | Some detail ->
                       result :=
                         Some
                           (Printf.sprintf "between N%d and N%d: %s" i j
                              detail);
                       raise Exit
                   | None -> ())
             done
       done
     with Exit -> ());
    !result
  in
  { name; check; shape = Pairwise { key; conflict } }

let pp_violation ppf v =
  Format.fprintf ppf "invariant %S violated: %s" v.invariant v.detail
