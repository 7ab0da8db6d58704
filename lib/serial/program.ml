open Nt_base
open Nt_spec

type comb = Seq | Par
type t = Access of Obj_id.t * Datatype.op | Node of comb * t list

let seq children = Node (Seq, children)
let par children = Node (Par, children)
let access x op = Access (x, op)

let subprogram forest txn =
  let rec walk progs = function
    | [] -> None
    | [ i ] -> List.nth_opt progs i
    | i :: rest -> (
        match List.nth_opt progs i with
        | Some (Node (_, children)) -> walk children rest
        | Some (Access _) | None -> None)
  in
  match Txn_id.path txn with [] -> None | path -> walk forest path

let schema_of ~objects forest =
  let find_dtype x =
    match List.find_opt (fun (y, _) -> Obj_id.equal x y) objects with
    | Some (_, dt) -> dt
    | None ->
        invalid_arg
          ("Program.schema_of: undeclared object " ^ Obj_id.name x)
  in
  (* Validate every access up front. *)
  let rec validate = function
    | Access (x, _) -> ignore (find_dtype x)
    | Node (_, children) -> List.iter validate children
  in
  List.iter validate forest;
  let classify txn =
    match subprogram forest txn with
    | Some (Access (x, _)) -> System_type.Access x
    | Some (Node _) | None -> System_type.Inner
  in
  let op_of txn =
    match subprogram forest txn with
    | Some (Access (_, op)) -> op
    | _ ->
        invalid_arg
          ("Program.schema_of: " ^ Txn_id.to_string txn ^ " is not an access")
  in
  {
    Schema.sys = System_type.make classify;
    objects = List.map fst objects;
    dtype_of = find_dtype;
    op_of;
  }

let rec size = function
  | Access _ -> 1
  | Node (_, children) -> 1 + List.fold_left (fun n p -> n + size p) 0 children

let rec accesses = function
  | Access (x, op) -> [ (x, op) ]
  | Node (_, children) -> List.concat_map accesses children

let objects prog =
  let rec go seen = function
    | Access (x, _) -> if List.exists (Obj_id.equal x) seen then seen else x :: seen
    | Node (_, children) -> List.fold_left go seen children
  in
  List.rev (go [] prog)

let rec pp fmt = function
  | Access (x, op) ->
      Format.fprintf fmt "%a.%a" Obj_id.pp x Datatype.pp_op op
  | Node (comb, children) ->
      Format.fprintf fmt "@[<hov 2>%s(%a)@]"
        (match comb with Seq -> "seq" | Par -> "par")
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.fprintf fmt ";@ ")
           pp)
        children
