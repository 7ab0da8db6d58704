open Nt_base
open Nt_spec

type comb = Seq | Par
type t = Access of Obj_id.t * Datatype.op | Node of comb * t list

let seq children = Node (Seq, children)
let par children = Node (Par, children)
let access x op = Access (x, op)

(* The program node a name denotes, given the forest's top-level
   lookup: the [i]-th top is child [i] of [T0], the [j]-th sub-program of
   a node its [j]-th child. *)
let lookup tops txn =
  let rec walk prog = function
    | [] -> Some prog
    | i :: rest -> (
        match prog with
        | Node (_, children) -> (
            match List.nth_opt children i with
            | Some p -> walk p rest
            | None -> None)
        | Access _ -> None)
  in
  match Txn_id.path txn with
  | [] -> None
  | i :: rest -> Option.bind (tops i) (fun p -> walk p rest)

let subprogram forest txn = lookup (List.nth_opt forest) txn

let schema_of_tops ~objects tops =
  let dtypes = Obj_id.Tbl.create 16 in
  List.iter
    (fun (x, dt) ->
      if not (Obj_id.Tbl.mem dtypes x) then Obj_id.Tbl.add dtypes x dt)
    objects;
  let dtype_of x =
    match Obj_id.Tbl.find_opt dtypes x with
    | Some dt -> dt
    | None -> invalid_arg ("Program.schema: undeclared object " ^ Obj_id.name x)
  in
  let classify txn =
    match lookup tops txn with
    | Some (Access (x, _)) -> System_type.Access x
    | Some (Node _) | None -> System_type.Inner
  in
  let op_of txn =
    match lookup tops txn with
    | Some (Access (_, op)) -> op
    | _ ->
        invalid_arg
          ("Program.schema: " ^ Txn_id.to_string txn ^ " is not an access")
  in
  {
    Schema.sys = System_type.make classify;
    objects = List.map fst objects;
    dtype_of;
    op_of;
  }

let rec accesses = function
  | Access (x, op) -> [ (x, op) ]
  | Node (_, children) -> List.concat_map accesses children

let schema_of ~objects forest =
  List.iter
    (fun p ->
      List.iter
        (fun (x, _) ->
          if not (List.exists (fun (y, _) -> Obj_id.equal x y) objects) then
            invalid_arg
              ("Program.schema_of: undeclared object " ^ Obj_id.name x))
        (accesses p))
    forest;
  let tops = Array.of_list forest in
  schema_of_tops ~objects (fun i ->
      if i < Array.length tops then Some tops.(i) else None)

let rec size = function
  | Access _ -> 1
  | Node (_, children) -> 1 + List.fold_left (fun n p -> n + size p) 0 children

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
