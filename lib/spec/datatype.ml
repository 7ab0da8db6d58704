open Nt_base

type op =
  | Read
  | Write of Value.t
  | Incr of int
  | Decr of int
  | Get
  | Deposit of int
  | Withdraw of int
  | Balance
  | Insert of Value.t
  | Remove of Value.t
  | Member of Value.t
  | Size
  | Enqueue of Value.t
  | Dequeue
  | Kread of Value.t
  | Kwrite of Value.t * Value.t
  | Vread
  | Vwrite of int * Value.t

exception Unsupported of op

type t = {
  dt_name : string;
  init : Value.t;
  apply : Value.t -> op -> Value.t * Value.t;
  commutes : op * Value.t -> op * Value.t -> bool;
  sample_ops : Rng.t -> op;
  probe_states : Value.t list;
}

let conflicts dt o1 o2 = not (dt.commutes o1 o2)

(* Access-level conflict: exists return values (realizable in some state)
   making the operations conflict.  We enumerate candidate return values
   by applying each op in every probe state. *)
let accesses_conflict dt op1 op2 =
  let returns op =
    List.sort_uniq Value.compare
      (List.map (fun s -> snd (dt.apply s op)) dt.probe_states)
  in
  let r1 = returns op1 and r2 = returns op2 in
  List.exists
    (fun v1 -> List.exists (fun v2 -> conflicts dt (op1, v1) (op2, v2)) r2)
    r1

let pp_op fmt = function
  | Read -> Format.pp_print_string fmt "read"
  | Write v -> Format.fprintf fmt "write(%a)" Value.pp v
  | Incr k -> Format.fprintf fmt "incr(%d)" k
  | Decr k -> Format.fprintf fmt "decr(%d)" k
  | Get -> Format.pp_print_string fmt "get"
  | Deposit k -> Format.fprintf fmt "deposit(%d)" k
  | Withdraw k -> Format.fprintf fmt "withdraw(%d)" k
  | Balance -> Format.pp_print_string fmt "balance"
  | Insert v -> Format.fprintf fmt "insert(%a)" Value.pp v
  | Remove v -> Format.fprintf fmt "remove(%a)" Value.pp v
  | Member v -> Format.fprintf fmt "member(%a)" Value.pp v
  | Size -> Format.pp_print_string fmt "size"
  | Enqueue v -> Format.fprintf fmt "enqueue(%a)" Value.pp v
  | Dequeue -> Format.pp_print_string fmt "dequeue"
  | Kread k -> Format.fprintf fmt "kread(%a)" Value.pp k
  | Kwrite (k, v) -> Format.fprintf fmt "kwrite(%a, %a)" Value.pp k Value.pp v
  | Vread -> Format.pp_print_string fmt "vread"
  | Vwrite (ver, v) -> Format.fprintf fmt "vwrite(%d, %a)" ver Value.pp v

let op_to_string op = Format.asprintf "%a" pp_op op
