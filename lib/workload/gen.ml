open Nt_base
open Nt_spec
open Nt_serial

type profile = {
  n_top : int;
  depth : int;
  fanout : int;
  n_objects : int;
  theta : float;
  par_ratio : float;
  read_ratio : float;
}

let default =
  {
    n_top = 8;
    depth = 2;
    fanout = 3;
    n_objects = 4;
    theta = 0.0;
    par_ratio = 0.5;
    read_ratio = 0.5;
  }

let lock_heavy =
  {
    n_top = 10;
    depth = 1;
    fanout = 2;
    n_objects = 1;
    theta = 0.0;
    par_ratio = 0.7;
    read_ratio = 0.2;
  }

let deep_nesting =
  {
    n_top = 4;
    depth = 4;
    fanout = 2;
    n_objects = 3;
    theta = 0.0;
    par_ratio = 0.5;
    read_ratio = 0.5;
  }

let abort_storm =
  {
    n_top = 8;
    depth = 2;
    fanout = 2;
    n_objects = 2;
    theta = 0.5;
    par_ratio = 0.5;
    read_ratio = 0.4;
  }

let pick_object rng p objs =
  List.nth objs (Rng.zipf rng ~n:p.n_objects ~theta:p.theta)

(* Generate a program of the given remaining depth; at depth 0 the node
   is forced to be an access. *)
let rec gen_node rng p objs sample_op depth =
  if depth <= 0 then
    let x = pick_object rng p objs in
    Program.access x (sample_op rng x)
  else begin
    let n_children = 1 + Rng.int rng p.fanout in
    let comb =
      if Rng.float rng 1.0 < p.par_ratio then Program.Par else Program.Seq
    in
    let children =
      List.init n_children (fun _ ->
          (* Children are one level shallower, and may bottom out early. *)
          let d = if Rng.bool rng then depth - 1 else 0 in
          gen_node rng p objs sample_op d)
    in
    Program.Node (comb, children)
  end

let gen_forest rng p objs sample_op =
  List.init p.n_top (fun _ -> gen_node rng p objs sample_op p.depth)

let object_names prefix n = List.init n (fun i -> Obj_id.indexed prefix i)

let registers rng p =
  let objs = object_names "x" p.n_objects in
  let dt = Register.make () in
  let sample_op rng _ =
    if Rng.float rng 1.0 < p.read_ratio then Datatype.Read
    else Datatype.Write (Value.Int (Rng.int rng 16))
  in
  (gen_forest rng p objs sample_op, List.map (fun x -> (x, dt)) objs)

let counters rng p =
  let objs = object_names "c" p.n_objects in
  let dt = Counter.make () in
  let sample_op rng _ =
    if Rng.float rng 1.0 < p.read_ratio then Datatype.Get
    else if Rng.int rng 4 = 0 then Datatype.Decr (1 + Rng.int rng 3)
    else Datatype.Incr (1 + Rng.int rng 3)
  in
  (gen_forest rng p objs sample_op, List.map (fun x -> (x, dt)) objs)

let mixed rng p =
  let dts =
    [|
      Register.make ();
      Counter.make ();
      Bank_account.make ~init:10 ();
      Rset.make ();
      Fifo_queue.make ();
      Keyed_store.make ();
    |]
  in
  let objs = object_names "o" p.n_objects in
  let decls =
    List.mapi (fun i x -> (x, dts.(i mod Array.length dts))) objs
  in
  let dtype_of x =
    match List.find_opt (fun (y, _) -> Obj_id.equal x y) decls with
    | Some (_, dt) -> dt
    | None -> assert false
  in
  let sample_op rng x = (dtype_of x).Datatype.sample_ops rng in
  (gen_forest rng p objs sample_op, decls)

type weights = {
  w_observe : int;
  w_update : int;
  w_overwrite : int;
  w_mutate : int;
}

let balanced = { w_observe = 1; w_update = 1; w_overwrite = 1; w_mutate = 1 }
let contended = { w_observe = 1; w_update = 1; w_overwrite = 3; w_mutate = 3 }
let observers = { w_observe = 1; w_update = 0; w_overwrite = 0; w_mutate = 0 }

type op_class = Observe | Update | Overwrite | Mutate

(* Concrete operations of a class supported by a data type; [] when the
   type has no operation of that shape. *)
let ops_of_class rng (dt : Datatype.t) cls =
  let small () = Value.Int (Rng.int rng 4) in
  match (dt.Datatype.dt_name, cls) with
  | "register", Observe -> [ Datatype.Read ]
  | "register", Overwrite -> [ Datatype.Write (Value.Int (Rng.int rng 16)) ]
  | "counter", Observe -> [ Datatype.Get ]
  | "counter", Update ->
      [ Datatype.Incr (1 + Rng.int rng 3); Datatype.Decr (1 + Rng.int rng 3) ]
  | "account", Observe -> [ Datatype.Balance ]
  | "account", Update -> [ Datatype.Deposit (1 + Rng.int rng 4) ]
  | "account", Mutate -> [ Datatype.Withdraw (1 + Rng.int rng 6) ]
  | "set", Observe -> [ Datatype.Member (small ()); Datatype.Size ]
  | "set", Update -> [ Datatype.Insert (small ()); Datatype.Remove (small ()) ]
  | "queue", Mutate -> [ Datatype.Enqueue (small ()); Datatype.Dequeue ]
  | "keyed_store", Observe -> [ Datatype.Kread (small ()) ]
  | "keyed_store", Overwrite ->
      [ Datatype.Kwrite (small (), Value.Int (Rng.int rng 16)) ]
  | _ -> []

let pick_class rng w =
  let total = w.w_observe + w.w_update + w.w_overwrite + w.w_mutate in
  if total <= 0 then invalid_arg "Gen.weighted: weights sum to zero";
  let r = Rng.int rng total in
  if r < w.w_observe then Observe
  else if r < w.w_observe + w.w_update then Update
  else if r < w.w_observe + w.w_update + w.w_overwrite then Overwrite
  else Mutate

(* Nearest supported class when the drawn one is missing on this type.
   Fallbacks stay within the drawn class's family first (a mutating
   draw tries the other mutating classes before degrading to an
   observer), so weight skews survive across heterogeneous schemas. *)
let fallback_order = function
  | Observe -> [ Observe; Update; Overwrite; Mutate ]
  | Update -> [ Update; Overwrite; Mutate; Observe ]
  | Overwrite -> [ Overwrite; Mutate; Update; Observe ]
  | Mutate -> [ Mutate; Overwrite; Update; Observe ]

let sample_weighted rng w (dt : Datatype.t) =
  let rec scan = function
    | [] -> dt.Datatype.sample_ops rng
    | cls :: rest -> (
        match ops_of_class rng dt cls with
        | [] -> scan rest
        | ops -> List.nth ops (Rng.int rng (List.length ops)))
  in
  scan (fallback_order (pick_class rng w))

let weighted ?(weights = balanced) rng p =
  let dts =
    [|
      Register.make ();
      Counter.make ();
      Bank_account.make ~init:10 ();
      Rset.make ();
      Fifo_queue.make ();
      Keyed_store.make ();
    |]
  in
  let objs = object_names "w" p.n_objects in
  let decls =
    List.mapi (fun i x -> (x, dts.(i mod Array.length dts))) objs
  in
  let dtype_of x =
    match List.find_opt (fun (y, _) -> Obj_id.equal x y) decls with
    | Some (_, dt) -> dt
    | None -> assert false
  in
  let sample_op rng x = sample_weighted rng weights (dtype_of x) in
  (gen_forest rng p objs sample_op, decls)

(* ----- SmallBank-style contended transactions -----

   Multi-object read-modify-write programs over register "accounts"
   with Zipf-skewed account popularity — the contention shape that
   makes weak-isolation anomalies (write skew, lost update) likely.
   Five transaction kinds after the SmallBank benchmark, drawn from an
   integer-weighted mix. *)

type smallbank_kind = Balance | Deposit | Write_check | Amalgamate | Payment

type smallbank_mix = {
  m_balance : int;
  m_deposit : int;
  m_write_check : int;
  m_amalgamate : int;
  m_payment : int;
}

let smallbank_default =
  { m_balance = 2; m_deposit = 4; m_write_check = 3; m_amalgamate = 1;
    m_payment = 2 }

let smallbank_profile =
  {
    n_top = 8;
    depth = 2;
    fanout = 3;
    n_objects = 4;
    theta = 0.9;
    par_ratio = 0.5;
    read_ratio = 0.5;
  }

let sample_kind rng m =
  let total =
    m.m_balance + m.m_deposit + m.m_write_check + m.m_amalgamate + m.m_payment
  in
  if total <= 0 then invalid_arg "Gen.smallbank: mix weights sum to zero";
  let r = Rng.int rng total in
  if r < m.m_balance then Balance
  else if r < m.m_balance + m.m_deposit then Deposit
  else if r < m.m_balance + m.m_deposit + m.m_write_check then Write_check
  else if r < m.m_balance + m.m_deposit + m.m_write_check + m.m_amalgamate
  then Amalgamate
  else Payment

let smallbank_txn ?(mix = smallbank_default) ~theta rng accounts =
  let n = Array.length accounts in
  let acct () = Rng.zipf rng ~n ~theta in
  (* Two distinct Zipf-popular accounts — a "customer"'s checking and
     savings, or the two parties of a payment. *)
  let pair () =
    let a = acct () in
    let b0 = acct () in
    (a, if b0 = a then (a + 1) mod n else b0)
  in
  let read i = Program.access accounts.(i) Datatype.Read in
  let write i =
    Program.access accounts.(i) (Datatype.Write (Value.Int (Rng.int rng 16)))
  in
  match sample_kind rng mix with
  | Balance ->
      let a, b = pair () in
      Program.par [ read a; read b ]
  | Deposit ->
      let a = acct () in
      Program.seq [ read a; write a ]
  | Write_check ->
      let a, b = pair () in
      Program.seq [ Program.par [ read a; read b ]; write a ]
  | Amalgamate ->
      let a, b = pair () in
      Program.seq [ Program.par [ read a; read b ]; write a; write b ]
  | Payment ->
      let a, b = pair () in
      Program.seq [ read a; write a; read b; write b ]

let smallbank ?mix rng p =
  let objs = object_names "acct" (max 2 p.n_objects) in
  let accounts = Array.of_list objs in
  let dt = Register.make () in
  ( List.init p.n_top (fun _ -> smallbank_txn ?mix ~theta:p.theta rng accounts),
    List.map (fun x -> (x, dt)) objs )

let forest_and_schema gen ~seed p =
  let rng = Rng.create seed in
  let forest, objects = gen rng p in
  (forest, Program.schema_of ~objects forest)
