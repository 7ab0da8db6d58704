open Nt_base

type t = {
  sys : System_type.t;
  objects : Obj_id.t list;
  dtype_of : Obj_id.t -> Datatype.t;
  op_of : Txn_id.t -> Datatype.op;
}

let operations t trace x =
  List.map (fun (txn, v) -> (t.op_of txn, v)) (Trace.operations t.sys trace x)

let all_read_write t =
  List.for_all (fun x -> (t.dtype_of x).Datatype.dt_name = "register") t.objects

let accesses_conflict t a b =
  match (System_type.object_of t.sys a, System_type.object_of t.sys b) with
  | Some x, Some y when Obj_id.equal x y -> (
      (* Section 4's relation for read/write objects is by kind alone:
         conflict unless both are reads (even two writes of the same
         datum).  Other types use the Section 6 lift: some return
         values make the operations conflict. *)
      match (t.op_of a, t.op_of b) with
      | Datatype.Read, Datatype.Read -> false
      | (Datatype.Read | Datatype.Write _), (Datatype.Read | Datatype.Write _)
        ->
          true
      | opa, opb -> Datatype.accesses_conflict (t.dtype_of x) opa opb)
  | _ -> false

let operations_conflict t (a, va) (b, vb) =
  match (System_type.object_of t.sys a, System_type.object_of t.sys b) with
  | Some x, Some y when Obj_id.equal x y ->
      Datatype.conflicts (t.dtype_of x) (t.op_of a, va) (t.op_of b, vb)
  | _ -> false
