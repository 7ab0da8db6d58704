(** Schemas: a system type plus the data of every object and access.

    The paper's system type fixes which leaves are accesses and to which
    object; for an executable system we additionally need, per object,
    its serial specification (a {!Datatype.t}), and per access name, the
    operation it performs ("all parameters of an access are regarded as
    encoded in its name", Section 3.1).  A schema packages the three. *)

open Nt_base

type t = {
  sys : System_type.t;
  objects : Obj_id.t list;  (** The finite set of objects in play. *)
  dtype_of : Obj_id.t -> Datatype.t;
  op_of : Txn_id.t -> Datatype.op;
      (** Defined on access names; the operation the access performs. *)
}

val operations : t -> Trace.t -> Obj_id.t -> Serial_spec.operation list
(** The operation sequence of [X] occurring in a trace, as
    [(op, v)] pairs ready for replay. *)

val all_read_write : t -> bool
(** All objects are registers — the assumption of Sections 3–5. *)

val accesses_conflict : t -> Txn_id.t -> Txn_id.t -> bool
(** Access-level conflict: both names access the same object and their
    accesses conflict — for register operations this is Section 4's
    table (conflict unless both are reads, including two writes of the
    same datum); for other types, the Section 6 lift (their operations
    conflict for some realizable return values). *)

val operations_conflict :
  t -> Txn_id.t * Value.t -> Txn_id.t * Value.t -> bool
(** Operation-level conflict (Section 6): same object and the two
    [(op, v)] pairs fail to commute backwards.  For registers this
    matches the Section 4 table on all realizable return values. *)
