(** Transaction programs.

    The paper treats transaction automata as black boxes constrained
    only by well-formedness.  To execute systems we need concrete
    members of that class: a program is a tree whose leaves are accesses
    and whose internal nodes create their children either sequentially
    (each child requested only after the previous one reported — which
    makes the [precedes] relation bite) or concurrently (all requested
    at once; only the generic system exploits the concurrency).

    A forest of top-level programs fully determines a system type: the
    [i]-th top-level program is child [i] of [T0], and the [j]-th
    sub-program of a node is its [j]-th child, so every reachable name
    classifies by walking the forest.  {!schema_of} packages this with
    the object declarations into a {!Nt_spec.Schema.t}. *)

open Nt_base
open Nt_spec

type comb =
  | Seq  (** Children one at a time, in order, awaiting each report. *)
  | Par  (** All children requested immediately after creation. *)

type t =
  | Access of Obj_id.t * Datatype.op  (** A leaf access. *)
  | Node of comb * t list  (** A non-access transaction. *)

val seq : t list -> t
val par : t list -> t
val access : Obj_id.t -> Datatype.op -> t

val subprogram : t list -> Txn_id.t -> t option
(** [subprogram forest t] walks the forest by [t]'s path; [None] when
    the name is outside the forest (or is the root). *)

val schema_of : objects:(Obj_id.t * Datatype.t) list -> t list -> Schema.t
(** The schema induced by a top-level forest: names inside the forest
    classify by their program node; everything else is a non-access.
    Raises [Invalid_argument] if a program accesses an undeclared
    object. *)

val schema_of_tops :
  objects:(Obj_id.t * Datatype.t) list -> (int -> t option) -> Schema.t
(** The same rule over a forest given by its top-level lookup: [tops i]
    is the [i]-th top-level program, [None] past the last one.  Names
    classify by the node they denote at lookup time, so a forest that
    grows behind [tops] (an open-loop engine's submissions) is
    classified as {!schema_of} would classify its current contents.
    Nothing is validated up front: [dtype_of] raises
    [Invalid_argument] on an undeclared object, [op_of] on a name that
    is not an access. *)

val size : t -> int
(** Total number of transaction names in the program (including
    itself). *)

val accesses : t -> (Obj_id.t * Datatype.op) list
(** All leaf accesses, left to right. *)

val objects : t -> Obj_id.t list
(** The program's static footprint: the distinct objects of its leaves,
    in first-access order.  A program names its accesses syntactically
    (no data-dependent object choice), so every object a run of it
    touches is in this list.  The runtime informs exactly these objects
    of the program's completion, and the shard router classifies a
    submission by them. *)

val pp : Format.formatter -> t -> unit
