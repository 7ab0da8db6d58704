(** Splitting a cross-shard program into per-shard pieces.

    The projection keeps the [Seq]/[Par] skeleton of the original tree
    and drops subtrees with no access on the target shard; nothing is
    collapsed, so the piece's internal structure — and therefore the
    serialization-graph shape {e below} the piece root — is exactly the
    original program's, restricted to that shard's objects.

    The merged system replaces the original program with
    [Node (Par, pieces)]: ordering constraints {e within} a piece are
    preserved, but a [Seq] edge that crossed a shard boundary degrades
    to concurrent execution.  This is the documented semantic
    relaxation of cross-shard dispatch (see [doc/sharding.mld]); the
    merged history is judged against the par-of-pieces forest, so the
    offline oracles hold the run to exactly the semantics the client
    was given. *)

open Nt_serial

val pieces : Partition.t -> Program.t -> (int * Program.t) list
(** The program restricted to each shard's objects, for every shard
    some leaf lands on, in ascending shard order. *)

val merged : Program.t list -> Program.t
(** [Node (Par, pieces)] — the program the merged history is judged
    against. *)
