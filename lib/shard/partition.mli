(** Static partitioning of the object space across shards.

    Placement is a pure function of the object's {e group key}, so every
    participant (router, shard engines, the deterministic harness, the
    live service) computes the same shard for the same object with no
    shared state.  The default key strips a trailing ["#i"] replica
    suffix ({!Nt_replication.Replication} names physical replicas
    ["x#0"], ["x#1"], …), so all replicas of one logical object — and
    therefore every quorum subtree — land on one shard. *)

open Nt_base
open Nt_spec

type t

val default_key : Obj_id.t -> string
(** The object's name up to (excluding) the last ['#'], or the whole
    name when there is none. *)

val create : shards:int -> (Obj_id.t * Datatype.t) list -> t
(** Partition the declared object table into [shards] classes by
    hashing {!default_key}.  Raises [Invalid_argument] when
    [shards < 1]. *)

val shards : t -> int

val shard_of : t -> Obj_id.t -> int
(** Placement of any object (declared or not — the hash is total), in
    [0 .. shards-1]. *)

val objects_of : t -> int -> (Obj_id.t * Datatype.t) list
(** The declared objects of one shard, in declaration order. *)

val objects : t -> (Obj_id.t * Datatype.t) list
(** The full declared table, in declaration order. *)
