(** Shard classification of programs by their static footprint.

    The router classifies every submitted program by the set of objects
    its AST can touch, {!Nt_serial.Program.objects}: the same footprint
    the runtime informs of a completion.  It is exact, because a program
    names its accesses syntactically (the property test in
    [test_shard.ml] pins this over every grammar, nested-abort shapes
    included). *)

open Nt_serial

type classification =
  | Local of int  (** Every access lands on this one shard. *)
  | Cross of int list
      (** Touches several shards (sorted, distinct, length >= 2) — or,
          conservatively, a program with no accesses at all routes as
          [Local 0]. *)

val classify : Partition.t -> Program.t -> classification
