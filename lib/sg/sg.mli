(** The serialization graph [SG(beta)] (Section 4).

    [SG(beta)] is the union of disjoint graphs [SG(beta, T)], one per
    transaction [T] visible to [T0] in [beta]: nodes are children of
    [T], and there is an edge [T' -> T''] iff
    [(T', T'') ∈ precedes(beta) ∪ conflict(beta)].

    Only finitely many children ever appear in a finite trace; the
    executable graph's nodes are the lowtransactions of the events of
    [visible(beta, T0)] together with all edge endpoints — exactly the
    nodes a topological sort must order for the witness sibling order
    of Theorem 8 to be suitable. *)

open Nt_base
open Nt_spec

type conflict_mode = Conflict.mode = Access_level | Operation_level

val build : conflict_mode -> Schema.t -> Trace.t -> unit Graph.t
(** The serialization graph of [serial(beta)] (pass a trace of serial
    actions; {!Checker} strips inform actions for you). *)

val witness_order : _ Graph.t -> Sibling_order.t option
(** A sibling order obtained by topologically sorting each per-parent
    component; [None] iff the graph is cyclic.  This is the order
    [R] used in the proof of Theorem 8. *)
