(** Graphviz rendering of serialization graphs.

    Produces DOT text with one cluster per parent (the disjoint
    [SG(beta, T)] components), conflict/precedes edges, and an
    optional highlighted witness cycle — handy for inspecting why a
    behavior was rejected ([ntsim --dot]). *)

open Nt_base
open Nt_spec

val of_graph :
  ?cycle:Txn_id.t list ->
  ?edge_label:(Txn_id.t -> Txn_id.t -> string option) ->
  _ Graph.t ->
  string
(** Render a graph; nodes on the given cycle (and the edges between
    consecutive cycle nodes) are drawn in red.  [edge_label] may
    attach a label to any edge (escaped for DOT) — {!Monitor.dot}
    prints each edge's witnessing accesses, its {!Graph.label}. *)

val of_trace : ?mode:Sg.conflict_mode -> Schema.t -> Trace.t -> string
(** Build [SG(serial beta)] and render it, highlighting a witness
    cycle if one exists.  Default mode as in {!Checker.check}. *)
