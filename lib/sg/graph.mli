(** Directed graphs over transaction names, with incremental cycle
    detection.

    The serialization graph [SG(beta)] is a union of disjoint directed
    graphs, one per parent; we keep them in a single structure (edges
    only ever connect siblings, so the union stays disjoint by
    construction) and provide cycle detection and topological sorting —
    the two operations Theorem 8 needs.

    Cycle detection is {e incremental} (Pearce–Kelly): the graph
    maintains a topological order of its nodes, updated on each edge
    insertion by a two-way search limited to the affected region
    (nodes ordered between the new edge's endpoints).  An insertion
    [a -> b] with [ord a < ord b] is O(1); one that closes a cycle
    returns the witness path immediately.  Order consistency implies
    acyclicity, so {!is_acyclic} and {!find_cycle} are O(1) whatever
    the insertion history.  Once a cycle-closing edge is accepted no
    topological order exists; further insertions degrade to a plain
    reachability search per edge, preserving exact cycle reporting.

    Every edge carries a label of type ['e], stored with the edge: the
    monitor's witness of why the edge exists, the Spine's witness
    slot, [()] offline.  A duplicate insertion keeps the first
    label; labels never steer a search or an order. *)

open Nt_base

type 'e t

type add_result =
  | Ok of int
      (** The edge kept the graph acyclic; the payload is the number of
          nodes renumbered to restore the maintained order (0 for the
          O(1) fast path and for duplicate edges). *)
  | Cycle of Txn_id.t list
      (** The edge [a -> b] closed this cycle: the path [b ... a], so
          consecutive elements (wrapping) are edges.  The edge is
          still added — the graph records cyclic history faithfully. *)

val create : unit -> 'e t

val add_node : 'e t -> Txn_id.t -> unit
(** Idempotent.  New nodes enter at the end of the maintained order. *)

val add_edge_checked : 'e t -> Txn_id.t -> Txn_id.t -> 'e -> add_result
(** [add_edge_checked g a b l] inserts [a -> b] labelled [l] and reports
    whether it closed a cycle.  Adds both endpoints as nodes; a duplicate
    edge is ignored ([Ok 0]) and keeps its first label. *)

val add_edge : 'e t -> Txn_id.t -> Txn_id.t -> 'e -> unit
(** [ignore (add_edge_checked g a b l)]. *)

val label : 'e t -> Txn_id.t -> Txn_id.t -> 'e option
(** The first label of edge [a -> b]; [None] if there is no such edge. *)

val would_close_cycle :
  'e t -> (Txn_id.t * Txn_id.t) list -> Txn_id.t list option
(** [would_close_cycle g extra] is [Some] iff the union of [g] and
    [extra] has a cycle — always, once [g] itself is cyclic.  {e
    Read-only}: nothing is interned or recorded, so a positive answer
    lets admission control veto the insertion with the graph
    untouched.  Endpoints unknown to [g], duplicate edges, self-loops
    and edges already present are all fine.

    The test reads the maintained order: unknown endpoints are placed
    after every node, and while [g] is acyclic a cycle needs an extra
    edge that is not forward in that order.  With none (the common
    case) the answer is [None] without a search; otherwise the search
    runs from each such edge's head, confined to the order window those
    edges span.  Once [g] is cyclic the searches are unbounded.

    The witness follows the {!add_result} convention: for a closing
    extra edge [a -> b], the path [b ... a] (consecutive elements,
    wrapping, are edges of the joint graph).  When [g] is cyclic and no
    extra edge closes a cycle, the witness is {!find_cycle}'s. *)

val mem_edge : 'e t -> Txn_id.t -> Txn_id.t -> bool
val nodes : 'e t -> Txn_id.t list
val edges : 'e t -> (Txn_id.t * Txn_id.t) list

val n_nodes : 'e t -> int
(** O(1) (cached). *)

val n_edges : 'e t -> int
(** O(1) (cached; duplicates were never counted). *)

val iter_edges : 'e t -> (Txn_id.t -> Txn_id.t -> unit) -> unit
(** Iterate edges allocation-free (order unspecified). *)

val fold_nodes : 'e t -> ('a -> Txn_id.t -> 'a) -> 'a -> 'a
val fold_edges : 'e t -> ('a -> Txn_id.t -> Txn_id.t -> 'a) -> 'a -> 'a

val find_cycle : 'e t -> Txn_id.t list option
(** Some cycle (as a node list, first repeated node omitted) if one
    exists; [None] iff the graph is acyclic.  O(1): the witness of the
    first cycle-closing insertion is cached. *)

val find_cycle_scratch : 'e t -> Txn_id.t list option
(** The pre-incremental reference: a full three-color DFS over the
    current graph.  Kept for differential testing of the incremental
    detector (and for callers that want a cycle through the {e current}
    search order rather than the first historical witness). *)

val is_acyclic : 'e t -> bool
(** O(1). *)

val order : 'e t -> Txn_id.t list option
(** The maintained topological order (all nodes, every edge forward),
    or [None] once the graph is cyclic.  Reflects insertion history;
    for a canonical insertion-independent order use
    {!topological_sort}. *)

val reorders : 'e t -> int
(** Cumulative number of node renumberings performed by incremental
    insertions — the work the limited two-way search actually did
    (0 for an insertion-order that never violated the maintained
    order). *)

val topological_sort : 'e t -> Txn_id.t list option
(** A total order of all nodes consistent with every edge, or [None]
    if cyclic.  Ties are broken deterministically by {!Txn_id.compare}
    so results are reproducible. *)
