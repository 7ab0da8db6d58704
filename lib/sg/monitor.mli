(** An online serialization-graph monitor.

    The offline {!Checker} re-derives everything from the whole trace;
    this monitor consumes a behavior one action at a time and maintains
    {e incrementally}:

    - visibility to [T0]: a transaction's activity becomes visible
      exactly when its top-level ancestor commits, unless it or an
      ancestor aborted first, so work waits under its top alone and
      an inner commit wakes nothing.  This holds because the input is
      a generic behavior, whose transactions are well-formed: a
      transaction requests commit only after every child it requested
      has reported, so commits run bottom-up.  On an ill-formed trace
      the monitor stays total, but its verdict is unspecified;
    - one record per access response, made at its [Request_commit]:
      the access, its operation (resolved from the name once, by the
      schema's [op_of]), the returned value and the feed index, which
      orders an object's responses.  The conflict scan and the replay
      read records, never the schema: two records on [X] conflict when
      [X]'s data type says their [(op, v)] pairs do
      ({!Datatype.conflicts});
    - the visible operation sequence of each object, replayed against
      its serial specification as operations {e become} visible —
      raising {!constructor:Inappropriate} the moment a return value
      is shown impossible.  The sequence's prefix up to the first
      record not yet visible (nor Dead) is kept folded into a state,
      so a replay costs the records after it, with the verdict of a
      replay from the initial state;
    - the serialization graph ([conflict ∪ precedes] over visible
      activity), with {e incremental} cycle detection on every edge
      insertion — raising {!constructor:Cycle} with the witness.
      Precedes edges come from one {!Rail} per parent, drawn from its
      frontier only: the graph is a subset of [SG(β)] with the same
      reachability at every prefix, hence the same cycles.  The graph
      maintains a topological order (Pearce–Kelly; see
      {!Graph.add_edge_checked}), so an insertion that respects the
      order is O(1) and the rest search only the affected region;
    - only what can still close a cycle.  At each top-level report
      [T0]'s rail retires settled tops ({!Rail.retire}), and the
      monitor drops their records and the nodes their commits added
      below them.  The graph stays the whole-history one's subgraph
      induced on the nodes left, with the same order on them, so every
      alarm, witness and gate verdict is the whole history's.  A caller
      may also {e hold} a top (see {!create}), which only delays its
      retirement.  The conflict scan and the graph thus cost what is
      open, recent or held, not the whole run.

    Because every prefix of a generic behavior is itself a behavior,
    a protocol that is serially correct for all behaviors never trips
    the monitor (asserted by the tests over Moss, undo-logging and
    commutativity-locking executions); broken protocols trip it at the
    earliest prefix that betrays them, which is what makes it usable
    as a runtime bug detector (Experiment E5 measures the overhead). *)

open Nt_base
open Nt_spec
open Nt_obs

type t

type alarm =
  | Cycle of Txn_id.t list
      (** Inserting the latest edge closed this cycle in [SG]. *)
  | Inappropriate of Obj_id.t
      (** The object's visible operations no longer replay. *)

type counters = {
  feeds : int;  (** Actions consumed. *)
  operations : int;  (** Access responses recorded. *)
  edges : int;
      (** SG edges inserted over the run (deduplicated), retired ones
          included; [Graph.n_edges (graph t)] is the live count. *)
  cycle_alarms : int;
  inappropriate_alarms : int;
}
(** Cumulative health counters, so a caller can report on the monitor
    without retaining every {!feed} result. *)

val create : ?hold:(Txn_id.t -> bool) -> Schema.t -> t
(** A fresh monitor, with operation-level conflicts as in {!Checker}.
    [hold] (default: holds no top) names the tops that may not settle
    yet ({!Rail.retire}).  Retirement is a function of the fed actions
    and the hold's answers, so two monitors fed one trace with one hold
    agree.  A sharded engine holds a top until the cross-shard gate has
    settled it too (see [Nt_shard.Spine.settled]); readers of the whole
    [SG(β)] (a witness order over it, a rendering of it) pass
    [fun _ -> true], which retires nothing. *)

val feed : ?obs:Obs.t -> t -> Action.t -> alarm list
(** Consume one action; returns the alarms it triggers (usually
    none).  The monitor is mutable.  When [obs] is given, alarms
    become instant events, edge insertions feed the [monitor.*]
    metrics and a [sg.edges] counter track. *)

val feed_trace : ?obs:Obs.t -> t -> Trace.t -> (int * alarm) list
(** Feed a whole trace; returns all alarms with the index of the
    triggering event. *)

val counters : t -> counters

val alarmed : t -> bool
(** Whether any alarm has fired so far. *)

val census : t -> (string * int) list
(** The element count of every table and list the monitor keeps, by
    name: the records ([ops], and [tail] behind the replay's folded
    prefix), [graph.nodes] and [graph.edges], [aborted], the
    visibility queues ([waiters], [items]), the {!Rail.census} of every
    rail summed ([frontier], [requested], [reported], [settled]) and
    retirement's own [inner] and [footprint] per top.  All but
    [aborted] are bounded by what is open, recent or held; [aborted]
    keeps every aborted transaction. *)

val visible_operations : t -> Obj_id.t -> (Txn_id.t * Value.t) list
(** The currently-visible operation sequence of an object, in response
    order — the sequence the monitor replays.  The records of retired
    tops are gone, and it lists the others. *)

(** {2 Attribution}

    Every inserted edge carries, as its one label in the graph, the
    pair of actions that created it, so a {!constructor:Cycle} alarm
    can be explained access by access instead of as a bare list of
    transaction names; [Graph.label (graph t) a b] reads it.  Feed
    indices (1-based positions in the fed action sequence) serve as
    the logical timestamps. *)

type edge_kind = Conflict | Precedes

type endpoint = {
  who : Txn_id.t;
      (** The witnessing action's transaction: the access for conflict
          edges; the reported sibling / requested transaction for
          precedes edges. *)
  at : int;  (** Feed index of the witnessing action. *)
  where : Obj_id.t option;  (** The object, for conflict witnesses. *)
}

type provenance = { kind : edge_kind; before : endpoint; after : endpoint }
(** Why edge [a -> b] exists: [before] happened, then [after], and the
    pair forced the edge — the two conflicting accesses (in response
    order), or the sibling's report before the new sibling's request. *)

val graph : t -> provenance Graph.t
(** The current serialization graph, each edge labelled with its first
    witness (shared, do not mutate): the nodes not retired.  While no
    cycle has been detected, [Sg.witness_order (graph t)] of a monitor
    that holds every top gives a witness sibling order of Theorem 8. *)

type prospective = (Txn_id.t * Txn_id.t * provenance) list
(** Edges a speculated action would insert, with the provenance each
    would be recorded under. *)

val cycle_witness :
  ?extra:prospective ->
  t ->
  Txn_id.t list ->
  (Txn_id.t * Txn_id.t * provenance option) list
(** The consecutive (wrapping) edges of a cycle with their provenance,
    resolved against [extra] (default none) first and then against
    the graph's labels.  For a cycle this monitor reported, every
    edge has [Some]; for an {!edges_would_cycle} verdict, pass its
    fresh edges as [extra], since its closing edges were never
    inserted. *)

val explain_cycle : ?extra:prospective -> t -> Txn_id.t list -> string
(** A human-readable witness chain of {!cycle_witness}, one line per
    edge: ["T0.1 -> T0.2 [conflict at X: T0.1.0.1@12 vs T0.2.3@17]"]. *)

val pp_provenance : Format.formatter -> provenance -> unit

(** {2 Admission speculation}

    For serving-time admission control (see [Nt_net.Admission]): decide
    {e before} performing a top-level commit whether feeding it would
    close an SG cycle.  Only a top-level [Commit] can (DESIGN.md §4),
    so vetoing exactly the cycle-closing ones keeps the graph acyclic
    with zero false negatives.

    A top's commit is one walk over the work registered under it: the
    nodes it adds, the operations it makes visible and the edges they
    witness, in order.  {!prospective_commit_edges} returns the walk's
    edges and keeps the walk; the [Commit] fed next applies it instead
    of walking again.  Any other action fed in between discards it. *)

val prospective_commit_edges : t -> Txn_id.t -> prospective
(** The edges [feed t (Commit w)] witnesses, with the provenance each
    would be recorded under, first witness kept.  Nothing the monitor
    reports changes; it keeps the walk for the [Commit w] that
    follows.  Edges the graph already holds are included (the feed
    would insert only the others): this is the dependency set a
    sharded admission controller ships to the cross-shard gate (see
    [Nt_shard.Spine]), and a locally held edge may be one the spine has
    not seen. *)

val edges_would_cycle :
  t -> prospective -> (Txn_id.t list * prospective) option
(** Would inserting these edges close an SG cycle?  Read-only: one
    {!Graph.would_close_cycle} over the current graph plus the edges,
    which reads the maintained order and searches only when an edge is
    not forward in it (edges the graph holds always are).  [Some
    (cycle, fresh)] gives the witness cycle (same convention as
    {!constructor:Cycle}) and the edges not yet in the graph, for
    {!explain_cycle}'s [extra]. *)

val dot : t -> string
(** The current graph rendered via {!Dot.of_graph}, each edge labelled
    with its witnessing actions and the first cycle (if any, as
    {!Graph.find_cycle} keeps it) highlighted. *)
