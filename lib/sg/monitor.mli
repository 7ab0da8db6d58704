(** An online serialization-graph monitor.

    The offline {!Checker} re-derives everything from the whole trace;
    this monitor consumes a behavior one action at a time and maintains
    {e incrementally}:

    - visibility to [T0] (per-transaction counters of uncommitted
      ancestors, decremented as commits arrive);
    - the visible operation sequence of each object, replayed against
      its serial specification as operations {e become} visible —
      raising {!constructor:Inappropriate} the moment a return value
      is shown impossible;
    - the serialization graph ([conflict ∪ precedes] over visible
      activity), with {e incremental} cycle detection on every edge
      insertion — raising {!constructor:Cycle} with the witness.
      Precedes is an interval order (a sibling precedes every request
      made after its report), so a request draws precedes edges only
      from its parent's {e frontier}, the maximal reported siblings
      ({!frontier_width}): the graph is a subset of [SG(β)] with the
      same reachability at every prefix, hence the same cycles.  The
      graph maintains a topological order (Pearce–Kelly; see
      {!Graph.add_edge_checked}), so an insertion that respects the
      order is O(1) and the rest search only the affected region:
      monitoring a trace costs near-linearly in its length instead of
      a full graph traversal per edge.

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
  edges : int;  (** SG edges inserted (deduplicated). *)
  cycle_alarms : int;
  inappropriate_alarms : int;
}
(** Cumulative health counters, so a caller can report on the monitor
    without retaining every {!feed} result. *)

val create : ?mode:Sg.conflict_mode -> Schema.t -> t
(** A fresh monitor (conflict mode defaulting to [Operation_level],
    as in {!Checker}). *)

val feed : ?obs:Obs.t -> t -> Action.t -> alarm list
(** Consume one action; returns the alarms it triggers (usually
    none).  The monitor is mutable.  When [obs] is given, alarms
    become instant events, edge insertions feed the [monitor.*]
    metrics and a [sg.edges] counter track. *)

val feed_trace : ?obs:Obs.t -> t -> Trace.t -> (int * alarm) list
(** Feed a whole trace; returns all alarms with the index of the
    triggering event. *)

val counters : t -> counters

val graph : t -> Graph.t
(** The current serialization graph (shared, do not mutate). *)

val alarmed : t -> bool
(** Whether any alarm has fired so far. *)

val witness_order : t -> Sibling_order.t option
(** The witness sibling order of Theorem 8, read directly off the
    topological order the incremental detector maintains (no final
    sort): the per-parent chains of {!Graph.order}.  Because SG edges
    only relate siblings, those chains respect every conflict and
    precedes edge, which is exactly what Theorem 8's proof requires
    of the order [R].  [None] once a cycle has been detected. *)

val frontier_width : t -> Txn_id.t -> int
(** How many reported children of a parent precedes edges are still
    drawn from: the maximal ones, each reported after the latest
    request among the others was made.  They were all open at one
    moment, so the width never exceeds the most children ever open at
    once.  0 once the parent commits or aborts. *)

val open_requests : t -> int
(** Requests not yet reported (under a parent that is not Dead): the
    size of the index the frontier reads request times from. *)

val visible_operations : t -> Obj_id.t -> (Txn_id.t * Value.t) list
(** The currently-visible operation sequence of an object, in response
    order — the sequence the monitor replays. *)

(** {2 Attribution}

    Every inserted edge remembers which pair of actions created it, so
    a {!constructor:Cycle} alarm can be explained access by access
    instead of as a bare list of transaction names.  Feed indices
    (1-based positions in the fed action sequence) serve as the
    logical timestamps. *)

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

val edge_provenance : t -> Txn_id.t -> Txn_id.t -> provenance option
(** The first witness recorded for edge [a -> b] ([None] if the edge
    was never inserted). *)

val first_cycle : t -> Txn_id.t list option
(** The witness of the first {!constructor:Cycle} alarm, retained for
    rendering ({!dot}). *)

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
    the recorded witnesses.  For a cycle this monitor reported, every
    edge has [Some]; for a {!commit_would_cycle} verdict, pass its
    prospective set as [extra], since its closing edges were never
    inserted. *)

val explain_cycle : ?extra:prospective -> t -> Txn_id.t list -> string
(** A human-readable witness chain of {!cycle_witness}, one line per
    edge: ["T0.1 -> T0.2 [conflict at X: T0.1.0.1@12 vs T0.2.3@17]"]. *)

val pp_provenance : Format.formatter -> provenance -> unit

(** {2 Admission speculation}

    For serving-time admission control (see [Nt_net.Admission]): decide
    {e before} performing a commit whether feeding it would close an SG
    cycle, without mutating the monitor.  The key structural fact (see
    DESIGN.md) is that in this construction only [Commit] actions can
    close a cycle — an access response of an uncommitted transaction is
    always deferred as a visibility item, and a [Request_create]
    precedes-edge targets a brand-new node with no outgoing edges — so
    vetoing exactly the cycle-closing commits keeps the graph acyclic
    with zero false negatives.

    The speculation runs {!feed}'s own conflict-edge and wakeup code,
    collecting the edges instead of inserting them, so the prospective
    set is exactly what the feed would witness. *)

val prospective_commit_edges : t -> Txn_id.t -> prospective
(** The edges the visibility wakeups of [feed t (Commit w)] witness,
    with the provenance each would be recorded under, computed without
    mutating the monitor.  Edges the graph already holds are included
    (the feed would insert only the others): this is the dependency
    set a sharded admission controller ships to the cross-shard gate
    (see [Nt_shard.Spine]), and a locally held edge may be one the
    spine has not seen. *)

val edges_would_cycle :
  t -> prospective -> (Txn_id.t list * prospective) option
(** Would inserting these edges close an SG cycle?  Read-only: one
    {!Graph.would_close_cycle} over the current graph plus the edges,
    which reads the maintained order and searches only when an edge is
    not forward in it (edges the graph holds always are).  [Some
    (cycle, fresh)] gives the witness cycle (same convention as
    {!constructor:Cycle}) and the edges not yet in the graph, for
    {!explain_cycle}'s [extra]. *)

val commit_would_cycle :
  t -> Txn_id.t -> (Txn_id.t list * prospective) option
(** [commit_would_cycle t w] — would [feed t (Commit w)] close an SG
    cycle?  [edges_would_cycle t (prospective_commit_edges t w)]. *)

val dot : t -> string
(** The current graph rendered via {!Dot.of_graph}, each edge labelled
    with its witnessing actions and the first cycle (if any)
    highlighted. *)
