(** The telemetry recorder.

    One value of this type is threaded (as an optional [?obs]
    argument) through the execution stack — {!Nt_iosim.Executor},
    {!Nt_generic.Runtime}, {!Nt_sg.Monitor}.  It owns a logical clock
    (one tick per action), derives the transaction-span model from the
    action stream ({!on_action}), forwards events to a {!Sink.t}, and
    aggregates a {!Metrics.t} registry.

    {!null} is the disabled recorder and the default everywhere; hot
    paths guard with {!enabled}, so an un-instrumented run pays one
    branch per action and allocates nothing. *)

open Nt_base

type t

val null : t
(** The disabled recorder (shared; its registry stays empty). *)

val create : ?metrics:Metrics.t -> ?sink:Sink.t -> unit -> t
(** An enabled recorder.  Default sink {!Sink.null} (metrics only,
    no events), default registry fresh. *)

val enabled : t -> bool

val emitting : t -> bool
(** [enabled t] and the sink is not {!Sink.null}.  Hot paths that must
    build an {!Event.t} (or box optional arguments for {!instant})
    check this first so a metrics-only recorder allocates nothing; the
    generic runtime's blocked-access bookkeeping (holder lists and the
    wait-for counters) and the SG monitor's edge-witness assembly are
    maintained exactly when this holds. *)

val metrics : t -> Metrics.t

val now : t -> int
(** The logical clock: ticks advanced so far. *)

val close : t -> unit
(** Close the sink (flushes; completes a Chrome array). *)

val on_action : t -> Action.t -> unit
(** Advance the clock and translate the action into telemetry:
    [Create T] opens [T]'s span, [Commit]/[Abort T] closes it
    (emitting {!Event.End} and feeding the [txn.commit.ticks]
    histogram and the [txn.committed]/[txn.aborted] counters); every
    action bumps the [actions] counter.  No-op on {!null}. *)

val span_begin : t -> int -> Txn_id.t -> unit
(** [span_begin t ts txn]: timestamp-passing variant of the [Create]
    arm of {!on_action}, for hosts that already count executed actions
    and can remember [ts] themselves (the generic runtime keeps it in
    its per-transaction status record).  Sets the clock to [ts] (=
    [now t] at run start plus the host's action count), opens no span
    table entry, and does {e not} bump the [actions] counter — the
    host settles totals once with {!settle}.  With this protocol the
    recorder is untouched by non-lifecycle actions, so an enabled
    recorder costs the runtime a dead branch per action.  No-op on
    {!null}. *)

val span_end : t -> int -> began:int -> Txn_id.t -> Event.outcome -> unit
(** [span_end t ts ~began txn outcome]: close [txn]'s span at tick
    [ts], where [began] is the tick the host recorded at
    {!span_begin} ([ts] itself if the transaction was never created).
    Feeds the [txn.committed]/[txn.aborted] counters and the
    [txn.commit.ticks]/[txn.abort.ticks] histograms and emits
    {!Event.End}.  No-op on {!null}. *)

val settle : t -> clock:int -> actions:int -> unit
(** End-of-run bookkeeping for the timestamp-passing protocol: advance
    the clock to [clock] (if ahead) and add [actions] to the [actions]
    counter.  No-op on {!null}. *)

val instant : ?txn:Txn_id.t -> ?obj:Obj_id.t -> ?ts:int -> t -> string -> unit
(** Emit an instant event, at tick [ts] when given (advancing the
    clock if ahead — used by {!on_action_at} hosts), else at the
    current tick.  No-op on {!null}. *)

val counter_sample : t -> string -> int -> unit
(** Emit a counter-track sample at the current tick (for timeline
    viewers; independent of the metrics registry).  No-op on
    {!null}. *)

val wait :
  ?ts:int ->
  t ->
  txn:Txn_id.t ->
  obj:Obj_id.t ->
  holders:(Txn_id.t * string) list ->
  waited:int ->
  unit
(** Emit an {!Event.Wait}: [txn]'s access to [obj] was refused because
    of [holders] (with their lock kinds), after [waited] ticks blocked
    so far.  Callers must check {!emitting} before building [holders]
    — this helper only exists for the event stream, there is no
    metrics side.  No-op unless emitting. *)

val sg_edge :
  ?obj:Obj_id.t ->
  ?ts:int ->
  t ->
  src:Txn_id.t ->
  dst:Txn_id.t ->
  kind:string ->
  w1:Txn_id.t ->
  w1_ts:int ->
  w2:Txn_id.t ->
  w2_ts:int ->
  unit
(** Emit an {!Event.Edge}: the monitor inserted SG edge [src -> dst]
    of [kind] (["conflict"]/["precedes"]) witnessed by actions
    [w1]/[w2] at feed indices [w1_ts]/[w2_ts].  No-op unless
    emitting. *)
