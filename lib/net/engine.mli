(** The open-loop serving engine.

    Wraps the {!Nt_generic.Runtime} stepper for a server: top-level
    programs {!submit}ted while the automaton runs are validated
    against the object table, attached as new children of [T0] and
    stepped under the usual policies; an {!Admission} controller is
    fed every action and (by default) vetoes commits that would close
    a serialization-graph cycle.

    The engine owns a {e growable} top-level forest, so its schema is
    {!Nt_serial.Program.schema_of_tops} over the submission vector —
    names classify by the program node they denote at lookup time,
    by the same rule {!Nt_serial.Program.schema_of} applies to a fixed
    forest.  The
    engine applies no replication transform: callers serving
    replicated objects submit physically transformed programs (see
    [Nt_check.Check.record]). *)

open Nt_base
open Nt_spec
open Nt_serial
open Nt_generic
open Nt_obs

type t

type stage_times = {
  st_submit : float;  (** {!create}'s [clock] at {!submit}. *)
  mutable st_start : float;
      (** When the scheduler's [CREATE] fired (= [st_submit] until
          then): execution begins here, submit-to-start is queueing. *)
  mutable st_gate : float;
      (** Seconds spent inside the admission commit gate at this
          request's top-level commit. *)
  mutable st_gates : int;
      (** Gate consultations: 0 or 1, as only a top-level commit
          consults the gate. *)
  mutable st_complete : float;
      (** The top-level [Commit]/[Abort] ([0.] while running). *)
}
(** Wall-clock stage readings for one live top-level transaction,
    maintained only when {!create} was given a [clock]. *)

type state =
  | Unknown  (** Never submitted here. *)
  | Pending  (** Submitted; [REQUEST_CREATE] not yet fired. *)
  | Running
  | Committed of Value.t
  | Aborted of Admission.veto option
      (** With the veto record when admission was the cause. *)

val create :
  ?policy:Runtime.policy ->
  ?inform_policy:Runtime.inform_policy ->
  ?abort_prob:float ->
  ?max_steps:int ->
  ?obs:Obs.t ->
  ?admission:bool ->
  ?on_top_complete:(Txn_id.t -> [ `Committed | `Aborted ] -> unit) ->
  ?on_action:(Action.t -> unit) ->
  ?upper:Admission.upper ->
  ?clock:(unit -> float) ->
  seed:int ->
  (Obj_id.t * Datatype.t) list ->
  Nt_gobj.Gobj.factory ->
  t
(** An engine over the given object table, starting with an empty
    forest.  [admission] (default [true]) turns the commit gate on;
    the monitor runs either way, with operation-level conflicts.
    [on_top_complete] fires synchronously, in
    trace order, at every top-level [Commit]/[Abort] — the hook a
    server uses to measure submit-to-completion latency and attribute
    the outcome (e.g. audit-log a veto) while the admission record is
    fresh; keep it cheap, it runs inside {!step}.  [clock] (a
    monotonic-seconds reading; [lib/net] links no [unix], so the
    server injects one) turns on {!stage_times} bookkeeping: submit /
    scheduler-start / gate / completion stamps per live
    top-level transaction, at the cost of a couple of clock reads per
    transaction and per gate consultation.  Without it the engine
    behaves exactly as before.  [on_action] is a read-only tap fired
    before the engine's own bookkeeping on every runtime action — a
    shard wrapper uses it to stamp sequence numbers and mirror the
    action stream.  [upper] is the upper level of a two-level gate
    ({!Admission.upper}): its gate is consulted {e only after} the
    local admission controller admits (so never when [admission] is
    off), with the prospective edge set the local gate already
    computed (unfiltered, from the monitor's one edge rule — see
    {!Admission.gate}), and a veto is recorded exactly as a local one,
    so {!state} reports it; its hold keeps a top in the monitor until
    the upper level has settled it. *)

val max_program : int
(** The largest program (in transaction names, {!Program.size}) any
    engine accepts: 10 000. *)

val validate :
  (Obj_id.t * Datatype.t) list -> Program.t -> (unit, string) result
(** The check {!submit} applies, as a pure function of the object
    table: size at most {!max_program}, every object declared, every
    operation offered by its object's type.  The error is the
    rejection message a client sees.  A sharded router runs the same
    check against the full table, so a program is refused with the same
    words at any shard count. *)

val submit : t -> Program.t -> (Txn_id.t, string) result
(** Validate (size, declared objects, offered operations) and attach.
    [Ok t] names the new top-level transaction — nothing has run yet;
    {!step} drives it. *)

val step : t -> [ `Progress | `Quiescent | `Truncated ]
(** One {!Nt_generic.Runtime.step}, then retire any doomed
    transactions that became abortable.  [`Quiescent] means idle until
    the next {!submit}. *)

val drain : ?burst:int -> t -> [ `Progress | `Quiescent | `Truncated ]
(** Step until quiescent/truncated, or until [burst] steps elapsed
    ([`Progress] — still working). *)

val kill :
  t -> Txn_id.t -> [ `Aborted | `Doomed | `Already_complete | `Unknown ]
(** Orphan a submission (its client vanished): abort it now if the
    controller may — any submission whose [REQUEST_CREATE] has fired
    and that has not yet committed or aborted, a requested commit
    included ([`Aborted]).  A submission whose [REQUEST_CREATE] has
    not fired yet is marked doomed instead ([`Doomed]): the sweep after
    each subsequent {!step} aborts it at the first legal moment, so no
    locks outlive the disconnect. *)

val state : t -> Txn_id.t -> state

val finish : t -> Runtime.result
(** Settle telemetry and package the run.  Call once, when serving
    stops; the trace judges against the offline oracles. *)

val forest : t -> Program.t list
(** All submissions so far, in [T0]-child order — with the trace from
    {!finish}, exactly what the offline {!Nt_check} oracles need. *)

val schema : t -> Schema.t
val objects : t -> (Obj_id.t * Datatype.t) list
val admission : t -> Admission.t
val submitted : t -> int
val committed_top : t -> int
val aborted_top : t -> int
(** The runtime's top-level tallies ({!Nt_generic.Runtime.committed_top});
    a reading inside [on_top_complete] already counts that
    completion. *)

val live_top : t -> int
(** Occupancy: submissions not yet committed or aborted. *)

val vetoed : t -> int
val alarms : t -> int
val cycle_alarms : t -> int
val truncated : t -> bool
val doomed_count : t -> int
val actions_so_far : t -> int

val steps_so_far : t -> int
(** The runtime's step counter — {e productive} steps only (a
    quiescent {!step} does not advance it). *)

val step_calls : t -> int
(** {!step} invocations, quiescent ones included ({!drain}'s internal
    calls count).  This is the number the write-ahead log records: a
    quiescent step still sweeps doomed transactions, so replay must
    reproduce the call sequence, not the productive-step count. *)

val orphan_aborts : t -> int

val stage_times : t -> Txn_id.t -> stage_times option
(** The live stage readings for a submitted top-level transaction.
    [None] without a [clock], for foreign names, and once the
    transaction completes — the entry is retired when the top-level
    [Commit]/[Abort] returns, so read it inside [on_top_complete]
    (where [st_complete] is already stamped) or before completion. *)

(** {2 Counters} *)

type stats = {
  sh_submitted : int;
  sh_committed : int;
  sh_aborted : int;
  sh_vetoed : int;
  sh_live : int;
  sh_actions : int;
  sh_steps : int;
  sh_orphans : int;
  sh_doomed : int;
  sh_alarms : int;
  sh_cycle_alarms : int;
  sh_sg_nodes : int;
  sh_sg_edges : int;
  sh_sg_reorders : int;
}
(** One reading of the getters above plus the monitor graph's live
    size (settled tops retired, see {!Nt_sg.Monitor}):
    the counters a telemetry frame differences, a shard publishes to
    other threads and a server prints.  (The [sh_] prefix names a
    shard's row; a single engine is one shard.) *)

val stats : t -> stats
(** Read every counter; call from the engine's owning thread. *)

val sum_stats : stats list -> stats
(** Field-wise sum; [sum_stats []] is all zeros.  Exact for disjoint
    shard monitors: shard SGs partition the tops, cross-shard edges
    live in the spine. *)
