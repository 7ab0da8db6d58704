(** One shard: an {!Nt_net.Engine} over the shard's slice of the object
    table, wired into the cross-shard {!Spine}.

    A {e merged} wrapper (one shard of several) does three things the
    plain engine cannot:

    - {e merged naming} — every submitted local top carries a merged
      path prefix ([[g]] for a whole program, [[g; k]] for piece [k] of
      cross-shard program [g]); the action tap remaps each local action
      into the merged name space and stamps it with the global sequence
      counter, so the union of all shard buffers sorts into one merged
      trace;
    - {e rail stamping} — top-level [Request_create]/report actions
      stamp {!Spine.note_submit}/{!Spine.note_complete} with the same
      sequence numbers, making the spine's implicit precedes rail
      exactly the merged trace's;
    - {e the second gate} — after the local controller admits a
      top-level commit, it hands this wrapper the prospective edge set
      it already computed ({!Nt_sg.Monitor.prospective_commit_edges},
      the feed's own edge rule, computed once per commit); if the set
      contains top-level edges, their merged projection goes to
      {!Spine.gate} — new edges, and edges the local graph already
      holds unless the spine's rail orders their merged tops (the rule
      and its argument are in [doc/sharding.mld]); a spine veto goes
      back to {!Nt_net.Admission.gate}, which records it like a local
      veto, so clients cannot tell the two apart.  Commits with no
      top-level prospective edges skip the spine — that fast path is
      exact, not heuristic: only edges incident to the committing top
      can close a new global cycle, and they are all in the prospective
      set.

    A {e bare} wrapper (the only shard) does none of this — its trace
    is the merged one and it holds no cross-shard cycle — and reports
    each top at the engine's top-level [Commit]/[Abort].

    Thread discipline: every mutating entry point ({!submit}, {!step},
    {!drain}, {!kill}, {!finish}) must be called from the one thread
    that owns the shard (the domain worker, or the harness thread);
    {!published} and {!set_on_report} are safe from anywhere. *)

open Nt_base
open Nt_serial
open Nt_generic
open Nt_obs
open Nt_net

type t

type outcome =
  | Done_committed of Value.t
  | Done_aborted of Admission.veto option

type stats = Engine.stats = {
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

val create :
  ?policy:Runtime.policy ->
  ?inform_policy:Runtime.inform_policy ->
  ?abort_prob:float ->
  ?max_steps:int ->
  ?obs:Obs.t ->
  ?gating:bool ->
  ?clock:(unit -> float) ->
  ?on_top_complete:(Txn_id.t -> [ `Committed | `Aborted ] -> unit) ->
  merged:bool ->
  spine:Spine.t ->
  partition:Partition.t ->
  shard:int ->
  seed:int ->
  Nt_gobj.Gobj.factory ->
  t
(** [gating] (default [true]) turns off {e both} the local admission
    gate and the spine consult — the sharded no-control, for negative
    tests.  [clock] and [on_top_complete] reach a bare wrapper's
    engine; a merged one ignores them. *)

val set_on_report :
  t -> (g:int -> piece:int option -> seq:int -> outcome -> unit) -> unit
(** Fired at every local top-level report (bare: at its [Commit]/[Abort],
    stamp [0]), with the merged identity and the trace stamp.  Runs on
    the shard's thread; keep it cheap and lock-disciplined. *)

val submit : t -> prefix:int list -> Program.t -> (Txn_id.t, string) result
(** Validate and attach, recording the merged prefix for the new local
    top. *)

val kill_prefix : t -> int list -> bool
(** Kill the local top registered under this merged prefix (no-op for
    unknown prefixes): [true] if {!Nt_net.Engine.kill} orphaned it. *)

val step : t -> [ `Progress | `Quiescent | `Truncated ]
val drain : ?burst:int -> t -> [ `Progress | `Quiescent | `Truncated ]

val finish : t -> Runtime.result
(** The local result (local names); the merged trace comes from
    {!buffer}. *)

val buffer : t -> (int * Nt_base.Action.t) list
(** Merged-named, stamp-carrying actions, newest first (none bare). *)

val engine : t -> Engine.t

val publish : t -> unit
(** Snapshot the engine counters into a cell readable from other
    threads. *)

val published : t -> stats
(** The last published snapshot (all zeros before the first
    {!publish}). *)

val snapshot : t -> stats
(** {!Nt_net.Engine.stats} of the shard's engine — only from the owning
    thread. *)
