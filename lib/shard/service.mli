(** The live multicore service: one worker (an OCaml 5 domain; a
    system thread on 4.x — see {!Domain_compat}) per shard, each
    owning its {!Shard_engine} and parked on a {!Mailbox} when idle.

    The serving thread plans submissions on the {!Router} and pushes
    piece dispatches into the owning shards' mailboxes; workers apply
    them, step their engines, and report completions through the
    router's thread-safe bookkeeping.  Cross-shard coordination happens
    only inside {!Spine.gate} (one short mutex-guarded critical
    section per edge-bearing commit), so shard-local traffic never
    contends.

    The ensemble itself is a {!Cluster}; the service adds only the
    mailboxes and the worker domains that step it. *)

open Nt_base
open Nt_spec
open Nt_serial
open Nt_generic
open Nt_obs

type t

val start :
  ?policy:Runtime.policy ->
  ?max_steps:int ->
  ?gating:bool ->
  ?obs_for:(int -> Obs.t) ->
  ?notify:(unit -> unit) ->
  shards:int ->
  seed:int ->
  (Obj_id.t * Datatype.t) list ->
  Nt_gobj.Gobj.factory ->
  t
(** Spawns the workers.  [obs_for s] supplies shard [s]'s telemetry
    sink (default null).  [notify] fires from worker threads whenever
    submissions complete — a server writes a self-pipe byte there to
    wake its select loop. *)

val spawn : ?notify:(unit -> unit) -> Cluster.t -> t
(** {!start} over the caller's cluster; from the serving thread read
    only {!Cluster.result} and the {!Router}, which are thread-safe. *)

val submit : t -> Program.t -> (int, string) result
val kill : t -> int -> unit
val result : t -> int -> Router.result_view
val pending : t -> int
(** Submissions not yet complete. *)

val stats : t -> Shard_engine.stats array
(** Last published per-shard counters (cheap, safe from any thread). *)

val spine : t -> Spine.t
val router : t -> Router.t

val stop : t -> unit
(** Stop and join every worker.  Does not drain: callers wanting a
    clean shutdown wait for {!pending}[ = 0] first.  Idempotent. *)

val finish : t -> Runtime.result * Program.t list * Schema.t
(** Merged run assembly; only legal after {!stop}. *)
