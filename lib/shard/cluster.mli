(** The deterministic, single-threaded shard ensemble.

    Exactly the objects the live {!Service} runs — same {!Partition},
    {!Spine}, {!Router}, {!Shard_engine} — but stepped inline by the
    caller, one shard at a time.  Because every shard engine is a pure
    function of its seed and call sequence, and the spine's stamps are
    drawn in call order, a fixed interleaving of {!submit}, {!kill}
    and {!step_shard} calls reproduces the identical merged history —
    which is what lets [Check.serve_sharded] drive the whole ensemble
    from one splittable [Rng] and judge the result offline. *)

open Nt_base
open Nt_spec
open Nt_serial
open Nt_generic
open Nt_obs

type t

val create :
  ?policy:Runtime.policy ->
  ?inform_policy:Runtime.inform_policy ->
  ?abort_prob:float ->
  ?max_steps:int ->
  ?obs_for:(int -> Obs.t) ->
  ?gating:bool ->
  shards:int ->
  seed:int ->
  (Obj_id.t * Datatype.t) list ->
  Nt_gobj.Gobj.factory ->
  t
(** Shard [s] runs on [seed + s * 1000003], with telemetry sink
    [obs_for s] (default null). *)

val submit : t -> Program.t -> (int, string) result
(** Route, dispatch, return the merged id [g]. *)

val dispatch : t -> g:int -> Router.dispatch -> unit
(** Submit one planned piece of merged submission [g] to its shard
    (from that shard's thread); a refused piece is reported to the
    router as failed. *)

val kill : t -> int -> unit
(** Kill every piece of submission [g]. *)

val step_shard : t -> int -> [ `Progress | `Quiescent | `Truncated ]
val drain : t -> unit
val quiescent : t -> bool
val truncated : t -> bool

val result : t -> int -> Router.result_view

val finish : t -> Runtime.result * Program.t list * Schema.t
(** Settle every shard and assemble the merged run: stamp-sorted
    merged trace, summed stats, merged top counts, the par-of-pieces
    forest and its schema — directly judgeable by the offline
    oracles. *)

val shards : t -> int
val engine : t -> int -> Shard_engine.t
val spine : t -> Spine.t
val partition : t -> Partition.t
val router : t -> Router.t
