(** Classifying, naming and accounting for submitted programs.

    The router owns the merged name space: every accepted program gets
    the next dense merged top id [g] ([T0.g] in the merged forest).  A
    single-shard program dispatches whole, under prefix [[g]]; a
    cross-shard program splits ({!Split.pieces}) into per-shard pieces
    under prefixes [[g; k]], with the merged forest holding
    [Node (Par, pieces)] in its place and the router synthesizing the
    merged node's create/commit actions around the pieces' lifetime.

    The router is thread-safe (one internal mutex); {!note_report} is
    called from shard threads' action taps, everything else from
    whichever thread serves clients. *)

open Nt_base
open Nt_serial

type t

type dispatch = { d_shard : int; d_prefix : int list; d_prog : Program.t }
type plan = { p_g : int; p_dispatches : dispatch list; p_cross : bool }

type result_view =
  | Pending
  | Committed of Value.t
  | Aborted of Nt_net.Admission.veto option

val create : merged:bool -> Partition.t -> Spine.t -> t
(** [merged] (several shards) turns on the synthetic merged requests;
    one shard's engine trace is already the merged history, so without
    it {!plan} synthesizes nothing for a shard-local program. *)

val plan : t -> Program.t -> (plan, string) result
(** Validate with {!Nt_net.Engine.validate} against the full object
    table (atomically — no piece is dispatched for a rejected program,
    and the message is the one a single engine gives), classify, number
    it [g] (the next merged top, under the router's lock), and (when
    [merged]) note [g]'s [Request_create] with {!Spine.note_submit}
    in the same critical section, so the spine sees every merged top in
    order — for a cross-shard program also stamp its [Create] and its
    pieces' requests into the synthetic action stream.  At one shard the
    spine is left empty.  The caller performs the dispatches. *)

val note_report :
  t -> g:int -> piece:int option -> Shard_engine.outcome -> unit
(** Pass this as every shard's [on_report] ({!Shard_engine.create}).
    The last piece report synthesizes the merged node's commit. *)

val note_dispatch_failed : t -> g:int -> piece:int option -> unit

val result : t -> int -> result_view
(** A cross-shard program reports [Committed] with the pair-per-piece
    value (vetoed or killed pieces pair as [(false, Unit)]), exactly as
    a [Par] top with aborted children would. *)

val kill_prefixes : t -> int -> (int * int list) list
(** The (shard, prefix) pairs to kill for submission [g]. *)

val submitted : t -> int
val cross_count : t -> int
val local_count : t -> int
val pending : t -> int
(** Submissions not yet complete. *)

val counts : t -> int * int
(** Merged [(committed, aborted)] top counts.  Like {!pending}, kept
    current by {!plan} and {!note_report}: constant time, however long
    the history. *)

val merged_forest : t -> Program.t list

val merged_trace : t -> (int * Action.t) list list -> Trace.t
(** Sort the shards' stamped buffers plus the synthetic stream into the
    one merged history. *)
