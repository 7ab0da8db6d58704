(** The write-ahead log over a one-shard {!Cluster}: replaying a
    recovery plan into it, and logging its inputs.

    {!Nt_net.Wal} holds the mechanism and {!Nt_net.Wal.Recovery.plan},
    which decides from the file images alone what may be trusted; this
    is the half that drives the cluster.  [ntserved] keeps only the
    file I/O around it, and the crash harness ([Nt_check.Check.record]
    / [Nt_check.Check.crash]) drives it over in-memory images.  Every
    function raises [Invalid_argument] on a cluster of several shards. *)

open Nt_base
open Nt_net

(** {1 Replay} *)

val replay : Cluster.t -> Wal.replay_event list -> (int, string) result
(** Apply logged calls: [`Submit] through {!Cluster.submit}, [`Kill]
    through {!Cluster.kill}, [`Steps k] as [k] steps of the shard.
    [Ok n] counts events applied; [Error] if a logged submission fails
    validation (the log belongs to a different server).  Chunks must
    concatenate into the logged sequence from a fresh cluster. *)

val recover : Cluster.t -> Wal.replay_event list -> (int, string) result
(** {!replay} into a {e fresh} cluster configured as the log's [Meta]
    says; errors if it has already submitted or stepped.  Determinism
    of the runtime then reproduces the pre-crash state exactly: forest,
    trace prefix, admission verdicts and monitor graph. *)

(** {1 Recovery} *)

type progress

val start : Wal.Recovery.plan -> progress

val turn :
  burst:int -> Cluster.t -> progress -> ([ `More | `Done ], string) result
(** Replay up to [burst] event weight (a long [Steps] run is split
    mid-way), running a phase's check as it completes.  The first turn
    goes through {!recover}. *)

val replayed : progress -> int
val total : progress -> int

val run : burst:int -> Cluster.t -> Wal.Recovery.plan -> (int, string) result
(** {!start}, then {!turn} until [`Done]: [Ok] the audited outcomes
    verified. *)

(** {1 Logging} *)

module Session : sig
  (** The cluster, the writer of its current log generation, and the
      replay closure of everything logged so far.

      {!submit} and {!kill} call the cluster and log the call, each
      preceded by a {!cut} — one [Steps] record covering the
      {!Nt_net.Engine.step_calls} since the last cut, then the outcomes
      those steps produced — so every intact prefix of the log replays
      to exactly the state its [Outcome] records claim.  The caller
      steps the cluster and cuts when it likes (a server once per loop
      turn). *)

  type t

  val create :
    ?plan:Wal.Recovery.plan -> meta:Wal.record -> Cluster.t -> Wal.Writer.t -> t
  (** Without [plan] the log is new and begins with [Meta].  With one,
      the cluster has run it to [`Done] and the writer resumes where it
      says ([valid], [base_seq]); [Meta] is appended unless the kept log
      holds it, and the closure starts from the plan's [seed], so the
      next snapshot covers the whole history. *)

  val submit :
    t -> ?req:string -> client:string -> Nt_serial.Program.t ->
    (int, string) result
  (** {!Cluster.submit}, logging the program once it is accepted. *)

  val kill : t -> int -> bool
  (** Log an orphan kill of [T0.g], then {!Cluster.kill}: the kill may
      complete the transaction, and its outcome must follow. *)

  val note_outcome : t -> Txn_id.t -> [ `Committed | `Aborted ] -> unit
  (** The cluster's [on_top_complete] hook: the completion as an
      [Outcome], buffered until the next cut. *)

  val cut : t -> unit

  val flush : t -> unit
  (** {!cut}, then {!Nt_net.Wal.Writer.flush}. *)

  val snapshot : t -> string
  (** {!flush}, then the encoded snapshot — closure, monitor graph,
      engine counters — covering every record below the writer's
      [next_seq].  A server follows up with {!rotate}. *)

  val rotate : t -> Wal.Writer.t -> unit
  (** Continue on a new generation starting at the snapshot's cover
      point: append [Meta], flush, restart the {!due} count. *)

  val due : t -> every:int -> bool
  (** At least [every] records appended since the last snapshot or
      generation start ([every <= 0]: never). *)

  val writer : t -> Wal.Writer.t
  val closure_length : t -> int
end
