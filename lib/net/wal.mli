(** The write-ahead log and snapshot store behind a durable [ntserved].

    The engine ({!Engine}) is deterministic: its state is a pure
    function of the seed and the exact interleaving of
    {!Engine.submit} / {!Engine.kill} / {!Engine.step} calls.  The log
    therefore records that interleaving — submissions (as
    {!Nt_workload.Program_io} text), orphan kills, and coalesced
    engine-step counts — plus, for audit and recovery validation, the
    commit-gate outcome of every completed top-level transaction.
    Recovery replays the event prefix into a fresh one-shard cluster
    ([Nt_shard.Durable.recover]) and cross-checks the recorded outcomes
    against the replayed state; the admission {!Nt_sg.Monitor} is
    rebuilt as a byproduct of the same replay.

    {2 On-disk format}

    A log file is a 16-byte header — an 8-byte magic, then the
    big-endian sequence number of its first record — followed by
    length-prefixed, CRC32-checksummed records:

    {v
      +--------------+---------------+-------------------+
      | len : u32 BE | crc32 : u32 BE| payload (len bytes)|
      +--------------+---------------+-------------------+
    v}

    The decoder ({!scan}) never throws on a damaged file: a torn final
    record, a truncated length prefix, a checksum mismatch or a
    mid-header cut all stop the scan at the last intact record and
    report a {!tail} diagnosis carrying the valid byte length, so the
    writer can truncate the wreckage and append from a clean boundary.

    A snapshot is the same container under a different magic, holding
    the compacted replay closure (merged step runs, no outcomes) plus
    the monitor's serialization graph in dense-interned form and the
    engine counters — both re-verified against the replayed state at
    recovery, so a corrupt or foreign snapshot is detected rather than
    trusted.

    This module performs no I/O of its own and links no [unix]: byte
    sinks and [fsync] are injected (see {!sink}), exactly as the
    engine's clock is. *)

open Nt_base

(** {1 Records} *)

type outcome =
  | Committed of string  (** Rendered commit value ({!Nt_base.Value.to_string}). *)
  | Aborted of string option  (** Veto rendering when admission caused it. *)

type record =
  | Meta of {
      seed : int;
      backend : string;
      policy : string;
      inform : string;
      abort_prob : float;  (** Fault-injection rate — replay-relevant. *)
      objects : (string * string) list;  (** (name, dtype decl) pairs. *)
    }
      (** First record of every log generation; recovery refuses a log
          whose configuration does not match the server's. *)
  | Submit of { req : string option; client : string; program : string }
      (** One accepted submission, in engine order ([T0]-child order). *)
  | Kill of { txn : Txn_id.t }  (** An orphan kill ({!Engine.kill}). *)
  | Steps of int  (** [n] {!Engine.step} calls since the last record. *)
  | Outcome of { txn : Txn_id.t; outcome : outcome }
      (** Audit: a top-level completion.  Never replayed — checked. *)
  | Sg_state of { nodes : string array; edges : (int * int) list }
      (** Snapshot only: the monitor's graph, nodes interned densely
          (edge endpoints index [nodes]). *)
  | Counts of { submitted : int; committed : int; aborted : int; vetoed : int }
      (** Snapshot only: engine counters at the covered prefix. *)

val record_name : record -> string
(** ["meta"], ["submit"], ["kill"], ["steps"], ["outcome"],
    ["sg-state"], ["counts"] — stable tags for dumps and metrics. *)

val encode_record : record -> string
(** The framed bytes (length + checksum + payload) of one record. *)

val decode_payload : string -> (record, string) result
(** Decode one record payload (no frame).  Total: damaged input is an
    [Error], never an exception. *)

(** {1 Scanning (recovery-side decode)} *)

type tail =
  | Clean  (** The file ends exactly at a record boundary. *)
  | Torn of { valid : int; why : string }
      (** Bytes past [valid] are damage: a cut mid-record, a length
          prefix pointing past the end, or a checksum mismatch.  [why]
          says which.  Recovery keeps the prefix and truncates here. *)

type scanned = {
  sc_base_seq : int;  (** Sequence number of the first record. *)
  sc_records : record list;  (** Intact records, in order. *)
  sc_offsets : int list;
      (** Byte offset of each record's frame, parallel to
          [sc_records]; the crash harness cuts at these boundaries. *)
  sc_valid : int;  (** Byte length of the intact prefix. *)
  sc_tail : tail;
}

val scan : magic:string -> string -> (scanned, string) result
(** Scan a whole file image.  [Error] only for a wrong or damaged
    magic (the file is not ours — refuse, do not truncate); an empty
    image is a fresh log ([sc_base_seq = 0], no records, [Clean]). *)

val wal_magic : string
val snap_magic : string
(** ["NTWAL03\n"] and ["NTSNAP4\n"].  The version moves whenever
    replay would recompute an image differently: when the runtime's
    schedule for a seed changes (recovery replays [Steps n] through the
    runtime's RNG), and when the monitor's graph or a veto's witness
    does (a snapshot's [Sg_state] and an [Outcome]'s veto text are
    checked against the replay).  [NTSNAP4]'s [Sg_state] holds the
    monitor's live graph, settled tops retired; an [NTSNAP3] one held
    the whole history.  An image written by an older version
    is refused up front as a foreign file instead of failing the audit. *)

val header : magic:string -> base_seq:int -> string
(** The 16-byte file header. *)

(** {1 Writer} *)

type sink = {
  write : string -> unit;  (** Append bytes (buffered is fine). *)
  sync : unit -> unit;  (** Make everything written so far durable. *)
}
(** Byte-sink injection: [ntserved] supplies an [out_channel] +
    [Unix.fsync]; tests supply a {!Buffer} and a counter. *)

val buffer_sink : Buffer.t -> sink
(** A sink appending to a buffer with a no-op [sync]. *)

module Writer : sig
  (** Appends records with group-commit [fsync] batching.

      The unit of writing and syncing is the writer call, not the
      record: {!append} and {!log_steps} each hand all their records
      to [sink.write] as one string, then sync at most once.
      Durability policy: a call syncs before it returns when
      [fsync_batch] or more records are unsynced (1 = no call returns
      with an unsynced record, the unbatched baseline: one sync per
      call, however many records a {!log_steps} cut carries); or
      {!tick} syncs once [fsync_interval_s] has elapsed with dirty
      records; or {!flush} does — whichever comes first.  Batching
      bounds the window of acknowledged-but-volatile records by
      [fsync_batch] records (no call returns with that many unsynced)
      and [fsync_interval_s] seconds; see [doc/durability.mld].  The
      file image is the same whatever the policy: the records in call
      order, each framed on its own.

      The writer also owns an ordering invariant the validator relies
      on: completions observed while stepping ({!note_outcome}) are
      buffered and appended only after the {!log_steps} record
      covering those steps, so an [Outcome] in any intact prefix is
      always reproducible by replaying that prefix. *)

  type t

  val create :
    ?fsync_batch:int ->
    ?fsync_interval_s:float ->
    ?clock:(unit -> float) ->
    ?fresh:bool ->
    base_seq:int ->
    on_sync:(unit -> unit) ->
    sink ->
    t
  (** [fresh] (default [true]) writes the file header first; pass
      [false] when appending to a scanned log.  [on_sync] fires after
      every [sync] (telemetry hook; pass [ignore] when unused). *)

  val append : t -> record -> unit
  val note_outcome : t -> txn:Txn_id.t -> outcome -> unit
  val log_steps : t -> int -> unit
  (** Append [Steps n] (if [n > 0]), then any buffered outcomes in
      noted order — one [write], at most one [sync]; nothing at all
      when [n = 0] and no outcome is pending. *)

  val tick : t -> unit
  (** Time-based sync check; needs [clock]. *)

  val flush : t -> unit
  (** Flush buffered outcomes and force a sync if dirty. *)

  val next_seq : t -> int

  val appended : t -> int
  (** Records appended (header excluded). *)

  val syncs : t -> int
  val bytes_written : t -> int
end

(** {1 Snapshots} *)

type snapshot = {
  sn_next_seq : int;
      (** The snapshot covers log records with seq < [sn_next_seq]. *)
  sn_meta : record;  (** The [Meta] of the covered generation. *)
  sn_events : record list;  (** Compacted replay events. *)
  sn_sg : record;  (** [Sg_state] at the covered prefix. *)
  sn_counts : record;  (** [Counts] at the covered prefix. *)
}

val encode_snapshot : snapshot -> string
val decode_snapshot : string -> (snapshot, string) result
(** Total; any damage (including a torn tail — snapshots are written
    whole and renamed into place, so a tail is corruption) is an
    [Error]. *)

module Closure : sig
  (** The replay closure of an event sequence, maintained one record
      at a time: [Outcome]s dropped, adjacent [Steps] merged,
      [Submit]/[Kill] order kept — the event list a snapshot stores,
      replay-equivalent to everything pushed.  Memory between
      snapshots is bounded by the retained [Submit]/[Kill] records —
      with [events t = e] the closure holds at most [2*e + 1] records,
      however many raw records (idle [Steps] cuts included) were
      pushed. *)

  type t

  val create : unit -> t

  val of_records : record list -> t
  (** [of_records rs] pushes [rs] (oldest first) into a fresh closure. *)

  val push : t -> record -> unit
  (** Append one record: merges into a trailing [Steps] run, drops
      [Steps 0] and non-replay records ([Outcome]/[Meta]/[Sg_state]/
      [Counts]). *)

  val records : t -> record list
  (** The closure, oldest first. *)

  val length : t -> int
  (** Records currently retained. *)

  val events : t -> int
  (** Retained [Submit]/[Kill] records; [length t <= 2 * events t + 1]. *)
end

(** {1 Replay} *)

type replay_event =
  [ `Submit of Nt_serial.Program.t | `Kill of Txn_id.t | `Steps of int ]
(** One logged engine call: a validated submission, an orphan kill, or
    a run of [k] {!Engine.step} calls (quiescent calls included — see
    {!Engine.step_calls}). *)

type replayable = {
  rp_events : replay_event list;
  rp_outcomes : (Txn_id.t * outcome) list;  (** Audit prefix, in order. *)
}

val replayable_of_records :
  base_seq:int -> skip_below:int -> record list -> (replayable, string) result
(** Parse records into engine replay events, skipping records with
    seq < [skip_below] (those are covered by the snapshot).  [Error]
    on an unparsable program text — the checksum passed, so that is a
    writer bug, not corruption, and recovery must not guess. *)

val check_outcomes :
  (Txn_id.t -> Engine.state) -> (Txn_id.t * outcome) list -> (int, string) result
(** Prefix-closure check: every audited outcome must be reproduced
    exactly by the replayed engine.  [Ok n] counts outcomes checked. *)

val sg_state_of_graph : _ Nt_sg.Graph.t -> record
(** Dense-intern a monitor graph into an [Sg_state] record. *)

val check_sg_state :
  record -> _ Nt_sg.Graph.t -> (unit, string) result
(** The snapshot's graph must equal the replayed monitor's graph
    (same node set, same edge set). *)

(** {1 The log policy}

    Everything above is mechanism.  {!Recovery.plan} is the policy
    that needs no engine: which file images a server may recover from.
    What a durable server logs and how a plan is replayed drive the
    one-shard cluster, so that half is [Nt_shard.Durable]. *)

val meta :
  seed:int ->
  backend:string ->
  policy:Nt_generic.Runtime.policy ->
  inform_policy:Nt_generic.Runtime.inform_policy ->
  abort_prob:float ->
  (Obj_id.t * Nt_spec.Datatype.t) list ->
  record
(** The [Meta] record of an engine configuration. *)

module Recovery : sig
  (** Recovery as a pure function of the file images; the resumable
      replay of the result is [Nt_shard.Durable].

      {!plan} decides what may be trusted.  A refusal names the file
      at fault.  The rules:
      - an empty log with no snapshot is a fresh start;
      - a torn log tail is cut off: the log keeps its intact prefix
        ([valid]) and is replayed;
      - a corrupt snapshot is ignored, with a note, while the log still
        holds the whole history ([base_seq = 0]); after a rotation it
        is refused, and so is a missing snapshot;
      - a [Meta] in the log or the snapshot that differs from the
        server's is refused;
      - the gap rule: a log that starts after the snapshot's cover
        point ([sn_next_seq < base_seq]) has lost the records in
        between, and is refused;
      - a log with records but no [Meta] and no snapshot is refused
        (every generation begins with one).

      A trusted snapshot replays first and is checked against its
      graph and counters; the log records from its cover point on
      replay next and are checked against their [Outcome]s.  The files
      are not touched until that replay is [`Done]: a refusal or a
      crash mid-recovery leaves the images as they were, and the next
      start plans the same recovery. *)

  type check =
    | Snapshot_state of { sg : record; counts : record }
        (** The replayed monitor graph and counters must match. *)
    | Outcome_prefix of (Txn_id.t * outcome) list
        (** Every audited outcome must be reproduced ({!check_outcomes}). *)

  type phase = { events : replay_event list; check : check }

  type problem = { culprit : [ `Log | `Snapshot ]; why : string }

  type plan = {
    phases : phase list;
        (** The snapshot phase when one is trusted, then the log tail. *)
    total : int;  (** Event weight over all phases ([Steps n] weighs [n]). *)
    tail : tail;  (** The log scan's diagnosis. *)
    valid : int;
        (** Bytes of the log to keep; the writer resumes there
            ([Writer.create ~fresh:(valid = 0)]).  [0]: start a new
            generation at [base_seq] — the log had no intact header, or
            ended before the snapshot's cover point. *)
    base_seq : int;  (** Sequence number of the next record appended. *)
    has_meta : bool;
        (** The kept log holds its [Meta] record.  [false] for a new
            generation and for a header-only log;
            [Nt_shard.Durable.Session.create] appends [Meta] then. *)
    snapshot_trusted : bool;  (** The first phase replays the snapshot. *)
    empty : bool;
        (** Nothing to recover: no records, no snapshot, no damage. *)
    seed : record list;
        (** The recovered history's records (the snapshot's events, then
            the log's from the cover point on), the seed of
            [Nt_shard.Durable.Session.create]'s replay closure. *)
    notes : problem list;  (** Damage that was tolerated. *)
  }

  val plan :
    meta:record -> log:string -> snapshot:string option -> (plan, problem) result
  (** [log] is the whole log image ([""] when the file is missing);
      [snapshot] the snapshot image, if the file exists. *)

  val weight : replay_event -> int
  (** An event's share of [total]: [Steps n] weighs [n], the others
      [1]. *)
end
