(** The [ntserved] wire protocol.

    Frames are an ASCII decimal byte count, a newline, then that many
    bytes of JSON payload ([{!frame}]).  Payloads are single JSON
    objects tagged by a ["type"] field; programs travel as
    {!Nt_workload.Program_io} text and values as their rendered
    strings, so the protocol needs no schema negotiation beyond the
    object declarations in {!constructor:Welcome}.

    {b Trace propagation.}  A client may attach an opaque request id
    to {!constructor:Submit} (["req"], omitted from the JSON when
    absent); the server stores it with the submission and echoes it in
    the {!constructor:Accepted}/{!constructor:Rejected} answer, in
    every {!constructor:State} about that transaction, and in the
    audit-log entry if the transaction is vetoed or slow — so a client
    span, the server-side transaction span and the audit record all
    link into one trace without the server interpreting the id.

    {b Telemetry streaming.}  {!constructor:Subscribe} registers the
    connection for server-push {!constructor:Telemetry} frames: one
    immediately, then one per server telemetry interval, each carrying
    a sequence number, monotonic server time, the closing interval's
    windowed counters and latency histogram, engine occupancy,
    cumulative totals, serialization-graph size and the top-K
    lock-contended objects.  Subscribers are read-only observers — the
    submit path is not perturbed beyond buffering their frames.

    The codec is symmetric — both directions are exposed so the server,
    the clients ([ntload], [nttop]) and the in-process harness
    ([Nt_check.Check.record]) share one definition. *)

open Nt_base
open Nt_obs

val protocol_version : int

val max_frame : int
(** Upper bound on payload bytes; oversized frames are a protocol
    error (the reader reports it rather than buffering without
    bound). *)

val frame : string -> string
(** ["<len>\n<payload>"]. *)

(** Incremental frame extraction for a [select] loop: {!Reader.feed}
    whatever bytes arrived, then {!Reader.next} until it returns
    [Ok None].  A reader that returned [Error] is poisoned — the
    connection should be dropped.  Errors carry the offending size or
    a bounded prefix of the offending bytes, so a protocol log names
    what poisoned the stream. *)
module Reader : sig
  type t

  val create : unit -> t
  val feed : t -> string -> unit

  val next : t -> (string option, string) result
  (** [Ok (Some payload)] — one complete frame; [Ok None] — need more
      bytes; [Error] — malformed or oversized header (the message
      reports the claimed size and the limit, or the first bytes of
      the bad header). *)

  val buffered : t -> int
  (** Bytes currently buffered (for backpressure accounting). *)

  type eof = Clean | Torn of { buffered : int; expected : int option }
  (** What a stream's end means, judged by the reader's buffer: [Clean]
      — the peer closed at a frame boundary; [Torn] — it closed
      mid-frame, with [buffered] bytes held and [expected] the declared
      payload length when the header had already arrived.  Distinct
      from {!next}'s poisoning errors (malformed bytes): a torn end is
      well-formed-so-far but incomplete, which is exactly the signature
      of a crashed writer — the crash tests assert on the
      distinction. *)

  val eof : t -> eof
  (** Judge the stream's end.  Call when a read returns end-of-file;
      meaningful any time no further bytes are coming. *)

  val describe_eof : eof -> string
end

type request =
  | Hello of { client : string }
  | Submit of { program : string; req : string option }
      (** One {!Nt_serial.Program} as text, with an optional opaque
          client request id echoed in every answer about it. *)
  | Status of Txn_id.t
  | Metrics
  | Subscribe  (** Register for server-push {!constructor:Telemetry}. *)
  | Ping
      (** Liveness probe: answered immediately with
          {!constructor:Pong} (server mono-time + engine occupancy),
          used by [ntload] before a campaign. *)
  | Dump
      (** Dump the flight recorder to disk now; answered with
          {!constructor:Dumped} naming the artifacts (or
          {!constructor:Error_msg} when the recorder is off). *)
  | Quiesce  (** Drain: answer once nothing is enabled. *)
  | Shutdown

type txn_state =
  | Pending  (** Accepted, [REQUEST_CREATE] not yet fired. *)
  | Running
  | Committed of string  (** The rendered commit value. *)
  | Aborted of string option
      (** With the admission veto witness, when that was the cause. *)

type server_status =
  | Fresh  (** Started with no (or an empty) write-ahead log. *)
  | Recovering of { replayed : int; total : int }
      (** Replaying the log: submissions are rejected, probes answered.
          [replayed]/[total] count replay events. *)
  | Recovered of { replayed : int; torn : bool }
      (** Replay complete and validated; [torn] records whether the log
          ended mid-record (the truncated tail was discarded).  Absent
          on the wire from pre-durability servers — decoders default to
          [Fresh]. *)

type hist = {
  h_count : int;
  h_sum : int;
  h_min : int;  (** Exact raw extremes. *)
  h_max : int;
  h_p50 : int;  (** Bucket-upper-bound approximations (see
                    {!Nt_obs.Metrics.hstats}). *)
  h_p99 : int;
  h_p999 : int;
  h_buckets : (int * int) list;
      (** Non-empty power-of-two buckets as [(index, count)] pairs,
          ascending — enough for a consumer to re-aggregate across
          frames without re-bucketing error. *)
}
(** A histogram as it travels on the wire. *)

val empty_hist : hist

type shard_row = {
  r_shard : int;
  r_submitted : int;
  r_committed : int;
  r_aborted : int;
  r_vetoed : int;
  r_live : int;
}
(** One shard's counters, carried in {!type:telemetry} and
    [Quiesced] answers when the server runs sharded ([shards > 1] in
    its [Welcome]); empty on single-engine servers and pre-v5
    peers. *)

type telemetry = {
  seq : int;  (** Monotonically increasing per server. *)
  t_mono : float;  (** Monotonic server clock, seconds. *)
  interval_s : float;  (** Configured telemetry interval. *)
  w_requests : int;  (** Window: wire requests handled. *)
  w_submitted : int;
  w_committed : int;
  w_aborted : int;
  w_vetoed : int;
  w_orphans : int;
  w_alarms : int;
  w_latency : hist;  (** Window: submit-to-completion latency, µs. *)
  o_live : int;  (** Occupancy: submitted, not yet complete. *)
  o_doomed : int;
  o_conns : int;
  o_subscribers : int;
  c_submitted : int;  (** Cumulative totals since server start. *)
  c_committed : int;
  c_aborted : int;
  c_vetoed : int;
  c_alarms : int;
  sg_nodes : int;  (** Serialization-graph size (monitor). *)
  sg_edges : int;
  sg_reorders : int;
  hot : (string * int) list;
      (** Top-K objects by refused accesses (lock waits) this interval,
          from the delta of the runtime's per-object [runtime.refused.*]
          counters. *)
  stages : (string * hist) list;
      (** Window: per-stage latency histograms, µs, in
          {!Nt_obs.Stage.stages} order (stages with no samples this
          interval are included empty; absent from old servers'
          frames). *)
  gc_pause : hist;  (** Window: GC pause durations, µs. *)
  gc_pct : float;
      (** Percentage of the closing interval's wall time spent in GC
          pauses (0 when the monitor is imprecise or off). *)
  per_shard : shard_row list;
      (** Per-shard breakdown on sharded servers; [[]] otherwise. *)
}
(** One server-push telemetry frame. *)

type response =
  | Welcome of {
      server : string;
      version : string;
      backend : string;
      status : server_status;
      objects : (string * string) list;
          (** Name and {!Nt_workload.Program_io.dtype_decl} of every
              servable object — enough for a client to generate
              well-typed programs. *)
      shards : int;
          (** Worker domains serving the object table; 1 on
              single-engine servers (and assumed 1 when absent from a
              pre-v5 peer's welcome). *)
    }
  | Accepted of { txn : Txn_id.t; req : string option }
      (** The name under which the program runs, echoing the
          submission's request id. *)
  | Rejected of { why : string; req : string option }
      (** Parse/validation failure; nothing ran. *)
  | State of { txn : Txn_id.t; state : txn_state; req : string option }
      (** [req] echoes the id given at submission (an un-submitted or
          foreign transaction has none). *)
  | Metrics_dump of Json.t  (** {!Nt_obs.Metrics.to_json} of the server. *)
  | Telemetry of telemetry
  | Pong of {
      t_mono : float;
      live : int;
      doomed : int;
      conns : int;
      status : server_status;
    }
      (** Liveness answer: monotonic server clock plus engine
          occupancy (live/doomed transactions, open connections) and
          the durability status (recovery progress is observable over
          a plain {!constructor:Ping}). *)
  | Dumped of { spans : int; dropped : int; jsonl : string; chrome : string }
      (** Flight-recorder dump written: span count, ring drops, and
          the server-side paths of the JSONL and Chrome-trace
          artifacts. *)
  | Quiesced of {
      committed : int;
      aborted : int;
      vetoed : int;
      alarms : int;
      per_shard : shard_row list;
    }
  | Goodbye
  | Error_msg of string  (** Protocol-level error; connection closes. *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result

val hist_to_json : hist -> Json.t
val hist_of_json : Json.t -> (hist, string) result

val hist_of_view : Window.view -> hist
(** Lift a windowed histogram readout onto the wire. *)

val encode_request : request -> string
(** Framed and ready to write. *)

val decode_request : string -> (request, string) result
(** From one {!Reader.next} payload. *)

val encode_response : response -> string
val decode_response : string -> (response, string) result
val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
