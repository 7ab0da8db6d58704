(** Server-side telemetry: the interval hub behind [Telemetry] frames
    and the structured audit log.

    The {!Hub} owns the histograms a serving loop cannot read straight
    off the engine — submit-to-completion latency (fed from
    {!Engine.create}'s [on_top_complete] hook), per-stage durations and
    GC pauses — in a private {!Nt_obs.Metrics} registry that holds the
    open interval only: {!Hub.cut} renders it and resets it.
    Everything else in a frame — request counts, the per-object
    [runtime.refused.*] family behind the hot-object ranking, engine
    totals — is computed by differencing cumulative sources at frame
    time: engine counters against their previous readings, and the
    server's {!Nt_obs.Metrics} registry against its {!Nt_obs.Metrics.copy}
    at the last cut.  The submit path pays nothing for telemetry beyond
    the hook's two histogram updates; in particular no event stream is
    required, so the server runs a metrics-only recorder by default.

    The {!Audit} writer emits one JSON object per line: an entry for
    every admission veto (carrying the full cycle and the
    [explain_cycle] witness chain) and for every slow request, each
    with the client's request id when one was supplied — the server
    half of the trace-propagation contract in {!Wire}. *)

open Nt_base
open Nt_obs

module Hub : sig
  type t

  val create : interval_s:float -> Metrics.t -> t
  (** A hub whose frames cover one interval each and report at most
      five hot objects.  The registry is the one
      the server counts wire requests in ([served.requests]) and hands
      to the engine's recorder — frames rank hot objects by the
      interval delta of its [runtime.refused.<obj>] counters, which
      the runtime maintains whenever the recorder is enabled.  The hub
      also registers cumulative twins there so [--prom] exports see
      totals: [served.latency_us], one [served.stage.<name>_us] per
      stage (the seven canonical {!Nt_obs.Stage.stages} and the
      durability {!Nt_obs.Stage.wal_stages} are pre-registered),
      [served.gc.pause_us] and the [served.gc.pct]
      gauge.  The first interval starts at time 0, the server's
      monotonic origin. *)

  val observe_latency : t -> int -> unit
  (** Record one submit-to-completion latency (µs) into both the
      interval and the cumulative registry histogram. *)

  val observe_stage : t -> string -> int -> unit
  (** [observe_stage t stage us] records one stage duration (µs) into
      the stage's interval and cumulative histograms (get-or-create;
      new stage names join frames after the canonical seven). *)

  val observe_gc : t -> dur_us:int -> unit
  (** Record one completed GC pause: feeds the [gc.pause] histograms
      and accrues the open interval's %time-in-GC ([gc_pct] in the
      frame, the [served.gc.pct] gauge at {!cut}). *)

  val seq : t -> int
  (** Frames built so far. *)

  val interval_s : t -> float

  (** {2 Frames}

      A frame differences cumulative engine readings against the
      previous {!cut}.  The caller reads them into an {!Engine.stats}:
      a single engine's {!Engine.stats}, a shard cluster's per-shard
      snapshots summed with {!Engine.sum_stats} — above one shard each
      engine lives on its own domain, so the hub never touches an
      engine itself. *)

  val peek :
    ?per_shard:Wire.shard_row list ->
    t ->
    counts:Engine.stats ->
    alarms:int ->
    conns:int ->
    subscribers:int ->
    now:float ->
    Wire.telemetry
  (** Build a frame for the {e open} (partial) interval without
      closing it — what a fresh subscriber gets immediately.  [alarms]
      is the server's actionable-alarm count (backend-dependent, so
      the caller supplies it); [per_shard] (default none) is copied
      into the frame.  Increments {!seq}. *)

  val cut :
    ?per_shard:Wire.shard_row list ->
    t ->
    counts:Engine.stats ->
    alarms:int ->
    conns:int ->
    subscribers:int ->
    now:float ->
    Wire.telemetry
  (** {!peek}, then close the interval: remember [counts] as the new
      baseline, copy the registry and reset the interval histograms.
      Call once per telemetry interval. *)
end

module Audit : sig
  type t

  val open_file : string -> t
  val entries : t -> int

  val veto :
    t ->
    now:float ->
    req:string option ->
    client:string ->
    txn:Txn_id.t ->
    latency_us:int ->
    Admission.veto ->
    unit
  (** One JSONL entry: [ev:"veto"] with the vetoed node, the cycle as
      a transaction list, and the multi-line witness chain from
      [explain_cycle]. *)

  val slow :
    t ->
    now:float ->
    req:string option ->
    client:string ->
    txn:Txn_id.t ->
    latency_us:int ->
    outcome:string ->
    unit

  val close : t -> unit
end
