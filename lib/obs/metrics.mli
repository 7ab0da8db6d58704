(** A registry of named counters, gauges and log-scale histograms.

    Instruments are created (or retrieved) by name; callers on hot
    paths should resolve an instrument once and keep it, after which
    every update is a couple of field mutations — no hashing, no
    allocation.  Histograms bucket observations by powers of two
    (64 buckets cover the non-negative integers), which is exact
    enough for latencies-in-rounds and streak lengths while keeping
    observation O(1) and the registry bounded.

    The registry renders as a fixed-width table ({!pp}) or as JSON
    ({!to_json}), the machine-readable form the benchmark harness and
    the CLI dump. *)

type t
(** A registry.  Mutable; not thread-safe. *)

type counter = { mutable c : int }
(** Concrete so that the one-instruction increment inlines into hot
    paths even without flambda; treat as opaque outside them and use
    {!incr}/{!counter_value}. *)

type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Get or create.  Raises [Invalid_argument] if the name is already
    registered as a different kind of instrument. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : ?by:int -> counter -> unit
val counter_value : counter -> int

val counters : t -> (string * int) list
(** Every registered counter as [(name, value)], sorted by name —
    for consumers that aggregate families of related counters (e.g.
    the per-object [runtime.refused.*] family behind the telemetry
    hub's hot-object ranking). *)

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> int -> unit
(** Record a non-negative observation (negative values clamp to 0). *)

type hstats = {
  count : int;
  sum : int;
  min : int;  (** Exact raw minimum observed (0 when empty). *)
  max : int;  (** Exact raw maximum observed (0 when empty). *)
  p50 : int;
      (** Quantiles are bucket-upper-bound approximations: the largest
          value the crossing bucket can hold ([2^i - 1]), clamped to
          the exact raw [max] — so a quantile never exceeds anything
          actually observed, and a single-observation histogram
          reports that observation exactly. *)
  p99 : int;
  p999 : int;
}

val histogram_stats : histogram -> hstats

val histogram_buckets : histogram -> (int * int) list
(** The non-empty power-of-two buckets as [(index, count)] pairs in
    ascending index order: bucket [0] holds observations [<= 0],
    bucket [i > 0] holds [2^(i-1) <= v < 2^i].  The raw shape behind
    {!histogram_stats}, exported so artifacts survive re-bucketing. *)

val bucket_of : int -> int
(** The bucket an observation lands in: [0] for [v <= 0], else
    [1 + floor (log2 v)], capped at the last bucket. *)

val quantile : int array -> count:int -> max:int -> float -> int
(** [quantile buckets ~count ~max q] over per-bucket counts (index as
    {!bucket_of}): the convention of {!histogram_stats}, for bucket
    arrays merged elsewhere (wire frames). *)

val bucket_lower : int -> int
(** Smallest value bucket [i] can hold ([0] for bucket 0). *)

val bucket_upper : int -> int
(** Largest value bucket [i] can hold ([0] for bucket 0). *)

val is_empty : t -> bool
(** No instrument registered (not merely all-zero). *)

val reset : t -> unit
(** Zero every instrument, keeping registrations. *)

val merge : t -> t -> unit
(** [merge dst src] folds [src] into [dst]: counters add, gauges take
    the source's value, histograms merge exactly (per-bucket sums, so
    merged quantiles equal the quantiles of the combined stream).
    [src] is unchanged.  Raises [Invalid_argument] if a name is
    registered with different instrument kinds in the two registries.
    This is how [ntprof] combines registries across trace files. *)

val copy : t -> t
(** A deep, independent copy — the frozen reading {!diff} subtracts
    (the telemetry hub keeps one per frame interval). *)

val diff : cur:t -> prev:t -> t
(** [diff ~cur ~prev] is a fresh registry holding the per-interval
    delta of two cumulative readings of the {e same} instruments
    ([prev] an earlier {!copy} of [cur]'s registry): counters and
    histogram buckets/count/sum subtract exactly, gauges take [cur]'s
    value.  A delta histogram's min/max are exact when the interval
    moved the cumulative extreme and bucket-bound approximations
    otherwise (clamped into the cumulative range).  Instruments absent
    from [prev] are treated as zero; raises [Invalid_argument] on kind
    mismatches. *)

val pp : Format.formatter -> t -> unit
(** All instruments, sorted by name, one per line. *)

val to_json : t -> Json.t
(** [{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
    min,max,p50,p99},...}}]. *)

val pp_prometheus : Format.formatter -> t -> unit
(** Prometheus text exposition: counters and gauges as themselves,
    histograms as summaries with 0.5/0.99 quantile lines plus
    [_sum]/[_count].  Names are sanitized to the Prometheus charset
    (every other character becomes ['_']). *)
