(** Telemetry events.

    The span model: every transaction is a span, opened by its
    [CREATE] and closed by its [COMMIT]/[ABORT], nested by
    {!Nt_base.Txn_id.parent} — accesses are transactions, so object
    activity gets spans for free.  Everything else (refused accesses,
    deadlock victims, monitor alarms) is an {!constructor:
    Instant}, and {!constructor:Counter} carries sampled time series
    (e.g. cumulative SG edges) for timeline viewers.

    Timestamps are logical ticks — one tick per executed action — so
    an exported timeline is a deterministic function of the trace, not
    of wall-clock noise. *)

open Nt_base

type outcome = Committed | Aborted

type t =
  | Begin of { txn : Txn_id.t; ts : int }
      (** The transaction's [CREATE] fired at tick [ts]. *)
  | End of { txn : Txn_id.t; ts : int; outcome : outcome; dur : int }
      (** Completion; [dur] is ticks since the matching [Begin] (0 if
          the begin was never seen, e.g. on a partial replay). *)
  | Instant of {
      name : string;
      ts : int;
      txn : Txn_id.t option;
      obj : Obj_id.t option;
    }
  | Counter of { name : string; ts : int; value : int }
  | Wait of {
      txn : Txn_id.t;
      obj : Obj_id.t;
      holders : (Txn_id.t * string) list;
      ts : int;
      waited : int;
    }
      (** [txn]'s access to [obj] was refused at tick [ts] because of
          the non-ancestral lock [holders] (each tagged with the kind
          of lock held, e.g. ["write"]); [waited] is the ticks since
          the start of the current blocked streak.  Lock kinds are
          strings because the event layer cannot see protocol types —
          producers pass whatever vocabulary their lock table uses. *)
  | Edge of {
      src : Txn_id.t;
      dst : Txn_id.t;
      kind : string;
      obj : Obj_id.t option;
      w1 : Txn_id.t;
      w1_ts : int;
      w2 : Txn_id.t;
      w2_ts : int;
      ts : int;
    }
      (** The monitor inserted SG edge [src -> dst] (children of their
          lca) at feed index [ts].  [kind] is ["conflict"] or
          ["precedes"]; [obj] is the conflicting object for conflict
          edges.  [w1]/[w2] are the witnessing actions (the accesses,
          or for precedes edges the reporting/created transactions)
          with their own feed indices — the provenance that lets a
          profiler name the accesses behind a cycle. *)

val ts : t -> int
val outcome_string : outcome -> string

val to_json : t -> Json.t
(** The JSONL line shape: [{"ev":"begin","txn":"0.1","ts":3}],
    [{"ev":"end","txn":"0.1","ts":9,"outcome":"commit","dur":6}],
    [{"ev":"instant","name":...}], [{"ev":"counter",...}],
    [{"ev":"wait","txn":...,"obj":...,"holders":[...],...}],
    [{"ev":"edge","src":...,"dst":...,"kind":...,...}]. *)

val of_json : Json.t -> (t, string) result
(** Inverse of {!to_json}, for trace consumers ([ntprof]).  Unknown
    ["ev"] tags and missing/ill-typed fields are errors (so a corrupt
    line is reported, not silently dropped). *)

val pp : Format.formatter -> t -> unit
