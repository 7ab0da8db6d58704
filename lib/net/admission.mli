(** Online serialization-graph admission control.

    Wraps the incremental {!Nt_sg.Monitor}: {!on_action} feeds it every
    emitted action (wired through [Runtime.make ~on_action], so the
    monitor is exactly current at every point of the step), and {!gate}
    is the [Runtime] commit gate — it computes the commit's prospective
    edges ({!Nt_sg.Monitor.prospective_commit_edges}) once, asks
    {!Nt_sg.Monitor.edges_would_cycle} whether inserting them would
    close an SG cycle, and vetoes it if so, recording a witness
    ({!Nt_sg.Monitor.explain_cycle}) keyed by the vetoed top so the
    server can report {e why} a submission aborted.  The prospective
    set is the edges of the commit's own walk, which the [Commit] fed
    right after applies, so the gate judges exactly the edges the
    commit then inserts.

    Soundness: in this construction only a top-level [Commit] can
    close a cycle (see the Admission-speculation section of
    {!Nt_sg.Monitor}): queued work becomes visible when its top-level
    ancestor commits, so an inner commit inserts no edge, and gating
    every top-level commit keeps the graph acyclic with zero false
    negatives — a gated server never raises a [Cycle] alarm.  With
    [gating:false] the monitor still runs (telemetry and alarms), but
    nothing is vetoed. *)

open Nt_base
open Nt_spec
open Nt_sg
open Nt_obs

type t

type veto = {
  node : Txn_id.t;  (** The transaction whose commit was vetoed. *)
  cycle : Txn_id.t list;  (** The cycle it would have closed. *)
  witness : string;  (** Edge-by-edge explanation. *)
}

type upper = {
  gate : Txn_id.t -> Monitor.prospective -> (Txn_id.t list * string) option;
      (** Consulted by {!gate} only after the local verdict admits,
          with the same unfiltered prospective set: [Some (cycle,
          witness)] vetoes. *)
  hold : Txn_id.t -> bool;
      (** The monitor's hold ({!Nt_sg.Monitor.create}): the tops the
          upper gate may still need local edges at. *)
}
(** The upper level of a two-level gate (the cross-shard spine, see
    [Nt_shard]). *)

val create : ?obs:Obs.t -> ?gating:bool -> ?upper:upper -> Schema.t -> t
(** Fresh controller over a fresh monitor ([gating] defaults to
    [true]; [obs] receives the monitor telemetry plus an
    [admission.vetoed] counter).  Without [upper] the monitor holds no
    top and {!gate} is the local verdict alone. *)

val on_action : t -> Action.t -> unit
(** Feed one action to the monitor (alarms are absorbed into
    {!alarms}; under gating none should ever fire). *)

val gate : t -> Txn_id.t -> bool
(** The commit gate of a top-level transaction: [false] vetoes.  The
    local verdict comes first; only a commit it admits reaches the
    {!upper} gate, if any.  Either veto bumps {!vetoed}, stores the
    witness under the top and emits the [admission.vetoed] counter, so
    both report through {!veto_of} alike. *)

val veto_of : t -> Txn_id.t -> veto option
(** The recorded veto of this top-level transaction, if its abort was
    an admission veto. *)

val monitor : t -> Monitor.t
val gating : t -> bool
val vetoed : t -> int
val alarms : t -> int
(** Monitor alarms so far (cycle + inappropriate); always [0] under
    gating unless the backend is broken in a non-cycle way. *)

val cycle_alarms : t -> int
(** Cycle alarms alone — [0] under gating for {e any} backend.
    (A multiversion backend legitimately trips [Inappropriate]: its
    reads serialize by pseudotime, not by the completion order the
    monitor replays — so judge it on cycles only.) *)
