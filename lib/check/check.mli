(** Property-based differential checking of concurrency-control
    backends against the paper's theorems.

    The paper's central claim (Theorem 8 / Theorem 19) is an oracle:
    a behavior whose serialization graph is acyclic and whose return
    values are appropriate is serially correct.  This module turns
    every object implementation in the repository into a continuously
    fuzzed subject of that oracle.  One {e run}:

    + generates a random {!scenario} — a program forest over a
      weighted action grammar ({!Nt_workload.Gen.weighted} and
      friends), plus an adversarial interleaving configuration
      (scheduling policy, inform latency, fault-injection rate) —
      from a {e splittable} {!Nt_base.Rng}, so the whole scenario is
      a pure function of one integer seed;
    + executes it under the chosen {!backend};
    + judges the resulting behavior with four oracles, in order:
      well-formedness ({!Nt_serial.Simple_db}), appropriate return
      values ({!Nt_sg.Return_values}), SG acyclicity / serial
      correctness ({!Nt_sg.Checker}, or Theorem 2 with the pseudotime
      order for the multiversion backend), and {e differential
      agreement}: every committed top-level transaction's reported
      value, and every final object state, must equal what the serial
      reference executor produces when replaying the committed part
      of the forest in the checker's witness order.

    Failures carry the complete scenario, so {!Nt_check.Shrink} can
    minimize them and {!Nt_check.Bundle} can persist them for exact
    replay. *)

open Nt_base
open Nt_spec
open Nt_serial
open Nt_generic

(** {1 Backends} *)

type backend =
  | Moss  (** Read/write locking (Section 5.2); register workloads. *)
  | Commlock  (** Commutativity-based locking. *)
  | Undo  (** Undo logging (Section 7). *)
  | Mvts  (** Multiversion timestamps; register workloads, judged by
              the {!Nt_sg.Essn} refined criterion (pseudotime or
              completion-witness certification). *)
  | Replication
      (** Quorum replication (3 replicas, 2/2 quorums) of a logical
          register forest, physically run under undo logging; adds the
          one-copy oracle. *)
  | No_control  (** {!Nt_gobj.Broken.no_control} — negative control. *)
  | Unsafe_read  (** {!Nt_gobj.Broken.unsafe_read} — negative control. *)
  | No_undo  (** {!Nt_gobj.Broken.no_undo} — negative control. *)
  | Causal_only
      (** {!Nt_gobj.Broken.causal_only} — weak-isolation adversary:
          reads lag the committed-write log by one session access. *)
  | Prefix_consistent
      (** {!Nt_gobj.Broken.prefix_consistent} — weak-isolation
          adversary: a session's read prefix advances only on its own
          writes. *)
  | Snapshot_read
      (** {!Nt_gobj.Broken.snapshot_read} — weak-isolation adversary:
          frozen per-session snapshots, unvalidated writes
          (write-skew-capable). *)

val backend_name : backend -> string
val backend_of_name : string -> backend option

val correct_backends : backend list
(** The five verified backends, expected to never fail an oracle. *)

val broken_backends : backend list
(** The fault-injection subjects the checker must catch: the three
    crude negative controls plus the three weak-isolation session
    stores. *)

val all_backends : backend list
(** [correct_backends @ broken_backends]. *)

val backend_names : string list
(** Every valid [--backend] name, in {!all_backends} order — the
    single source CLI error messages must quote. *)

val unknown_backend_message : string -> string
(** The diagnostic for an unrecognized backend name, listing every
    valid name (kept in sync with {!backend_names} by construction). *)

val rw_only : backend -> bool
(** Backends restricted to read/write (register) schemas. *)

val factory_of : backend -> Nt_gobj.Gobj.factory
(** The generic-object factory physically running the backend
    ([Replication] runs under undo logging). *)

(** {1 Scenarios} *)

type scenario = {
  forest : Program.t list;
  objects : (Obj_id.t * Datatype.t) list;
  sched_seed : int;  (** Seed of the runtime's interleaving RNG. *)
  policy : Runtime.policy;
  inform_policy : Runtime.inform_policy;
  abort_prob : float;
  family : string option;
      (** The workload family (grammar name) the forest was drawn
          from, recorded in bundle headers; [None] for hand-built
          scenarios. *)
}
(** Everything needed to reproduce one execution exactly (together
    with the backend). *)

val schema_of_scenario : scenario -> Schema.t

type grammar = Rw | Counters | Mixed | Weighted | Smallbank

val grammar_name : grammar -> string
val grammar_of_name : string -> grammar option

val grammar_allowed : backend -> grammar -> bool
(** Whether the backend's objects can run programs from the grammar:
    [Rw] and [Smallbank] are register-encoded and pass everywhere;
    [Counters]/[Mixed]/[Weighted] draw non-register datatypes, which
    the {!rw_only} backends cannot run.  Front ends should refuse the
    combination up front (see {!grammar_conflict_message}) rather than
    let {!gen_scenario} silently coerce a pinned grammar to [Rw]. *)

val grammar_conflict_message : backend -> grammar -> string
(** Diagnostic for a [grammar_allowed b g = false] pair, naming the
    register-only backends and the grammars they do admit. *)

type shape = Default | Lock_heavy | Deep_nesting | Abort_storm

val gen_scenario :
  ?grammar:grammar -> ?shape:shape -> backend -> Rng.t -> scenario
(** Draw a scenario from the RNG.  When [grammar]/[shape] are omitted
    they are themselves drawn from the RNG (sweeping the adversarial
    presets).  Backends that only support read/write schemas ([Moss],
    [Mvts], [Replication], [Unsafe_read] and the weak-isolation
    stores) force [Rw] — except [Smallbank], which is register-only
    and so admitted everywhere when pinned explicitly. *)

(** {1 Oracles} *)

type failure =
  | Ill_formed of string  (** The behavior violates well-formedness. *)
  | Inappropriate of Obj_id.t
      (** Some object's visible return values fail to replay. *)
  | Sg_cycle of Txn_id.t list
      (** The serialization graph of the behavior is cyclic. *)
  | Not_correct of string
      (** Serial correctness failed beyond the two named hypotheses
          (suitability or view replay of the witness order, or a
          Theorem 2 failure for [Mvts]). *)
  | Differential of string
      (** Committed top-level results or final states disagree with
          the ordered serial reference execution. *)
  | One_copy of string  (** Replication's one-copy condition failed. *)
  | Durability of string
      (** Crash recovery failed: a damaged log was not diagnosed
          correctly, replay did not reproduce an audited outcome
          (prefix closure), or a snapshot disagreed with the log. *)
  | Essn_rejected of string
      (** The {!Nt_sg.Essn} refined criterion rejected a multiversion
          behavior: neither the pseudotime order nor the completion
          witness certifies it (message carries the per-candidate
          failures and the anomaly classification). *)
  | Retirement of string
      (** A monitor retiring settled tops reported something a monitor
          keeping the whole history did not (see
          {!retirement_agreement}). *)

val failure_tag : failure -> string
(** A short stable tag (["sg-cycle"], ["returns"], ["differential"],
    ...) used in metrics names and bundle headers. *)

val pp_failure : Format.formatter -> failure -> unit

type outcome = {
  trace : Trace.t;
  truncated : bool;  (** Run hit [max_steps]; oracles were skipped. *)
  failure : failure option;
}

type retirement_agreement = {
  ra_vetoes : int;  (** Top-level commits both gates vetoed. *)
  ra_alarms : int;  (** Alarms both monitors raised. *)
  ra_retired : int;  (** Nodes the retiring monitor dropped by the end. *)
}

val retirement_agreement :
  Schema.t -> Trace.t -> (retirement_agreement, string) result
(** The retirement oracle: feed the trace in lockstep to a default
    {!Nt_sg.Monitor} (which retires settled tops) and to one created
    with [~hold:(fun _ -> true)], speculating each top-level [Commit] on
    both first as the commit gate does.  [Error] names the first event
    where they part: different alarms, different gate verdicts or
    [explain_cycle ~extra] text, a retiring graph that is not the
    keeping one's subgraph induced on its nodes (edge labels and
    maintained order included), or an open top's node retired.
    {!run_scenario} runs it on every well-formed trace. *)

val replication_config : Nt_replication.Replication.config
(** The quorum configuration the [Replication] backend runs under
    (3 replicas, 2/2 intersecting quorums) — exposed so tools can
    rebuild the physical schema of a replicated scenario. *)

val run_scenario :
  ?obs:Nt_obs.Obs.t -> ?max_steps:int -> backend -> scenario -> outcome
(** Execute and judge one scenario.  Fully deterministic: the same
    (backend, scenario) pair always yields the same outcome.
    [max_steps] defaults to 200_000.  Every trace the first oracle
    finds well-formed also goes through {!retirement_agreement}, whose
    [Error] is reported as {!Retirement} in place of the other
    oracles' verdict. *)

(** {1 Serving harness}

    The oracles above, pointed at the open-loop serving engine
    ({!Nt_net.Engine}) instead of the closed-loop runtime: the
    scenario's forest arrives as a stream of submissions interleaved
    with scheduling steps, a fraction of clients "disconnect"
    mid-transaction (their transactions are orphan-killed, as
    [ntserved] does on a dropped connection), and the admission
    controller gates commits online.  The final trace is judged by the
    same four oracles — served executions are still generic-system
    behaviors, so everything proved about [run_scenario] outcomes
    applies.

    {!record} serves one engine behind a write-ahead log and
    {!serve_sharded} a shard ensemble; one schedule drives both.
    [seed] fixes the arrival interleaving and the disconnect injection
    ([drop_prob], default [0.] — per-submission probability of a
    mid-flight disconnect); the scenario's [sched_seed] drives the
    runtime exactly as in {!run_scenario}.  Same arguments, same
    result.  [Replication] scenarios are physically transformed up
    front and served as physical programs (judged as [Undo], plus
    one-copy when no abort interfered). *)

type serve_report = {
  s_trace : Trace.t;
  s_submitted : int;
  s_committed : int;  (** Top-level commits. *)
  s_aborted : int;  (** Top-level aborts (all causes). *)
  s_vetoed : int;  (** Admission vetoes. *)
  s_dropped : int;  (** Simulated disconnects that orphaned a txn. *)
  s_orphans : int;  (** Orphan aborts actually performed. *)
  s_alarms : int;  (** Monitor alarms — [0] for correct backends. *)
  s_cycle_alarms : int;
      (** Cycle alarms specifically — [0] whenever admission gating is
          on, for {e any} backend (the zero-false-negative claim). *)
  s_truncated : bool;
  s_failure : failure option;
}

type recorded = {
  rc_wal : string;  (** The complete log image (header included). *)
  rc_offsets : int list;  (** Frame offset of every record. *)
  rc_snapshot : string option;
      (** Encoded snapshot, when [snapshot_at] fired mid-run. *)
  rc_report : serve_report;
  rc_closure_len : int;
      (** Final length of the incrementally-maintained in-memory
          replay closure ({!Nt_net.Wal.Closure}) — bounded by
          [2 * (submits + kills) + 1] however long the run, which is
          what keeps a live server's between-snapshot memory flat. *)
}

val record :
  ?max_steps:int ->
  ?drop_prob:float ->
  ?snapshot_at:int ->
  seed:int ->
  backend ->
  scenario ->
  recorded
(** Serve the scenario through a one-shard {!Nt_shard.Cluster} — the
    one-shard case of {!serve_sharded}'s harness, whose drive then
    draws no shard index — logging through the server's own
    {!Nt_shard.Durable.Session} into memory
    (unsynced: a buffer sink has nothing to make durable) — every
    submission, orphan kill and coalesced step count, with the
    commit-gate outcome of every completed top-level transaction
    appended {e after} the step record that produced it, so each
    intact log prefix reproduces exactly the state its audit records
    claim.  [snapshot_at] takes one snapshot once that many records
    have been appended. *)

type sharded_report = {
  sh_report : serve_report;
      (** The merged run: summed alarms and orphan counts, merged
          top-level commit/abort counts, and the merged trace. *)
  sh_shards : int;
  sh_cross : int;  (** Submissions split across shards. *)
  sh_local : int;  (** Submissions dispatched whole to one shard. *)
  sh_spine_checks : int;  (** Cross-shard gate decisions taken. *)
  sh_spine_vetoes : int;  (** Commits vetoed by the cross-shard gate. *)
  sh_spine_edges : int;  (** Shipped conflict edges installed. *)
}

val serve_sharded :
  ?max_steps:int ->
  ?drop_prob:float ->
  ?gating:bool ->
  shards:int ->
  seed:int ->
  backend ->
  scenario ->
  sharded_report
(** Serve the scenario through a [shards]-way {!Nt_shard.Cluster} —
    one {!Nt_net.Engine} per shard behind a {!Nt_shard.Router},
    cross-shard commits gated by the {!Nt_shard.Spine} — stepping one
    shard at a time, chosen by the [seed]'s generator; shard [s]'s
    engine runs on [sched_seed + s * 1000003].  The merged history
    (stamp-sorted union of the shards' traces plus the router's
    synthetic cross-program nodes) is judged offline, which is the
    differential claim of [doc/sharding.mld]: for the verified
    backends the sharded gate must fail exactly when the single-engine
    gate does, at failure-tag granularity.  [Replication] replicas are
    co-sharded by the default partition key; the one-copy oracle runs
    only when every replicated program stayed single-shard (a split
    program's merged node is a [Par] of pieces, outside the plan's
    position map).  [gating:false] disables both the local and the
    cross-shard commit gates — the negative-control configuration whose
    admitted cross-shard cycles the SG oracle must catch. *)

(** {1 Durability: crash injection}

    {!crash} simulates a [kill -9] at every boundary of a {!record}ed
    log (plus torn and bit-flipped variants) and proves each recovery
    through the server's own {!Nt_net.Wal.Recovery.plan} and
    {!Nt_shard.Durable} into a fresh one-shard cluster: the plan
    diagnoses the damage, the intact prefix replays in small turns,
    every audited outcome is reproduced, and the resumed run still
    passes all four oracles. *)

type crash_report = {
  c_boundaries : int;  (** Record boundaries in the log. *)
  c_recoveries : int;  (** Damaged images recovered and judged. *)
  c_outcomes_checked : int;  (** Audited outcomes verified in total. *)
  c_snapshot_recoveries : int;
  c_trace : Trace.t;  (** The pre-crash run's behavior. *)
  c_failure : (string * failure) option;
      (** First failing kill point: (description, failure). *)
}

val crash_seed_of : scenario -> int
(** The serving seed {!crash} derives from a scenario when none is
    given — a pure function of [sched_seed], so a crash failure is
    replayable from the scenario alone (bundles need no extra
    state). *)

val crash :
  ?max_steps:int ->
  ?drop_prob:float ->
  ?snapshot_at:int ->
  ?seed:int ->
  backend ->
  scenario ->
  crash_report
(** Record one serve run ([drop_prob] defaults to [0.15] so orphan
    kills appear in the log), then sweep simulated crashes: a clean
    cut at {e every} record boundary, a torn cut inside every record,
    a bit flip inside every third record, a cut before and inside the
    file header — each followed by a full recovery (scan, replay,
    prefix-closure outcome check, drain, four oracles).  When a
    snapshot was taken, also recovers snapshot + tail, demands it
    agree with the full-log replay, and verifies a corrupted snapshot
    is rejected.  Stops at the first failing kill point.
    Deterministic from [(backend, scenario, seed)]. *)

val crash_outcome : crash_report -> outcome
(** The report folded into the common {!outcome} shape (kill-point
    description folded into a {!Durability} failure), so shrinking and
    bundle tooling treat crash failures like any other. *)

(** {1 SG oracle equivalence} *)

type sg_agreement = {
  checker_acyclic : bool;
      (** The batch checker's verdict: O(1) acyclicity of
          {!Nt_sg.Sg.build} via the incremental detector. *)
  monitor_acyclic : bool;
      (** The online monitor raised no cycle alarm over the trace. *)
  scratch_acyclic : bool;
      (** The pre-incremental reference:
          {!Nt_sg.Graph.find_cycle_scratch} over the built graph. *)
  cycle_alarms : int;  (** Monitor cycle alarms (deterministic). *)
  inappropriate_alarms : int;  (** Monitor return-value alarms. *)
}

val sg_agreement : Schema.t -> Trace.t -> sg_agreement
(** Decide SG acyclicity of one behavior three independent ways —
    incremental batch, incremental online, from-scratch DFS — for the
    differential oracle-equivalence tests and bench E21 (no ntcheck
    path calls it), all under [Operation_level] conflicts, the default of
    {!Nt_sg.Checker} and {!Nt_sg.Monitor}. *)

val sg_agrees : sg_agreement -> bool
(** All three verdicts coincide. *)

(** {1 Campaigns} *)

type report = {
  runs : int;  (** Runs executed (≤ requested when failing fast). *)
  passed : int;
  truncations : int;
  failures : (int * scenario * failure) list;
      (** [(run index, scenario, failure)], in discovery order. *)
}

val campaign :
  ?obs:Nt_obs.Obs.t ->
  ?max_steps:int ->
  ?grammar:grammar ->
  ?shape:shape ->
  ?stop_at_first:bool ->
  backend ->
  seed:int ->
  runs:int ->
  report
(** Run [runs] independent scenarios derived from [seed] by RNG
    splitting (run [i]'s generator does not depend on how earlier
    runs consumed entropy).  [stop_at_first] (default [true]) stops
    at the first oracle failure.  When [obs] is given, each run bumps
    [check.runs] and [check.pass] / [check.fail] (plus
    [check.fail.<tag>]) counters and failures emit a
    [check.fail.<tag>] instant event, so campaign telemetry flows
    through the usual {!Nt_obs} pipeline into [ntprof]. *)

val crash_campaign :
  ?obs:Nt_obs.Obs.t ->
  ?max_steps:int ->
  ?grammar:grammar ->
  ?shape:shape ->
  ?drop_prob:float ->
  ?snapshot_at:int ->
  ?stop_at_first:bool ->
  backend ->
  seed:int ->
  runs:int ->
  report
(** {!campaign} with {!crash} as the subject: each generated scenario
    is recorded, crash-swept at every log boundary and re-judged after
    every recovery ([snapshot_at] defaults to [8], so snapshot paths
    are exercised whenever runs grow long enough).  Counters use the
    [check.crash.*] prefix. *)
