(** The generic system runtime (Section 5.1).

    Composes the transaction interpreters, the generic objects of a
    chosen protocol, and the generic controller, and interleaves their
    enabled actions under a seeded scheduling policy.  The controller is
    permissive, as in the paper: it creates any requested transaction,
    commits anything that requested commit, may abort anything requested
    and incomplete (used for fault injection and deadlock victims),
    reports completions to parents, and informs objects of completions
    — in any order the policy picks.

    Two policies:
    {ul
    {- [Random_step]: one uniformly random enabled action per step —
       maximal interleaving nondeterminism, ideal for model-checking
       style testing;}
    {- [Bsp_rounds]: each round sweeps all currently enabled actions
       (re-checking enabledness as it fires them).  Rounds approximate
       parallel time: the serial scheduler does one action per round,
       so round counts compare concurrency across protocols.}}

    Each step looks only at what can move, and the runtime keeps only
    what can still move.  Its state is three ready sets, updated on
    status transitions: the transactions requested and not yet
    reported, the interpreters that have not requested commit, and the
    informs not yet delivered.  There is no index of past transactions:
    a top-level transaction is reachable through a per-top slot from
    its [REQUEST_CREATE] to its report, and afterwards only through the
    summary [T0]'s interpreter keeps of it; a reported transaction
    whose informs were delivered is unreachable.  Two restrictions
    keep the ready sets small, and every behaviour they allow is still
    one of the generic system:
    {ul
    {- A completion of [T] is informed only to the objects of [T]'s own
       subprogram ({!Nt_serial.Program.objects}), not to every object.
       No other object holds anything of [T]'s subtree, and the
       controller may inform any object but never has to.}
    {- An access its object refused is parked, not retried: it is not
       a candidate again until that object's next [create], successful
       [try_respond] or inform (the wake-up contract on
       {!Nt_gobj.Gobj.t}).  Until then asking again could only repeat
       the refusal.}}

    When nothing can fire and blocked (parked) accesses remain, the
    runtime declares deadlock and aborts one of them, preferring one on
    a waits-for cycle (a move the permissive controller allows), so
    executions always terminate. *)

open Nt_base
open Nt_spec
open Nt_serial
open Nt_obs

type policy = Random_step | Bsp_rounds

type inform_policy =
  | Eager  (** Informs compete with every other action (default). *)
  | Lazy
      (** Informs are delivered only when nothing else can move —
          maximal recovery-information latency, an ablation knob for
          how hard each protocol leans on [INFORM_COMMIT]s
          (Experiment E12). *)

type stats = {
  actions : int;  (** Events emitted (= trace length). *)
  rounds : int;  (** Rounds (Bsp) or steps (Random). *)
  blocked_attempts : int;  (** [try_respond] refusals. *)
  deadlock_aborts : int;  (** Victim aborts after a global stall. *)
  deadlock_cycles : int;
      (** How many victims sat on a genuine waits-for cycle (the rest
          were starved by permanent constraints). *)
  injected_aborts : int;  (** Fault-injection aborts. *)
  truncated : bool;  (** Hit [max_steps] before quiescence. *)
}

type result = {
  trace : Trace.t;
  stats : stats;
  committed_top : int;  (** Top-level transactions that committed. *)
  aborted_top : int;  (** Top-level transactions that aborted. *)
}

(** {2 Open-loop stepping}

    The closed-loop {!run} below is a [make]/[step]-to-quiescence/
    [finish] loop; the pieces are exposed so a server can interleave
    scheduling with arrivals: top-level programs submitted while the
    automaton runs are attached as new children of [T0]
    ({!Txn_interp.append_child}) and stepped under the same policies.
    [`Quiescent] is not termination in that setting — it means nothing
    is enabled {e until the next arrival}. *)

type t
(** A running simulation (mutable). *)

val make :
  ?policy:policy ->
  ?inform_policy:inform_policy ->
  ?abort_prob:float ->
  ?top_comb:Program.comb ->
  ?max_steps:int ->
  ?obs:Obs.t ->
  ?on_action:(Action.t -> unit) ->
  ?commit_gate:(Txn_id.t -> bool) ->
  seed:int ->
  Schema.t ->
  Nt_gobj.Gobj.factory ->
  Program.t list ->
  t
(** Build a simulation over an initial (possibly empty) forest.
    Parameters shared with {!run} mean the same thing.

    [on_action] is invoked at every emitted action, in trace order and
    synchronously within the step that emits it — so a [commit_gate]
    consulted later in the same step observes state that is exactly
    current (the open-loop engine feeds the online {!Nt_sg.Monitor}
    here).

    [commit_gate t] is consulted when the controller is about to
    perform [COMMIT t] for a top-level [t], once per attempt; inner
    commits never consult it.  Returning [false] vetoes the commit and
    aborts [t] instead (cause [abort.cause.admission]) — a move the
    fully permissive controller allows, so gated executions are still
    behaviors of the generic system. *)

val add_top : t -> Program.t -> Txn_id.t
(** Attach a new top-level program as the next child of [T0] and
    return its name.  The transaction starts unrequested; the
    controller requests and creates it in subsequent {!step}s. *)

val step : t -> [ `Progress | `Quiescent | `Truncated ]
(** One scheduling step (one candidate under [Random_step]; one sweep
    under [Bsp_rounds]).  [`Progress]: an action fired (possibly a
    deadlock-breaking abort).  [`Quiescent]: nothing enabled.
    [`Truncated]: the step budget is exhausted. *)

val abort_txn : t -> Txn_id.t -> bool
(** Abort a top-level transaction from outside the scheduler, if the
    permissive controller currently may (requested and incomplete):
    emits [ABORT], records it as an orphan abort (the serving-time
    "client vanished" cause) and queues the informs to its footprint.
    Returns [false] if the transaction is unknown, not yet requested,
    or complete.  Raises [Invalid_argument] for a name that is not a
    child of [T0]. *)

val top_state :
  t -> Txn_id.t -> [ `Unknown | `Running | `Committed of Value.t | `Aborted ]
(** The fate of a top-level transaction as far as the controller
    knows: [`Running] from its [REQUEST_CREATE] until its [COMMIT] or
    [ABORT], then [`Committed v] or [`Aborted] (before and after its
    report alike).  [`Unknown] covers a child attached by {!add_top}
    whose [REQUEST_CREATE] has not fired yet, and indices never
    attached.  Raises [Invalid_argument] for a name that is not a child
    of [T0]. *)

val committed_top : t -> int
val aborted_top : t -> int
(** Top-level transactions committed / aborted so far.  Each is counted
    before its [COMMIT]/[ABORT] reaches [on_action], so a reading taken
    inside that hook includes it. *)

val actions_so_far : t -> int
val steps_so_far : t -> int

val orphan_aborts : t -> int
(** {!abort_txn} aborts so far. *)

val finish : t -> result
(** Settle telemetry and package the trace and statistics.  Call once,
    after the last {!step}. *)

val run :
  ?policy:policy ->
  ?inform_policy:inform_policy ->
  ?abort_prob:float ->
  ?top_comb:Program.comb ->
  ?max_steps:int ->
  ?obs:Obs.t ->
  seed:int ->
  Schema.t ->
  Nt_gobj.Gobj.factory ->
  Program.t list ->
  result
(** Execute the top-level forest to quiescence.  [abort_prob] is the
    per-step probability of aborting a random live transaction
    (default 0).  [top_comb] is how [T0] issues its children (default
    [Par] — full top-level concurrency).  Defaults: [Random_step]
    policy, [max_steps = 1_000_000].

    [obs] (default {!Nt_obs.Obs.null}) receives the full telemetry of
    the run: a span per transaction ([Create] to [Commit]/[Abort]),
    instants for refused accesses, deadlock victims and injected
    aborts, and the [runtime.*]/[txn.*] metrics (rounds, blocked
    attempts and streaks, commit latency in rounds and in ticks).  A
    refusal is counted each time a woken access is refused again. *)
