(** Generic object automata (Section 5.1).

    A generic object is the component that carries out concurrency
    control and recovery for one object name: besides [Create] and
    [Request_commit] it receives [Inform_commit]/[Inform_abort] inputs
    reporting the fate of arbitrary transactions.  The runtime drives a
    generic object through this first-class interface; {!Nt_moss} and
    {!Nt_undo} provide the paper's two verified implementations, and
    {!Broken} provides deliberately incorrect ones used as negative
    controls for the serialization-graph checker.

    A [try_respond] returning [None] means the [Request_commit] output
    is not currently enabled (e.g. a lock conflict); the runtime asks
    again after the object's next move (see [try_respond]), and uses
    [waiting_on] to pick deadlock victims. *)

open Nt_base

type lock_kind = Read | Write | Update | Other of string
(** What a blocking holder holds, in a protocol-neutral vocabulary:
    Moss locks are [Read]/[Write], commutativity-locking log entries
    map operation kinds onto the same names, and protocols with richer
    modes can use [Other].  Used for wait-for diagnostics and the
    lock-wait telemetry. *)

val lock_kind_string : lock_kind -> string
(** ["read"], ["write"], ["update"], or the [Other] payload. *)

val lock_kind_of_op : Nt_spec.Datatype.op -> lock_kind
(** The lock kind a logged operation represents, for protocols whose
    "locks" are log entries: [Read]/[Write] for the register
    operations, [Other] with the operation's name for the rest. *)

type t = {
  obj : Obj_id.t;
  create : Txn_id.t -> unit;  (** The [CREATE(T)] input. *)
  inform_commit : Txn_id.t -> unit;  (** [INFORM_COMMIT_AT(X)OF(T)]. *)
  inform_abort : Txn_id.t -> unit;  (** [INFORM_ABORT_AT(X)OF(T)]. *)
  try_respond : Txn_id.t -> Value.t option;
      (** Fire [REQUEST_COMMIT(T, v)] if enabled, returning [v];
          [None] when the precondition fails.

          Wake-up contract: the answer for an access may change only
          after a [create], a successful [try_respond] or an inform at
          this same object.  The runtime relies on it: a refused access
          is parked and not asked again until one of those happens
          here.  Every factory in the repo satisfies it: each reads
          only its own object's state, and the weak stores of {!Broken},
          which share one store across objects, never refuse a created
          access. *)
  waiting_on : Txn_id.t -> (Txn_id.t * lock_kind) list;
      (** Diagnostic: the transactions whose locks / log entries
          currently block the given access, each tagged with the kind
          of lock held (empty when not blocked). *)
}

type factory = Nt_spec.Schema.t -> Obj_id.t -> t
(** A protocol: builds a fresh generic object for an object name. *)
