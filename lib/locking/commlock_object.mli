(** Commutativity-based locking: the general [M_X] of which [M1_X] is
    the read/write specialization (the paper's footnote 8; the modular
    locking framework of Fekete–Lynch–Merritt–Weihl).

    Where {!Nt_moss.Moss_object} keeps read/write lock sets and a value
    stack, [M_X] keeps a {e log of operations, each owned by a holder
    transaction}: responding to an access appends an entry owned by the
    access itself; an [INFORM_COMMIT] promotes a holder's entries to
    its parent (lock inheritance); an [INFORM_ABORT] discards every
    entry held by a descendant of the aborted transaction.

    An access [T] performing operation [op] may respond when [op]
    (paired with its replay response) commutes backward with every
    entry whose holder is {e not} an ancestor of [T] — the
    lock-conflict rule, with the lock modes induced by the data type's
    commutativity relation.  The response value is the replay of the
    whole log: entries held by non-ancestors commute with [op], so they
    cannot change its return value, and entries held by ancestors are
    exactly the versions [T] is entitled to observe (for registers this
    reduces to Moss' "value of the least write-lockholder").

    Like Moss' algorithm, the serialization order is the completion
    order, so behaviors are certified by the serialization-graph
    theorem (Theorem 19) — asserted in the tests, along with the fact
    that [M_X] strictly refines [M1_X] on registers (everything Moss
    admits, plus same-datum writes).

    {2 Base and live suffix}

    The log is kept as [base ⊕ log]: a state [base] (the type's
    initial state when [None]) that the log's longest prefix of entries
    held by [T0] was folded into, and the live suffix [log].  An entry
    reaches [T0] when its top-level ancestor's commit is informed; from
    then on it is inert: [T0] is an ancestor of every access, so the
    entry conflicts with none, and no inform rewrites or discards it.
    The informs fold after every change (an abort can expose a [T0]
    head), so responses and conflict scans cost the suffix, and
    [INFORM_COMMIT]'s promotion rewrites only the suffix. *)

open Nt_base
open Nt_spec

type entry = {
  holder : Txn_id.t;  (** Current lock owner (promoted on commits). *)
  op : Datatype.op;
  value : Value.t;
}

type state = {
  created : Txn_id.Set.t;
  commit_requested : Txn_id.Set.t;
  base : Value.t option;
      (** The folded [T0]-held prefix's final state; [None] is the data
          type's initial state. *)
  log : entry list;  (** The live suffix, response order, oldest first. *)
}

val initial : state
val create : state -> Txn_id.t -> state

val inform_commit : Datatype.t -> state -> Txn_id.t -> state
(** Promote the transaction's entries to its parent, then fold the
    [T0]-held prefix into the base. *)

val inform_abort : Datatype.t -> state -> Txn_id.t -> state
(** Discard entries held by descendants, then fold the [T0]-held prefix
    that exposes. *)

val request_commit :
  Datatype.t -> state -> Txn_id.t -> Datatype.op -> (state * Value.t) option
(** Fire the response if the lock-conflict rule admits it. *)

val blockers_kinded :
  Datatype.t ->
  state ->
  Txn_id.t ->
  Datatype.op ->
  (Txn_id.t * Nt_gobj.Gobj.lock_kind) list
(** Holders of conflicting entries, in name order, each tagged by the
    operation kind of one of its conflicting log entries. *)

val factory : Nt_gobj.Gobj.factory
(** [M_X] as a generic object, for any data type. *)
