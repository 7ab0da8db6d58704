(** Moss' read/write locking object [M1_X] (Section 5.2).

    The automaton keeps four components: the [created] and
    [commit-requested] access sets, the [read-lockholders] set, and the
    [write-lockholders] {e with a value per holder} — a stack of
    versions threaded up the transaction tree.  An [INFORM_COMMIT]
    promotes a holder's lock (and stored value) to its parent; an
    [INFORM_ABORT] discards every lock held by a descendant of the
    aborted transaction.  A read may respond only when every write
    lock is held by an ancestor, returning the value of the {e least}
    (deepest) write-lockholder; a write additionally needs every read
    lock ancestral and pushes its datum as its own version.

    The pure transition functions are exposed so the test suite can
    assert the paper's invariants (Lemmas 9–13) on every reachable
    prefix; {!factory} wraps them as a {!Nt_gobj.Gobj.t} for the
    runtime. *)

open Nt_base


type state = {
  created : Txn_id.Set.t;
  commit_requested : Txn_id.Set.t;
  write_lockholders : Value.t Txn_id.Map.t;
      (** Each write-lockholder mapped to its stored value. *)
  read_lockholders : Txn_id.Set.t;
}

val initial : Value.t -> state
(** [T0] holds the write lock with the serial object's initial value. *)

val create : state -> Txn_id.t -> state
(** The [CREATE(T)] input. *)

val inform_commit : state -> Txn_id.t -> state
(** Promote [T]'s locks (and stored value) to [parent T]. *)

val inform_abort : state -> Txn_id.t -> state
(** Discard all locks held by descendants of [T]. *)

val least_write_lockholder : state -> Txn_id.t
(** The deepest write-lockholder (the unique minimal element of the
    lock chain).  Raises [Invalid_argument] on an empty lock set, which
    is unreachable from {!initial} unless [T0] itself is aborted. *)

val request_commit : state -> Txn_id.t -> [ `Read | `Write of Value.t ] ->
  (state * Value.t) option
(** Fire [REQUEST_COMMIT(T, v)] if its precondition holds: [None] when
    [T] is unknown/already responded or a conflicting lock is held by a
    non-ancestor. *)

val blockers_kinded :
  state ->
  Txn_id.t ->
  [ `Read | `Write of Value.t ] ->
  (Txn_id.t * Nt_gobj.Gobj.lock_kind) list
(** The non-ancestral holders of conflicting locks — why a
    [request_commit] would return [None] — each tagged by the lock it
    holds ([Write] for write-lockholders, [Read] for read-lockholders):
    the shape [Gobj.waiting_on] reports for wait-for diagnostics. *)

val lock_chain_ok : state -> bool
(** Lemma 9 invariant: any write-lockholder is related (ancestor or
    descendant) to every other lockholder. *)

val factory : Nt_gobj.Gobj.factory
(** [M1_X] as a generic object; the schema's operations must be [Read]
    or [Write _] (raises {!Nt_spec.Datatype.Unsupported} otherwise). *)
