(** The undo logging object [U_X] (Section 6.2).

    State: the [created], [commit-requested] and [committed] transaction
    sets and an {e operation log} — the sequence of operations that have
    taken place, with entries removed when an ancestor aborts.
    A [REQUEST_COMMIT(T, v)] may fire only when

    {ol
    {- [T] was created and not yet responded to,}
    {- [(T, v)] commutes backward with every logged operation
       [(T', v')] some of whose ancestors up to [lca(T, T')] is not yet
       known committed — i.e. with all operations of transactions not
       {e locally visible} to [T],}
    {- the log extended by [(T, v)] replays in [S_X] — which, the
       specification being deterministic, pins [v] to the replay
       response.}}

    An [INFORM_ABORT] erases the aborted transaction's descendants from
    the log (the "undo"); an [INFORM_COMMIT] merely records the commit
    for the visibility test.  The algorithm works for objects of
    arbitrary data type and is the paper's showcase for the generalized
    serialization-graph theorem (Theorem 19).

    {2 Base and live suffix}

    The paper's log is kept as [base ⊕ log]: a state [base] (the
    type's initial state when [None]) that the log's longest
    {e settled} prefix was folded into, and the live suffix [log].  An
    entry is settled when every non-root ancestor of its transaction,
    itself included, is in [committed].  Such an entry can no longer
    affect an outcome:
    {ul
    {- it is locally visible to every access (the ancestors
       {!locally_visible} asks about are among the committed ones), so
       it never blocks;}
    {- no abort removes it: an aborted name is never committed, so it
       is no ancestor of the entry.}}
    The informs fold after every change (an abort can expose a settled
    head), so the log holds only the entries since the oldest one still
    open, and replaying or scanning it costs that suffix, not the whole
    history.  Every response, block and undo is the one the full log
    gives. *)

open Nt_base
open Nt_spec

type entry = { txn : Txn_id.t; op : Datatype.op; value : Value.t }

type state = {
  created : Txn_id.Set.t;
  commit_requested : Txn_id.Set.t;
  committed : Txn_id.Set.t;
  base : Value.t option;
      (** The folded settled prefix's final state; [None] is the data
          type's initial state. *)
  log : entry list;  (** The live suffix, oldest first. *)
}

val initial : state
val create : state -> Txn_id.t -> state

val inform_commit : Datatype.t -> state -> Txn_id.t -> state
(** Record the commit, then fold the settled prefix into the base. *)

val inform_abort : Datatype.t -> state -> Txn_id.t -> state
(** Remove every log entry of a descendant of the aborted name, then
    fold the settled prefix that exposes. *)

val locally_visible : state -> to_:Txn_id.t -> Txn_id.t -> bool
(** [locally_visible s ~to_ t']: every ancestor of [t'] not shared with
    [to_] (i.e. up to, not including, their lca) is in [s.committed] —
    the object's local approximation of visibility (Section 6.3; note:
    no ordering requirement, unlike [lock-visible]). *)

val request_commit :
  Datatype.t -> state -> Txn_id.t -> Datatype.op -> (state * Value.t) option
(** Fire the response if the commutativity precondition holds; the
    returned value is the replay response.  [None] when blocked. *)

val blockers_kinded :
  Datatype.t ->
  state ->
  Txn_id.t ->
  Datatype.op ->
  (Txn_id.t * Nt_gobj.Gobj.lock_kind) list
(** The logged transactions whose non-visible, non-commuting entries
    block the access, each tagged by the operation kind of its
    entry. *)

val factory : Nt_gobj.Gobj.factory
(** [U_X] as a generic object, for any data type. *)
