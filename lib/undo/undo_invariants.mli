(** Executable forms of the [U_X] lemmas (Section 6.3).

    - {b Lemma 20}: after any generic-object-well-formed schedule, the
      log is exactly the trace's operations minus those undone by a
      later [Inform_abort] of an ancestor;
    - {b Lemma 21(2)}: removing the descendants of any set of
      uncommitted transactions from the log leaves a replayable
      sequence;

    both over the object's [base ⊕ log] representation (see
    {!Undo_object}): the log proper is the folded prefix followed by
    the live suffix;
    - {b Lemma 22}: when two conflicting responses both occur, the
      earlier one's transaction is a local orphan or locally visible to
      the later one's at the response point.

    Traces are the object-projected ones of {!project}. *)

open Nt_base
open Nt_spec

val project : Schema.t -> Obj_id.t -> Trace.t -> Trace.t
(** [beta|U_X]: same projection as for [M1_X]. *)

val replay :
  Schema.t -> Obj_id.t -> Trace.t -> (Undo_object.state, string) result
(** Replay, validating every [Request_commit] precondition. *)

val local_orphan : Obj_id.t -> Trace.t -> Txn_id.t -> bool

val locally_visible_in : Obj_id.t -> Trace.t -> to_:Txn_id.t -> Txn_id.t -> bool
(** [Inform_commit] at the object exists for every ancestor up to the
    lca (in any order — contrast with [lock_visible]). *)

val lemma20 : Schema.t -> Obj_id.t -> Trace.t -> bool
(** {!lemma20_of} the state {!replay} reaches. *)

val lemma20_of : Schema.t -> Obj_id.t -> Trace.t -> Undo_object.state -> bool
(** The state's suffix equals the tail of the filtered trace
    operations, and the rest of them replays to its base. *)

val lemma21 : Schema.t -> Obj_id.t -> Trace.t -> samples:Txn_id.t list list -> bool
(** For each sample set of uncommitted transactions, the purged
    suffix replays from the base.  (The universally-quantified lemma is sampled; the empty
    set — "the log itself replays" — is always included.) *)

val lemma22 : Schema.t -> Obj_id.t -> Trace.t -> bool
(** The conflicting-responses property, checked over all pairs of
    response events in the projected trace. *)
