(** Sequential data types and backward commutativity (Section 6).

    A serial object automaton [S_X] is, for every data type we ship, the
    canonical automaton of a {e sequential} specification: a total
    deterministic function [apply : state -> op -> state * value].  The
    paper's [perform(xi) ∈ finbehvs(S_X)] is then decidable by replay
    (see {!Serial_spec}), which is exactly Lemma 4 for read/write objects
    and its evident generalization for the other types.

    Backward commutativity of operations (pairs [(op, v)] of an
    invocation and its return value) is the paper's conflict criterion
    for arbitrary types: two operations {e conflict} iff they fail to
    commute backwards.  Each data type carries an algebraic
    {e oracle} for this relation.  The paper notes the relation is
    symmetric; accordingly our oracles are symmetric, and the test suite
    validates every oracle against the semantic definition (both orders,
    probing reachable states).  Oracles are {e sound}: they may declare a
    commuting pair conflicting (losing concurrency, never correctness),
    but never the converse. *)

open Nt_base

type op =
  | Read  (** register: current value *)
  | Write of Value.t  (** register: overwrite, returns [Ok] *)
  | Incr of int  (** counter: add, returns [Ok] *)
  | Decr of int  (** counter: subtract, returns [Ok] *)
  | Get  (** counter: current total *)
  | Deposit of int  (** account: add funds, returns [Ok] *)
  | Withdraw of int
      (** account: returns [Bool true] and subtracts if funds suffice,
          else [Bool false] and no change *)
  | Balance  (** account: current funds *)
  | Insert of Value.t  (** set: blind add, returns [Ok] *)
  | Remove of Value.t  (** set: blind delete, returns [Ok] *)
  | Member of Value.t  (** set: membership test *)
  | Size  (** set: cardinality *)
  | Enqueue of Value.t  (** queue: append, returns [Ok] *)
  | Dequeue
      (** queue: returns [Pair (Bool true, v)] popping the head, or
          [Pair (Bool false, Unit)] when empty *)
  | Kread of Value.t
      (** keyed store: current value under the key ([Unit] if absent) *)
  | Kwrite of Value.t * Value.t
      (** keyed store: bind key to value, returns [Ok] *)
  | Vread
      (** versioned register (replication substrate): the current
          [Pair (Int version, value)] *)
  | Vwrite of int * Value.t
      (** versioned register: install the pair if the version is
          strictly newer (Thomas write rule), returns [Ok].  Writes
          with distinct versions commute backward — replicas converge
          regardless of arrival order. *)

exception Unsupported of op
(** Raised by [apply] when the operation does not belong to the type's
    signature — a schema construction error, never a runtime condition. *)

type t = {
  dt_name : string;  (** e.g. ["register"], for messages and tables. *)
  init : Value.t;  (** The initial state [d] of [S_X]. *)
  apply : Value.t -> op -> Value.t * Value.t;
      (** [apply s op = (s', v)]: deterministic total semantics. *)
  commutes : op * Value.t -> op * Value.t -> bool;
      (** Symmetric backward-commutativity oracle on operations. *)
  sample_ops : Rng.t -> op;
      (** A random operation of this type, for workload generation. *)
  probe_states : Value.t list;
      (** A finite set of states (including [init]) rich enough to
          exercise the oracle in semantic validation tests. *)
}

val conflicts : t -> op * Value.t -> op * Value.t -> bool
(** Two operations conflict iff they fail to commute backwards. *)

val accesses_conflict : t -> op -> op -> bool
(** The access-level conflict relation: accesses [T], [T'] conflict iff
    {e some} return values make their operations conflict.  Decided by
    probing the type's [probe_states] for realizable return values. *)

val pp_op : Format.formatter -> op -> unit
val op_to_string : op -> string
