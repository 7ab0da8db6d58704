(** Interpreting transaction automata for {!Nt_serial.Program}s.

    One interpreter per created non-access transaction.  It preserves
    transaction well-formedness by construction: children are requested
    only while the transaction is live and before its own
    [REQUEST_COMMIT]; a [Seq] node requests child [i+1] only after child
    [i] reported; commit is requested only once every requested child
    has reported.  A committed node's value is a [Value.List] of child
    summaries ([Pair (Bool true, v)] / [Pair (Bool false, Unit)]),
    mirroring {!Nt_serial.Serial_exec}. *)

open Nt_base
open Nt_serial

type t

type output =
  | Request_child of int * Program.t
      (** Emit [REQUEST_CREATE] for the child at this index. *)
  | Request_commit of Value.t  (** Emit [REQUEST_COMMIT] with this value. *)

val make : ?no_commit:bool -> Txn_id.t -> Program.comb -> Program.t list -> t
(** [no_commit] suppresses the commit request — used for the [T0]
    interpreter, which models the environment and never completes. *)

val txn : t -> Txn_id.t

val append_child : t -> Program.t -> int
(** Append one more child program, returning its index (= the last
    component of the child's {!Nt_base.Txn_id.t}).  This is how open-loop
    serving attaches a newly submitted top-level transaction to the
    running [T0] interpreter: under [Par] the child is requested like
    any other; under [Seq] it runs after the children before it.
    Raises [Invalid_argument] once the interpreter has requested its
    own commit (never the case for [no_commit] interpreters). *)

val enabled_outputs : t -> output list
(** The outputs currently enabled (zero or more child requests, or the
    commit request). *)

val summary : t -> int -> Value.t option
(** The reported summary of child [i] ([Pair (Bool true, v)] for a
    commit with value [v], [Pair (Bool false, Unit)] for an abort);
    [None] until the child reports, and for indices past the last
    child. *)

val note_child_requested : t -> int -> unit
val note_child_committed : t -> int -> Value.t -> unit
val note_child_aborted : t -> int -> unit
val note_commit_requested : t -> unit
