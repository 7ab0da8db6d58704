(** Replay semantics for serial objects.

    The serial object automaton [S_X] of a sequential data type accepts
    [perform(xi)] exactly when replaying [xi] from the initial state
    reproduces every recorded return value (Lemma 4 and its
    generalization).  This module decides that membership, computes
    responses, and provides the {e semantic} backward-commutativity
    check used to validate each data type's algebraic oracle. *)

open Nt_base

type operation = Datatype.op * Value.t
(** An operation in the paper's sense: an access invocation paired with
    its return value. *)

val legal : ?init:Value.t -> Datatype.t -> operation list -> bool
(** [legal dt xi] iff [perform(xi)] is a finite behavior of [S_X].
    With [init], the replay starts from that state instead of the
    type's initial one (as everywhere below). *)

val final_state : ?init:Value.t -> Datatype.t -> operation list -> Value.t option
(** The state of [S_X] after [perform(xi)], or [None] if [xi] is not
    legal. *)

val response :
  ?init:Value.t -> Datatype.t -> operation list -> Datatype.op -> Value.t option
(** [response dt xi op] is the unique [v] such that [xi @ [(op, v)]] is
    legal, provided [xi] itself is legal; [None] otherwise. *)

type fold_step =
  | Fold of operation  (** Replay it into the state. *)
  | Skip  (** Drop it: it is not part of the sequence. *)
  | Stop  (** Keep it and everything after it. *)
(** How {!fold_prefix} treats one entry. *)

val fold_prefix :
  ?init:Value.t ->
  Datatype.t ->
  ('a -> fold_step) ->
  'a list ->
  (Value.t * 'a list) option
(** [fold_prefix dt classify entries] replays the longest prefix of
    [entries] that [classify] does not [Stop] at, and returns the
    state reached with the rest of the list (which starts at the
    [Stop]ped entry, or is empty).  [Skip]ped entries are dropped.
    [None] when a folded operation's recorded value is not the one
    the replay gives, exactly as {!final_state}.  A log whose settled
    prefix can no longer affect any outcome keeps the state this
    returns as its base and the rest as its live suffix: undo logging's
    [U_X], commutativity locking and the online monitor's replay. *)

val equieffective : Datatype.t -> operation list -> operation list -> bool
(** Both sequences legal and ending in the same state.  Final-state
    identity is the special case of the paper's equieffectiveness that
    suffices for deterministic sequential specifications (and coincides
    with it for the types shipped here). *)

val commutes_backward_semantic :
  Datatype.t -> ?states:Value.t list -> operation -> operation -> bool
(** The definitional (symmetric) backward-commutativity check, with the
    universally-quantified prefix [xi] approximated by the given probe
    states (default: the type's own [probe_states]).  Used by tests to
    establish oracle soundness: wherever the oracle claims a pair
    commutes, this check must agree on every probe state. *)
