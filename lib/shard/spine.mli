(** The cross-shard commit gate: a coordinator-held top-level
    serialization graph over merged transaction names.

    Under object partitioning, every {e conflict} edge of the merged
    system's SG joins two transactions that touched the same object —
    the same shard — so each shard's local monitor materializes it
    first, and the shard {e ships} its top-level projection here as a
    [(from, to, witness)] triple at the commit that witnesses it —
    even when the local graph already held the edge, unless the rail
    below orders its endpoints.  The
    spine never stores precedes edges explicitly: the top-level
    precedes relation is the dense time rail [u -> v iff u reported
    before v was requested], which the global sequence stamps encode
    exactly — {!note_complete}[ u < ]{!note_submit}[ v].  Explicit
    conflict edges plus that implicit rail reconstruct the merged
    top-level SG precisely (the determinism argument and the proof
    sketch live in [doc/sharding.mld]).

    {!gate} is the two-phase decision: a shard about to perform a
    commit whose prospective edge set contains top-level edges presents
    them here; the spine answers whether adding them to the global
    graph closes a cycle — vetoing exactly the cycle-closing commits,
    as the local gate does for local cycles — and, on admission,
    installs them atomically (one mutex-guarded critical section, so
    check and install are indivisible).

    All merged top-level transactions are registered here as dense
    integers [g] (the merged name is [T0.g]); stamps come from one
    global atomic counter that also orders the merged trace, which is
    what makes the harness's offline judgement and this online gate
    agree on the precedes relation. *)

open Nt_base

type t

val create : unit -> t

val stamp : t -> int
(** Next global sequence number (atomic fetch-and-add): the total
    order of the merged trace. *)

val register : t -> int
(** Allocate the next merged top-level transaction [g]. *)

val note_submit : t -> int -> seq:int -> unit
(** [T0.g]'s [Request_create] carries trace stamp [seq]. *)

val note_complete : t -> int -> seq:int -> unit
(** [T0.g]'s report ([Report_commit] or [Report_abort] — aborted tops
    are rail sources too) carries trace stamp [seq]. *)

val submit_seq : t -> int -> int option
val complete_seq : t -> int -> int option

type verdict =
  | Admitted
  | Vetoed of { cycle : Txn_id.t list; witness : string }

val gate : t -> top:int -> edges:(int * int * string) list -> verdict
(** [gate t ~top ~edges] — would installing [edges] (each incident to
    [top]; the witness string explains the underlying conflict) close
    a cycle in the global graph (explicit edges + time rail)?
    [Admitted] installs them; [Vetoed] installs nothing and returns
    the would-be cycle with an edge-by-edge witness chain.  Raises
    [Invalid_argument] if [top] was never submit-stamped. *)

val checks : t -> int
val vetoes : t -> int
val edge_count : t -> int
(** Distinct explicit cross-checked conflict edges installed. *)

val node_count : t -> int
