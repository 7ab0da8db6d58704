(** The cross-shard commit gate: a coordinator-held top-level
    serialization graph over merged transaction names — [T0]'s sibling
    graph under sharding, kept in one {!Nt_sg.Graph} like every other
    parent's.

    Under object partitioning, every {e conflict} edge of the merged
    system's SG joins two transactions that touched the same object —
    the same shard — so each shard's local monitor materializes it
    first, and the shard {e ships} its top-level projection here as a
    [(from, to, witness)] triple at the commit that witnesses it, even
    when the local graph already held the edge.  The top-level precedes
    relation is the time rail [u -> v iff u reported before v was
    requested], which the global sequence stamps encode exactly:
    {!note_complete}[ u < ]{!note_submit}[ v].  The spine alone decides
    with the rail.  It is an interval order, so the graph stores it as
    {e frontier edges}, as {!Nt_sg.Monitor} stores precedes: a request
    draws an edge from each maximal reported top, and a report retires
    every frontier member that reported before its own request.  Shipped
    conflict edges plus those rail edges have the reachability of the
    merged top-level SG (the determinism argument and the proof sketch
    live in [doc/sharding.mld]).  Each edge of the graph is labelled
    [None] (a rail edge) or [Some w] (a shipped edge and its witness).
    There is no other copy of an edge.

    {!gate} is the two-phase decision: a shard about to perform a
    commit whose prospective edge set contains top-level edges presents
    them here; the spine drops those its rail orders, asks
    {!Nt_sg.Graph.would_close_cycle} whether adding the rest closes a
    cycle — vetoing exactly the cycle-closing commits, as the local
    gate does for local cycles — and, on admission, installs them (one
    mutex-guarded critical section, so check and install are
    indivisible).

    Merged top-level transactions are dense integers [g] (the merged
    name is [T0.g]), numbered by the router; stamps come from one
    global counter that also orders the merged trace, which is what
    makes the harness's offline judgement and this online gate agree on
    the precedes relation.  {!note_submit} and {!note_complete} draw
    their stamps under the spine's mutex, so the notes arrive in stamp
    order — what keeps the frontier exact — and no gate can run between
    a report's stamp and its note. *)

open Nt_base

type t

val create : unit -> t

val stamp : t -> int
(** Next global sequence number (atomic fetch-and-add): the total
    order of the merged trace. *)

val note_submit : t -> int -> int
(** Stamp [T0.g]'s [Request_create] and return the stamp: node [g]
    enters the graph with a rail edge from each frontier member.
    Raises [Invalid_argument] unless [g] is the next node: tops are
    noted in order, [0, 1, 2, ...]. *)

val note_complete : t -> int -> int
(** Stamp [T0.g]'s report ([Report_commit] or [Report_abort] — aborted
    tops are rail sources too) and return the stamp: [T0.g] joins the
    frontier. *)

val settled : t -> int -> bool
(** Whether [T0.g] reported before every top not yet reported was
    requested: its report stamp is below the request stamp of the least
    noted top not yet reported (or every noted top has reported).  Each
    edge at [T0.g] a shard could still present then leads to a later
    request, which the rail orders, so a shard may forget [T0.g] (see
    [Shard_engine]).  Once true, it stays true.  Raises
    [Invalid_argument] if [g] was never noted. *)

type verdict =
  | Admitted
  | Vetoed of { cycle : Txn_id.t list; witness : string }

val gate :
  t -> top:int -> edges:(int * int * string Lazy.t) list -> verdict
(** [gate t ~top ~edges] — each witness explains the underlying
    conflict, and is forced only for an edge installed or named in a
    veto: most edges a shard presents are dropped.  Self-edges and each
    edge [a -> b] where [T0.a] reported before [T0.b] was requested are
    dropped: the rail already orders them.  With no edge left the call
    is [Admitted] and is not a check.
    Otherwise: would installing the edges not yet installed close a
    cycle in the global graph (shipped edges + time rail)?  [Admitted]
    installs them; [Vetoed] installs nothing and returns the would-be
    cycle, starting at [top] when it passes through it, with one
    witness line per edge: a shipped edge's witness, or a rail edge's
    two stamps.  Raises [Invalid_argument] if [top] or an endpoint was
    never noted. *)

val checks : t -> int
(** Gate calls that kept an edge after dropping the rail-ordered ones:
    the decisions taken. *)

val vetoes : t -> int

val edge_count : t -> int
(** Shipped edges installed, each counted once; rail edges are not. *)

val node_count : t -> int
(** Tops noted by {!note_submit}. *)
