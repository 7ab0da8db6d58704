(** The cross-shard commit gate: [T0]'s sibling graph under sharding,
    over merged names [T0.g] ([g] numbered densely by the router), kept
    in one {!Nt_sg.Graph} like every other parent's.

    Every conflict edge of the merged SG joins two transactions on one
    object, hence one shard, whose monitor draws it first and {e ships}
    its top-level projection here at the commit that witnesses it.
    Precedes is the time rail [u -> v iff u reported before v was
    requested], read on the global stamps that also order the merged
    trace ({!note_complete}[ u < ]{!note_submit}[ v]), so this gate and
    the offline judge agree on it.  It is kept as one retiring
    {!Nt_sg.Rail}: frontier edges labelled [None] beside shipped edges
    labelled [Some w] with their witness, together reaching as the
    merged top-level SG does.  The rail retires settled tops as the
    monitor's does, and no decision moves: every edge a shard can
    present at a retired top leaves it and is rail-ordered
    ([doc/sharding.mld] has both arguments).

    {!gate} decides a commit whose prospective edges include top-level
    ones: it drops those the rail orders and vetoes exactly the
    commits whose remaining edges would close a cycle
    ({!Nt_sg.Graph.would_close_cycle}), installing them otherwise, in
    one mutex-guarded critical section.  Both notes draw their stamps
    under that mutex, so notes arrive in stamp order, which keeps the
    frontier exact, and no gate runs between a report's stamp and its
    note. *)

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
(** Stamp [T0.g]'s report ([Report_commit] or [Report_abort]: aborted
    tops are rail sources too) and return the stamp: [T0.g] joins the
    frontier, and the tops it lets retire leave the graph. *)

val settled : t -> int -> bool
(** Whether [T0.g] reported before every open top was requested, or
    has retired: each edge at it a shard could still present is then
    rail-ordered, so a shard may forget it (see [Shard_engine]).  Once
    true, it stays true.  Raises [Invalid_argument] if [g] was never
    noted. *)

type verdict =
  | Admitted
  | Vetoed of { cycle : Txn_id.t list; witness : string }

val gate :
  t -> top:int -> edges:(int * int * string Lazy.t) list -> verdict
(** [gate t ~top ~edges] — each witness explains the underlying
    conflict, and is forced only for an edge installed or named in a
    veto.  Self-edges and the edges the rail orders ([T0.a] reported
    before [T0.b] was requested, or [T0.a] retired) are dropped; with
    none left the call is [Admitted] and is not a check.  Otherwise:
    would installing the edges not yet installed close a cycle in the
    global graph?  [Admitted] installs them; [Vetoed] installs nothing
    and returns the would-be cycle, starting at [top] when it passes
    through it, with one witness line per edge: a shipped edge's
    witness, or a rail edge's two stamps.  Raises [Invalid_argument] if
    [top] or an endpoint was never noted, or if an edge enters a
    retired top, which no shard can present. *)

val checks : t -> int
(** Gate calls that kept an edge: the decisions taken. *)

val vetoes : t -> int

val edge_count : t -> int
(** Shipped edges installed, each counted once, retired ones included;
    rail edges are not. *)

val node_count : t -> int
(** Tops noted by {!note_submit} and not retired. *)
