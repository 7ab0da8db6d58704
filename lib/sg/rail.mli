(** One parent's precedes rail: child [s] precedes child [v] iff [s]
    reported before [v] was requested, on the caller's integer clock
    (the monitor's feed index, the Spine's stamps), each note later
    than the ones before.

    It is an interval order, so a request draws edges from the
    {e frontier} only, the maximal reported children: a report drops
    every member that reported before its own request, whose edges to
    later requests it implies.  Those edges reach as the whole relation
    does, and the members were all open at one moment.

    [T0]'s rail also {e retires} what can no longer close a cycle (the
    Bernstein–Hadzilacos–Goodman certifier deletion rule).  A child is
    {e settled} once it reported before the {e watermark}, the earliest
    request still open: every edge into it is drawn, and every later
    one at it leaves it.  A reported child not settled may still gain
    an edge from an open one (a dirty read) and reach it, so a settled
    child retires only once it is placed, in the graph's maintained
    order, before every reported child not settled (the rail puts it
    before every open one).  What retires is a prefix of the order that
    nothing left reaches, now or later, so every search, witness and
    verdict on the nodes that stay is the whole history's. *)

open Nt_base

type t

val create : retiring:bool -> t
(** An empty rail.  A keeping rail forgets a child at its report; a
    retiring one ([T0]'s) keeps it until it retires. *)

val request : t -> Txn_id.t -> int -> (Txn_id.t * int) list
(** [request r v now]: [v] was requested at [now].  Returns the
    frontier, with report times: [v] draws an edge from each. *)

val report : t -> Txn_id.t -> int -> unit
(** [report r u now]: [u] reported at [now] and joins the frontier.  A
    child reported without a request counts as requested at 0. *)

val reported_any : t -> bool
(** Whether some child has reported. *)

val times : t -> Txn_id.t -> (int * int) option
(** The request and report times ([max_int] while open) of a child the
    rail keeps; [None] once it has retired. *)

val settled : t -> Txn_id.t -> bool
(** On a retiring rail: the child reported before the watermark, or
    retired.  Once true, it stays true. *)

val retire : ?hold:(Txn_id.t -> bool) -> t -> _ Graph.t -> Txn_id.t list
(** Call after each report on a retiring rail.  Settles the reported
    children the watermark has passed, in report order up to the first
    one [hold] (default: none) keeps, then removes from the graph, the
    frontier and the rail each settled child placed before every
    unsettled one, and returns them.  The hold is asked about one child
    it keeps per call, and the order is read only when some child
    waits, so holding every child costs no work that grows with the
    history.  Nothing retires once the graph is cyclic. *)

val census : t -> (string * int) list
(** [frontier] members, [requested] children still open, [reported]
    children not yet settled and [settled] ones not yet retired. *)
