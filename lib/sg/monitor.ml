open Nt_base
open Nt_spec
open Nt_obs

type alarm = Cycle of Txn_id.t list | Inappropriate of Obj_id.t

type counters = {
  feeds : int;
  operations : int;
  edges : int;
  cycle_alarms : int;
  inappropriate_alarms : int;
}

type edge_kind = Conflict | Precedes

type endpoint = { who : Txn_id.t; at : int; where : Obj_id.t option }

type provenance = { kind : edge_kind; before : endpoint; after : endpoint }

type prospective = (Txn_id.t * Txn_id.t * provenance) list

type visibility = Visible | Dead | Pending

(* One access response, resolved once: [op] is the access's operation
   and [at] the feed index of its [Request_commit], which orders an
   object's responses. *)
type op_record = {
  access : Txn_id.t;
  op : Datatype.op;
  value : Value.t;
  at : int;
  mutable status : visibility;  (* the access's *)
}

(* What to do when a transaction becomes visible to T0. *)
type item =
  | Activate_op of Obj_id.t * op_record
  | Activate_edge of Txn_id.t * Txn_id.t * provenance
  | Activate_node of Txn_id.t

type obj_state = {
  mutable ops : op_record list;  (* newest first *)
  mutable obj_alarmed : bool;
  mutable base : Value.t option;
      (* the state the visible sequence's folded prefix replays to;
         [None] is the data type's initial state *)
  mutable tail : op_record list;
      (* the records after that prefix, in [at] order *)
}

type t = {
  schema : Schema.t;
  keep : bool;  (* never retire (see [settle]) *)
  g : provenance Graph.t;  (* each edge labelled with its first witness *)
  aborted : unit Txn_id.Tbl.t;
  waiters : Txn_id.t list Txn_id.Tbl.t;
      (* top -> the Pending transactions under it, newest first *)
  items : item list Txn_id.Tbl.t;
      (* Pending transaction -> what to do when it becomes visible *)
  frontier : (Txn_id.t * int) list Txn_id.Tbl.t;
      (* parent -> its maximal reported children (see [report]), each
         with the report's feed index *)
  requested : int Txn_id.Tbl.t;
      (* open request -> its feed index, until the report *)
  objects : obj_state Obj_id.Tbl.t;
  mutable pending_edges : (Txn_id.t * Txn_id.t * provenance) list;
      (* edges inserted by the current feed, for the event stream *)
  mutable walked : (Txn_id.t * (item * prospective) list) option;
      (* the walk [prospective_commit_edges] made for a top, until the
         next feed: a [Commit] of that top applies it *)
  reported : (Txn_id.t * int) Queue.t;
      (* reported tops not yet settled, with their report indices, in
         report order (unless [keep]) *)
  mutable settled : Txn_id.t list;
      (* settled tops not yet retired, in report order *)
  inner : Txn_id.t list Txn_id.Tbl.t;
      (* committed top -> the nodes below it its commit added *)
  footprint : Obj_id.t list Txn_id.Tbl.t;
      (* top -> the objects holding its records *)
  mutable n_edges : int;  (* edges inserted *)
  mutable n_feeds : int;
  mutable n_operations : int;
  mutable n_cycle_alarms : int;
  mutable n_inappropriate_alarms : int;
}

let create ?(keep_history = false) schema =
  let objects = Obj_id.Tbl.create 16 in
  List.iter
    (fun x ->
      Obj_id.Tbl.add objects x
        { ops = []; obj_alarmed = false; base = None; tail = [] })
    schema.Schema.objects;
  {
    schema;
    keep = keep_history;
    g = Graph.create ();
    aborted = Txn_id.Tbl.create 16;
    waiters = Txn_id.Tbl.create 64;
    items = Txn_id.Tbl.create 64;
    frontier = Txn_id.Tbl.create 16;
    requested = Txn_id.Tbl.create 32;
    objects;
    pending_edges = [];
    walked = None;
    reported = Queue.create ();
    settled = [];
    inner = Txn_id.Tbl.create 16;
    footprint = Txn_id.Tbl.create 16;
    n_edges = 0;
    n_feeds = 0;
    n_operations = 0;
    n_cycle_alarms = 0;
    n_inappropriate_alarms = 0;
  }

let graph t = t.g
let alarmed t = t.n_cycle_alarms + t.n_inappropriate_alarms > 0

let counters t =
  {
    feeds = t.n_feeds;
    operations = t.n_operations;
    edges = t.n_edges;
    cycle_alarms = t.n_cycle_alarms;
    inappropriate_alarms = t.n_inappropriate_alarms;
  }

(* Visibility.  The input is a generic behavior, so its transactions
   are well-formed: one requests commit only after every child it
   requested has reported, and the controller commits only what
   requested commit.  Commits therefore run bottom-up, and a
   transaction's activity becomes visible to T0 exactly when its
   top-level ancestor commits, unless it or an ancestor aborted first.
   A non-root transaction is Pending from the first question about it
   until one of the two happens, registered under its top alone: the
   top's Commit wakes the transactions registered under it, newest
   first, and an inner commit wakes nothing.  That order is the
   activation order, which fixes edge insertion order, hence the
   maintained order and each edge's witness.  On an ill-formed trace
   the monitor stays total; its verdict there is unspecified. *)

let dependents t top =
  match Txn_id.Tbl.find_opt t.waiters top with Some l -> l | None -> []

let top_of u = Txn_id.child_of_on_path ~ancestor:Txn_id.root u

let footprint t top =
  match Txn_id.Tbl.find_opt t.footprint top with Some l -> l | None -> []

(* Whether settled tops still retire (see [settle]), and so what
   retirement reads is still kept. *)
let retiring t = (not t.keep) && Graph.is_acyclic t.g

(* [u] or an ancestor aborted. *)
let dead t u = List.exists (Txn_id.Tbl.mem t.aborted) (Txn_id.ancestors u)

(* Whether non-root [u] is Pending (else it is Dead), registering it
   under its top at the first question. *)
let pending t u =
  if Txn_id.Tbl.mem t.items u then true
  else if dead t u then false
  else begin
    let top = top_of u in
    Txn_id.Tbl.replace t.waiters top (u :: dependents t top);
    Txn_id.Tbl.replace t.items u [];
    true
  end

let add_item t u item =
  Txn_id.Tbl.replace t.items u (item :: Txn_id.Tbl.find t.items u)

let is_visible r = match r.status with Visible -> true | Dead | Pending -> false

(* Insert through the incremental detector: {!Graph.add_edge_checked}
   maintains a topological order and searches only the region the new
   edge can disturb, so most insertions are O(1) and none re-walks the
   whole graph.  The edge keeps [prov] as its label. *)
let insert_edge t ~prov a b =
  if Txn_id.equal a b || Graph.mem_edge t.g a b then []
  else begin
    t.pending_edges <- (a, b, prov) :: t.pending_edges;
    t.n_edges <- t.n_edges + 1;
    match Graph.add_edge_checked t.g a b prov with
    | Graph.Ok _ -> []
    | Graph.Cycle path ->
        (* path is b ... a; the cycle is that path (edge a->b closes it). *)
        [ Cycle path ]
  end

(* The one conflict-edge rule: operation [record] on [x] becomes
   visible, so every visible, unrelated, conflicting operation on [x]
   yields an edge [a -> b] between the children of the pair's lca,
   earlier response first.  Every record in [x]'s list is on [x], so
   the test is [x]'s data type on the two recorded operations. *)
let conflict_edges t x record =
  let dt = t.schema.Schema.dtype_of x in
  List.filter_map
    (fun other ->
      if
        other != record && is_visible other
        && (not (Txn_id.related record.access other.access))
        && Datatype.conflicts dt (record.op, record.value) (other.op, other.value)
      then
        let earlier, later =
          if other.at < record.at then (other, record) else (record, other)
        in
        let l = Txn_id.lca earlier.access later.access in
        Some
          ( Txn_id.child_of_on_path ~ancestor:l earlier.access,
            Txn_id.child_of_on_path ~ancestor:l later.access,
            {
              kind = Conflict;
              before =
                { who = earlier.access; at = earlier.at; where = Some x };
              after = { who = later.access; at = later.at; where = Some x };
            } )
      else None)
    (Obj_id.Tbl.find t.objects x).ops

(* Replay an object's visible sequence (end-of-action check), from a
   folded prefix.  The tail's head is folded into the base while it is
   visible (and dropped while Dead): visibility is permanent and every
   later record gets a larger [at], so the visible sequence always
   starts with the folded records.  The fold stops at the first Pending
   record; the visible records behind it replay from the base.  The
   fold checks the recorded values as the replay does, so the check is
   [legal] of the whole visible sequence and alarms at the same feed. *)
let replay_object t x =
  let ost = Obj_id.Tbl.find t.objects x in
  if ost.obj_alarmed then []
  else begin
    let dt = t.schema.Schema.dtype_of x in
    let operation r = (r.op, r.value) in
    let legal =
      match
        Serial_spec.fold_prefix ?init:ost.base dt
          (fun r ->
            match r.status with
            | Visible -> Serial_spec.Fold (operation r)
            | Dead -> Serial_spec.Skip
            | Pending -> Serial_spec.Stop)
          ost.tail
      with
      | None -> false
      | Some (base, rest) ->
          ost.base <- Some base;
          ost.tail <- rest;
          Serial_spec.legal ~init:base dt
            (List.filter_map
               (fun r -> if is_visible r then Some (operation r) else None)
               rest)
    in
    if not legal then begin
      ost.obj_alarmed <- true;
      [ Inappropriate x ]
    end
    else []
  end

(* [u]'s queued items, in the order they were queued. *)
let queued t u =
  match Txn_id.Tbl.find_opt t.items u with Some l -> List.rev l | None -> []

(* The one walk of a top's commit: the transactions registered under
   [w], newest first, each one's items in the order they were queued,
   each with the edges it witnesses first in the walk (a queued edge
   itself; an operation, the conflict edges its visibility adds).  A
   later witness of an edge could not insert it: the graph holds every
   edge once inserted, cyclic or not.  Operations woken earlier in the
   walk are visible to later ones, as they are once the commit is fed:
   the walk marks each Visible as it goes and puts them all back to
   Pending (every queued record is Pending) when it is done, so it
   changes nothing.  Only a top has a list, so an inner commit's walk
   is empty. *)
let wake t w =
  let woken = ref [] and seen = Hashtbl.create 16 in
  let first (a, b, _) =
    let dup = Txn_id.equal a b || Hashtbl.mem seen (a, b) in
    Hashtbl.replace seen (a, b) ();
    not dup
  in
  let witnessed = function
    | Activate_op (x, record) ->
        let edges = List.filter first (conflict_edges t x record) in
        record.status <- Visible;
        woken := record :: !woken;
        edges
    | Activate_edge (a, b, prov) -> List.filter first [ (a, b, prov) ]
    | Activate_node _ -> []
  in
  (* [List.map] applies [witnessed] in list order. *)
  let steps =
    List.concat_map
      (fun u -> List.map (fun item -> (item, witnessed item)) (queued t u))
      (dependents t w)
  in
  List.iter (fun r -> r.status <- Pending) !woken;
  steps

(* A commit arrived: apply its walk in order.  [w] requested commit, so
   it requests no more children and its frontier goes.  The replay
   check is deferred to the end of the fed action (a single commit can
   wake several operations, and replaying between the wakeups of one
   commit would examine a state no prefix of the behavior exhibits). *)
let process_commit t touched w steps =
  Txn_id.Tbl.remove t.frontier w;
  List.iter (Txn_id.Tbl.remove t.items) (dependents t w);
  Txn_id.Tbl.remove t.waiters w;
  (* The nodes below [w] enter the graph at this walk and nowhere
     else, so retiring [w] removes exactly these with it. *)
  if retiring t && steps <> [] then begin
    let below =
      List.concat_map
        (fun (item, edges) ->
          (match item with Activate_node u -> [ u ] | _ -> [])
          @ List.concat_map
              (fun (a, b, _) -> if Txn_id.depth a > 1 then [ a; b ] else [])
              edges)
        steps
    in
    if below <> [] then
      Txn_id.Tbl.replace t.inner w (List.sort_uniq Txn_id.compare below)
  end;
  List.concat_map
    (fun (item, edges) ->
      (match item with
      | Activate_op (x, record) ->
          record.status <- Visible;
          touched := x :: !touched
      | Activate_edge _ -> ()
      | Activate_node u -> Graph.add_node t.g u);
      (* One item's alarms come newest first. *)
      List.fold_left
        (fun alarms (a, b, prov) -> insert_edge t ~prov a b @ alarms)
        [] edges)
    steps

let process_abort t w =
  Txn_id.Tbl.replace t.aborted w ();
  (* Every proper descendant of [w] is Dead, and no precedes edge is
     ever drawn under a Dead parent: their open requests and frontiers
     go, so both indexes hold live transactions only. *)
  let below u = Txn_id.is_proper_ancestor w u in
  Txn_id.Tbl.remove t.frontier w;
  Txn_id.Tbl.filter_map_inplace
    (fun u at -> if below u then None else Some at)
    t.requested;
  Txn_id.Tbl.filter_map_inplace
    (fun p l -> if below p then None else Some l)
    t.frontier;
  (* [w] and its descendants registered under [w]'s top are Dead, and
     so are the operations they queued. *)
  let kill u =
    List.iter
      (function Activate_op (_, r) -> r.status <- Dead | _ -> ())
      (Txn_id.Tbl.find t.items u);
    Txn_id.Tbl.remove t.items u
  in
  let top = top_of w in
  let gone, live = List.partition (Txn_id.is_ancestor w) (dependents t top) in
  List.iter kill gone;
  if live = [] then Txn_id.Tbl.remove t.waiters top
  else Txn_id.Tbl.replace t.waiters top live

(* Alarm bookkeeping and telemetry for one fed action: count the
   alarms, emit instants for them, and stream the edges inserted since
   [edges_before]. *)
let account ~obs t ~edges_before alarms =
  List.iter
    (fun alarm ->
      match alarm with
      | Cycle c ->
          t.n_cycle_alarms <- t.n_cycle_alarms + 1;
          if Obs.enabled obs then
            Obs.instant
              ?txn:(match c with u :: _ -> Some u | [] -> None)
              obs "monitor.cycle"
      | Inappropriate x ->
          t.n_inappropriate_alarms <- t.n_inappropriate_alarms + 1;
          if Obs.enabled obs then
            Obs.instant ~obj:x obs "monitor.inappropriate")
    alarms;
  if Obs.enabled obs then begin
    let m = Obs.metrics obs in
    let inserted = t.n_edges - edges_before in
    if inserted > 0 then begin
      Metrics.incr ~by:inserted (Metrics.counter m "monitor.edges");
      Obs.counter_sample obs "sg.edges" (Graph.n_edges t.g);
      if Obs.emitting obs then
        List.iter
          (fun (a, b, p) ->
            Obs.sg_edge ?obj:p.before.where obs ~src:a ~dst:b
              ~kind:(match p.kind with
                    | Conflict -> "conflict"
                    | Precedes -> "precedes")
              ~w1:p.before.who ~w1_ts:p.before.at ~w2:p.after.who
              ~w2_ts:p.after.at)
          (List.rev t.pending_edges)
    end;
    Metrics.observe (Metrics.histogram m "monitor.feed.edges") inserted;
    if alarms <> [] then
      Metrics.incr ~by:(List.length alarms) (Metrics.counter m "monitor.alarms")
  end;
  t.pending_edges <- []

let frontier t p =
  match Txn_id.Tbl.find_opt t.frontier p with Some l -> l | None -> []

(* Precedes is an interval order: [s -> v] iff [s] reported before [v]
   was requested.  So a request draws edges from the maximal reported
   siblings only, the frontier.  At the report of [u], every member
   that reported before [u] was requested leaves: its edge to any later
   request [v] is implied by [s -> u -> v], both edges drawn under the
   one parent and so activated together (by induction on report order,
   whatever [u]'s own fate).  Reachability, hence every cycle, is that
   of the full relation.  A report under a Dead parent adds nothing. *)
let report t u now =
  let req =
    match Txn_id.Tbl.find_opt t.requested u with Some at -> at | None -> 0
  in
  Txn_id.Tbl.remove t.requested u;
  let p = Txn_id.parent_exn u in
  if not (dead t p) then
    let l = frontier t p in
    if not (List.exists (fun (s, _) -> Txn_id.equal u s) l) then
      Txn_id.Tbl.replace t.frontier p
        ((u, now) :: List.filter (fun (_, rep) -> rep > req) l)

(* Retirement.  A top [s] is settled once it reported before every
   open top was requested.  Then every top that can order before [s]
   (one requested before [s] reported) has reported, its work visible
   or Dead, so every edge into [s] is drawn: an edge into a top comes
   from one requested before the top reported, and edges between two
   reported tops are drawn by the later of their commits.  Later edges
   at [s] all leave it.

   Settled alone is not enough to drop [s]: a reported top [r] that is
   not settled may still gain an edge from an open top (a dirty read of
   the open top's write by [r]) and reach [s] through an older edge.
   So [s] retires only when every top before it in the maintained
   order is settled as well.  Its predecessors are all before it, so
   nothing left in the graph reaches it, and nothing ever will.  What
   retires is thus a prefix of T0's children in the order; each later
   insertion between the others searches and renumbers only positions
   after it.  On the nodes that stay, the order, every search, witness
   and verdict is the one a monitor keeping the whole history has, and
   so is the intern order (see [Request_create]).  Retiring [s] drops
   its records, the nodes below it, and its place in T0's frontier.
   After a cycle alarm nothing retires: the order is gone. *)
let retire t tops =
  let gone = Txn_id.Tbl.create 8 in
  List.iter (fun s -> Txn_id.Tbl.replace gone s ()) tops;
  List.iter
    (fun x ->
      let ost = Obj_id.Tbl.find t.objects x in
      ost.ops <-
        List.filter
          (fun r -> not (Txn_id.Tbl.mem gone (top_of r.access)))
          ost.ops)
    (List.sort_uniq Obj_id.compare (List.concat_map (footprint t) tops));
  List.iter
    (fun s ->
      Graph.remove_node t.g s;
      (match Txn_id.Tbl.find_opt t.inner s with
      | Some below -> List.iter (Graph.remove_node t.g) below
      | None -> ());
      Txn_id.Tbl.remove t.inner s;
      Txn_id.Tbl.remove t.footprint s)
    tops;
  Txn_id.Tbl.replace t.frontier Txn_id.root
    (List.filter
       (fun (s, _) -> not (Txn_id.Tbl.mem gone s))
       (frontier t Txn_id.root))

(* Top [u] reported at [now]: settle what the watermark (the earliest
   request among open tops) has passed, then retire the settled tops
   placed before every unsettled one. *)
let settle t u now =
  if retiring t then begin
    Queue.push (u, now) t.reported;
    let pos v = Option.value ~default:max_int (Graph.position t.g v) in
    let watermark, floor =
      Txn_id.Tbl.fold
        (fun v at (w, f) ->
          if Txn_id.depth v = 1 then (min w at, min f (pos v)) else (w, f))
        t.requested (max_int, max_int)
    in
    let rec drain acc =
      match Queue.peek_opt t.reported with
      | Some (s, reported_at) when reported_at < watermark ->
          ignore (Queue.pop t.reported);
          drain (s :: acc)
      | _ -> List.rev acc
    in
    t.settled <- t.settled @ drain [];
    let floor = Queue.fold (fun m (v, _) -> min m (pos v)) floor t.reported in
    let go, stay = List.partition (fun s -> pos s < floor) t.settled in
    t.settled <- stay;
    if go <> [] then retire t go
  end

let feed ?(obs = Obs.null) t (a : Action.t) =
  let walked = t.walked in
  t.walked <- None;
  t.n_feeds <- t.n_feeds + 1;
  let now = t.n_feeds in
  let edges_before = t.n_edges in
  let touched = ref [] in
  (* Node tracking: the offline construction adds a node for the
     lowtransaction of every visible serial event.  Online it suffices
     to watch Commit/Abort actions — for any other serial event of u,
     visibility of the event implies Commit u occurred and is itself
     visible, so the Commit already supplies u's node; and a
     Request_create/Report event's lowtransaction is the parent, whose
     own Commit/Abort (or an ancestor chain ending at T0) covers it.
     This keeps isolated nodes no edge ever reaches in the graph,
     which the witness sibling order must still cover (suitability
     condition (1)). *)
  (match a with
  | Action.Commit u | Action.Abort u when not (Txn_id.is_root u) -> (
      let p = Txn_id.parent_exn u in
      if Txn_id.is_root p then Graph.add_node t.g u
      else if pending t p then add_item t p (Activate_node u))
  | _ -> ());
  let alarms =
    match a with
  | Action.Request_commit (u, v) -> (
      match System_type.kind t.schema.Schema.sys u with
      | System_type.Inner -> []
      | System_type.Access x ->
          t.n_operations <- t.n_operations + 1;
          (* A record born Dead (under an aborted ancestor) is never
             visible, draws no edge and the fold skips it: it is not
             stored. *)
          if pending t u then begin
            let ost = Obj_id.Tbl.find t.objects x in
            let record =
              { access = u; op = t.schema.Schema.op_of u; value = v;
                at = now; status = Pending }
            in
            ost.ops <- record :: ost.ops;
            (* An alarmed object is never replayed again. *)
            if not ost.obj_alarmed then ost.tail <- ost.tail @ [ record ];
            add_item t u (Activate_op (x, record));
            if retiring t then begin
              let top = top_of u in
              let objs = footprint t top in
              if not (List.exists (Obj_id.equal x) objs) then
                Txn_id.Tbl.replace t.footprint top (x :: objs)
            end
          end;
          [])
  | Action.Commit u ->
      (* The gate's walk when nothing was fed since it was made, so an
         admitted commit walks its list once. *)
      let steps =
        match walked with
        | Some (w, steps) when Txn_id.equal w u -> steps
        | _ -> wake t u
      in
      process_commit t touched u steps
  | Action.Abort u when not (Txn_id.is_root u) ->
      process_abort t u;
      []
  | Action.Report_commit (u, _) | Action.Report_abort u ->
      if not (Txn_id.is_root u) then begin
        report t u now;
        if Txn_id.depth u = 1 then settle t u now
      end;
      []
  | Action.Request_create u when not (Txn_id.is_root u) ->
      let p = Txn_id.parent_exn u in
      let visible = Txn_id.is_root p in
      if not (visible || pending t p) then []
      else begin
        Txn_id.Tbl.replace t.requested u now;
        (* Once a top has reported, T0's frontier draws an edge to every
           later top at its request unless retirement emptied it: the
           node enters here either way, so ids keep one order. *)
        if visible && Txn_id.Tbl.mem t.frontier p then Graph.add_node t.g u;
        List.concat_map
          (fun (sib, reported_at) ->
            let prov =
              {
                kind = Precedes;
                before = { who = sib; at = reported_at; where = None };
                after = { who = u; at = now; where = None };
              }
            in
            if visible then insert_edge t ~prov sib u
            else begin
              add_item t p (Activate_edge (sib, u, prov));
              []
            end)
          (frontier t p)
      end
  | Action.Create _ | Action.Inform_commit _ | Action.Inform_abort _
  | Action.Request_create _ | Action.Abort _ ->
      []
  in
  let replay_alarms =
    List.sort_uniq Obj_id.compare !touched
    |> List.concat_map (replay_object t)
  in
  let all = alarms @ replay_alarms in
  account ~obs t ~edges_before all;
  all

let frontier_width t p = List.length (frontier t p)

let census t =
  let records f =
    Obj_id.Tbl.fold (fun _ ost n -> n + List.length (f ost)) t.objects 0
  and size tbl = Txn_id.Tbl.length tbl in
  [
    ("ops", records (fun ost -> ost.ops));
    ("tail", records (fun ost -> ost.tail));
    ("graph.nodes", Graph.n_nodes t.g);
    ("graph.edges", Graph.n_edges t.g);
    ("aborted", size t.aborted);
    ("waiters", size t.waiters);
    ("items", size t.items);
    ("frontier", Txn_id.Tbl.fold (fun _ l n -> n + List.length l) t.frontier 0);
    ("requested", size t.requested);
    ("reported", Queue.length t.reported);
    ("settled", List.length t.settled);
    ("inner", size t.inner);
    ("footprint", size t.footprint);
  ]

let feed_trace ?obs t trace =
  let alarms = ref [] in
  Array.iteri
    (fun i a ->
      List.iter (fun al -> alarms := (i, al) :: !alarms) (feed ?obs t a))
    trace;
  List.rev !alarms

let visible_operations t x =
  let ost = Obj_id.Tbl.find t.objects x in
  List.filter is_visible ost.ops
  |> List.sort (fun r1 r2 -> compare r1.at r2.at)
  |> List.map (fun r -> (r.access, r.value))

(* --- Attribution ------------------------------------------------------- *)

(* The consecutive (wrapping) edges of a cycle, with what inserted (or
   would insert) each.  [extra] supplies provenance for edges that are
   only prospective (admission speculation); everything else resolves
   against the graph's labels.  Every edge of a cycle reported by
   [feed] was inserted by this monitor, so the provenance is only
   [None] for a list that is not one of its cycles. *)
let cycle_witness ?(extra = []) t cycle =
  let arr = Array.of_list cycle in
  let n = Array.length arr in
  List.init n (fun i ->
      let a = arr.(i) and b = arr.((i + 1) mod n) in
      let prov =
        match
          List.find_opt
            (fun (a', b', _) -> Txn_id.equal a a' && Txn_id.equal b b')
            extra
        with
        | Some (_, _, p) -> Some p
        | None -> Graph.label t.g a b
      in
      (a, b, prov))

let pp_provenance fmt p =
  match p.kind with
  | Conflict ->
      Format.fprintf fmt "conflict at %s: %s@%d vs %s@%d"
        (match p.before.where with Some x -> Obj_id.name x | None -> "?")
        (Txn_id.to_string p.before.who)
        p.before.at
        (Txn_id.to_string p.after.who)
        p.after.at
  | Precedes ->
      Format.fprintf fmt "precedes: %s reported@%d before %s requested@%d"
        (Txn_id.to_string p.before.who)
        p.before.at
        (Txn_id.to_string p.after.who)
        p.after.at

let explain_cycle ?extra t cycle =
  let b = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer b in
  List.iter
    (fun (a, bb, prov) ->
      Format.fprintf fmt "%s -> %s [%a]@\n" (Txn_id.to_string a)
        (Txn_id.to_string bb)
        (fun fmt -> function
          | Some p -> pp_provenance fmt p
          | None -> Format.pp_print_string fmt "unknown edge")
        prov)
    (cycle_witness ?extra t cycle);
  Format.pp_print_flush fmt ();
  Buffer.contents b

(* --- Admission speculation --------------------------------------------- *)

(* The edges [feed (Commit w)] witnesses, computed without changing
   anything the monitor reports: the edges of [w]'s walk.  The walk is
   kept for that [Commit], which applies it when it is the next action
   fed.  All other feed actions are edge-free or target fresh nodes (a
   [Request_commit] of an uncommitted access is always deferred as an
   item; a [Request_create] precedes-edge points at a brand-new node
   with no outgoing edges), and only a top has a list, so only a top's
   commit can close a cycle and gating top-level commits on this edge
   set is a complete admission test.  Edges the graph already holds are
   kept: feeding skips them, but a sharded gate must still see a local
   edge its spine does not order. *)
let prospective_commit_edges t w =
  let steps = wake t w in
  t.walked <- Some (w, steps);
  List.concat_map snd steps

(* One cycle test, on the order the graph maintains.  Edges the graph
   already holds are forward in it, so they cost the test nothing; the
   ones it does not hold are named only on a veto, for the witness. *)
let edges_would_cycle t edges =
  let pairs = List.map (fun (a, b, _) -> (a, b)) edges in
  match Graph.would_close_cycle t.g pairs with
  | None -> None
  | Some path ->
      let fresh (a, b, _) = not (Graph.mem_edge t.g a b) in
      Some (path, List.filter fresh edges)

(* A compact per-edge label for DOT: the witnessing actions with their
   feed indices (and the conflicting object). *)
let edge_label t a b =
  match Graph.label t.g a b with
  | None -> None
  | Some p ->
      Some
        (match p.kind with
        | Conflict ->
            Printf.sprintf "%s: %s@%d ~ %s@%d"
              (match p.before.where with
              | Some x -> Obj_id.name x
              | None -> "?")
              (Txn_id.to_string p.before.who)
              p.before.at
              (Txn_id.to_string p.after.who)
              p.after.at
        | Precedes ->
            Printf.sprintf "precedes @%d -> @%d" p.before.at p.after.at)

let dot t =
  let cycle = Option.value ~default:[] (Graph.find_cycle t.g) in
  Dot.of_graph ~cycle ~edge_label:(edge_label t) t.g
