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

type op_record = {
  access : Txn_id.t;
  value : Value.t;
  seq : int;
  at : int;  (* feed index of the recording Request_commit *)
  mutable op_visible : bool;
}

(* What to do when a transaction becomes visible to T0. *)
type item =
  | Activate_op of Obj_id.t * op_record
  | Activate_edge of Txn_id.t * Txn_id.t * provenance
  | Activate_node of Txn_id.t

type visibility = Visible | Dead | Pending of int

type obj_state = {
  mutable ops : op_record list;  (* newest first *)
  mutable next_seq : int;
  mutable obj_alarmed : bool;
}

type t = {
  schema : Schema.t;
  mode : Sg.conflict_mode;
  g : Graph.t;
  committed : unit Txn_id.Tbl.t;
  aborted : unit Txn_id.Tbl.t;
  vis : visibility Txn_id.Tbl.t;
  waiters : Txn_id.t list Txn_id.Tbl.t;  (* ancestor -> dependents *)
  items : item list Txn_id.Tbl.t;  (* txn -> actions on visibility *)
  frontier : (Txn_id.t * int) list Txn_id.Tbl.t;
      (* parent -> its maximal reported children (see [report]), each
         with the report's feed index *)
  requested : int Txn_id.Tbl.t;
      (* open request -> its feed index, until the report *)
  objects : obj_state Obj_id.Tbl.t;
  edge_prov : (Txn_id.t * Txn_id.t, provenance) Hashtbl.t;
      (* first witness per inserted edge (edges are deduplicated) *)
  mutable pending_edges : (Txn_id.t * Txn_id.t * provenance) list;
      (* edges inserted by the current feed, for the event stream *)
  mutable first_cycle : Txn_id.t list option;
  mutable any_alarm : bool;
  mutable n_feeds : int;
  mutable n_operations : int;
  mutable n_cycle_alarms : int;
  mutable n_inappropriate_alarms : int;
}

let create ?mode schema =
  let mode = match mode with Some m -> m | None -> Sg.Operation_level in
  let objects = Obj_id.Tbl.create 16 in
  List.iter
    (fun x ->
      Obj_id.Tbl.add objects x { ops = []; next_seq = 0; obj_alarmed = false })
    schema.Schema.objects;
  {
    schema;
    mode;
    g = Graph.create ();
    committed = Txn_id.Tbl.create 64;
    aborted = Txn_id.Tbl.create 16;
    vis = Txn_id.Tbl.create 64;
    waiters = Txn_id.Tbl.create 64;
    items = Txn_id.Tbl.create 64;
    frontier = Txn_id.Tbl.create 16;
    requested = Txn_id.Tbl.create 32;
    objects;
    edge_prov = Hashtbl.create 64;
    pending_edges = [];
    first_cycle = None;
    any_alarm = false;
    n_feeds = 0;
    n_operations = 0;
    n_cycle_alarms = 0;
    n_inappropriate_alarms = 0;
  }

let graph t = t.g
let alarmed t = t.any_alarm

let counters t =
  {
    feeds = t.n_feeds;
    operations = t.n_operations;
    edges = Graph.n_edges t.g;
    cycle_alarms = t.n_cycle_alarms;
    inappropriate_alarms = t.n_inappropriate_alarms;
  }

(* The witness sibling order, read directly off the topological order
   the incremental detector maintains (Pearce-Kelly invariant: while
   no cycle has been detected, every inserted edge is forward in that
   order).  SG edges only relate siblings, so grouping the order by
   parent yields per-parent chains consistent with every edge — a
   valid witness order for Theorem 8, with no final topological sort
   over the finished graph.  [None] once a cycle alarm has fired. *)
let witness_order t = Option.map Sg.sibling_order_of_topo (Graph.order t.g)

(* Register [u] in the visibility tracker; returns its status. *)
let visibility t u =
  match Txn_id.Tbl.find_opt t.vis u with
  | Some v -> v
  | None ->
      let ancestors =
        List.filter (fun a -> not (Txn_id.is_root a)) (Txn_id.ancestors u)
      in
      let v =
        if List.exists (fun a -> Txn_id.Tbl.mem t.aborted a) ancestors then Dead
        else begin
          let missing =
            List.filter (fun a -> not (Txn_id.Tbl.mem t.committed a)) ancestors
          in
          match missing with
          | [] -> Visible
          | _ ->
              List.iter
                (fun a ->
                  let l =
                    match Txn_id.Tbl.find_opt t.waiters a with
                    | Some l -> l
                    | None -> []
                  in
                  Txn_id.Tbl.replace t.waiters a (u :: l))
                missing;
              Pending (List.length missing)
        end
      in
      Txn_id.Tbl.replace t.vis u v;
      v

let add_item t u item =
  let l = match Txn_id.Tbl.find_opt t.items u with Some l -> l | None -> [] in
  Txn_id.Tbl.replace t.items u (item :: l)

(* Insert through the incremental detector: {!Graph.add_edge_checked}
   maintains a topological order and searches only the region the new
   edge can disturb, so most insertions are O(1) and none re-walks the
   whole graph. *)
let insert_edge t ~prov a b =
  if Txn_id.equal a b || Graph.mem_edge t.g a b then []
  else begin
    Hashtbl.replace t.edge_prov (a, b) prov;
    t.pending_edges <- (a, b, prov) :: t.pending_edges;
    match Graph.add_edge_checked t.g a b with
    | Graph.Ok _ -> []
    | Graph.Cycle path ->
        (* path is b ... a; the cycle is that path (edge a->b closes it). *)
        t.any_alarm <- true;
        if t.first_cycle = None then t.first_cycle <- Some path;
        [ Cycle path ]
  end

let ops_conflict t (a, va) (b, vb) =
  match t.mode with
  | Sg.Operation_level -> Schema.operations_conflict t.schema (a, va) (b, vb)
  | Sg.Access_level -> Schema.accesses_conflict t.schema a b

(* The one conflict-edge rule, for the feed and the admission
   speculation alike: operation [record] on [x] becomes visible, so
   every [visible], unrelated, conflicting operation on [x] yields an
   edge [a -> b] between the children of the pair's lca, earlier
   response first. *)
let conflict_edges t ~visible x record emit =
  List.iter
    (fun other ->
      if
        other.seq <> record.seq && visible other
        && (not (Txn_id.related record.access other.access))
        && ops_conflict t
             (record.access, record.value)
             (other.access, other.value)
      then begin
        let earlier, later =
          if other.seq < record.seq then (other, record) else (record, other)
        in
        let l = Txn_id.lca earlier.access later.access in
        emit
          (Txn_id.child_of_on_path ~ancestor:l earlier.access)
          (Txn_id.child_of_on_path ~ancestor:l later.access)
          {
            kind = Conflict;
            before = { who = earlier.access; at = earlier.at; where = Some x };
            after = { who = later.access; at = later.at; where = Some x };
          }
      end)
    (Obj_id.Tbl.find t.objects x).ops

(* An operation became visible: insert its conflict edges; the replay
   check is deferred to the end of the fed action (a single commit can
   wake several operations, and replaying between the wakeups of one
   commit would examine a state no prefix of the behavior exhibits). *)
let activate_op t touched x record =
  record.op_visible <- true;
  touched := x :: !touched;
  let alarms = ref [] in
  conflict_edges t ~visible:(fun r -> r.op_visible) x record (fun a b prov ->
      alarms := insert_edge t ~prov a b @ !alarms);
  !alarms

(* Replay an object's visible sequence (end-of-action check). *)
let replay_object t x =
  let ost = Obj_id.Tbl.find t.objects x in
  if ost.obj_alarmed then []
  else begin
    let visible_ops =
      List.filter (fun r -> r.op_visible) ost.ops
      |> List.sort (fun r1 r2 -> compare r1.seq r2.seq)
      |> List.map (fun r -> (t.schema.Schema.op_of r.access, r.value))
    in
    if not (Serial_spec.legal (t.schema.Schema.dtype_of x) visible_ops) then begin
      ost.obj_alarmed <- true;
      t.any_alarm <- true;
      [ Inappropriate x ]
    end
    else []
  end

let run_item t touched = function
  | Activate_op (x, record) -> activate_op t touched x record
  | Activate_edge (a, b, prov) -> insert_edge t ~prov a b
  | Activate_node u ->
      Graph.add_node t.g u;
      []

let dependents t w =
  match Txn_id.Tbl.find_opt t.waiters w with Some l -> l | None -> []

(* [u]'s queued items, in the order they were queued. *)
let queued t u =
  match Txn_id.Tbl.find_opt t.items u with Some l -> List.rev l | None -> []

(* The one wakeup rule, for the feed and the admission speculation
   alike: committing [w] makes a dependent visible when [w] was the
   last uncommitted ancestor it was waiting on. *)
let wakes t u =
  match Txn_id.Tbl.find_opt t.vis u with Some (Pending n) -> n <= 1 | _ -> false

(* A commit arrived: wake dependents.  [w] requested commit, so it
   requests no more children and its frontier goes. *)
let process_commit t touched w =
  Txn_id.Tbl.replace t.committed w ();
  Txn_id.Tbl.remove t.frontier w;
  let deps = dependents t w in
  Txn_id.Tbl.remove t.waiters w;
  List.concat_map
    (fun u ->
      if wakes t u then begin
        Txn_id.Tbl.replace t.vis u Visible;
        let items = queued t u in
        Txn_id.Tbl.remove t.items u;
        List.concat_map (run_item t touched) items
      end
      else begin
        (match Txn_id.Tbl.find_opt t.vis u with
        | Some (Pending n) -> Txn_id.Tbl.replace t.vis u (Pending (n - 1))
        | _ -> ());
        []
      end)
    deps

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
  (* Kill dependents transitively reachable via pending status. *)
  let kill u =
    match Txn_id.Tbl.find_opt t.vis u with
    | Some (Pending _) ->
        Txn_id.Tbl.replace t.vis u Dead;
        Txn_id.Tbl.remove t.items u
    | _ -> ()
  in
  (match Txn_id.Tbl.find_opt t.waiters w with
  | Some l -> List.iter kill l
  | None -> ());
  Txn_id.Tbl.remove t.waiters w;
  []

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
    let inserted = Graph.n_edges t.g - edges_before in
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
  match Txn_id.Tbl.find_opt t.vis p with
  | Some Dead -> ()
  | _ ->
      let l = frontier t p in
      if not (List.exists (fun (s, _) -> Txn_id.equal u s) l) then
        Txn_id.Tbl.replace t.frontier p
          ((u, now) :: List.filter (fun (_, rep) -> rep > req) l)

let feed ?(obs = Obs.null) t (a : Action.t) =
  t.n_feeds <- t.n_feeds + 1;
  let now = t.n_feeds in
  let edges_before = Graph.n_edges t.g in
  let touched = ref [] in
  t.pending_edges <- [];
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
      else
        match visibility t p with
        | Visible -> Graph.add_node t.g u
        | Pending _ -> add_item t p (Activate_node u)
        | Dead -> ())
  | _ -> ());
  let alarms =
    match a with
  | Action.Request_commit (u, v) when System_type.is_access t.schema.Schema.sys u
    -> (
      let x = System_type.object_of_exn t.schema.Schema.sys u in
      let ost = Obj_id.Tbl.find t.objects x in
      let seq = ost.next_seq in
      t.n_operations <- t.n_operations + 1;
      ost.next_seq <- seq + 1;
      let record =
        { access = u; value = v; seq; at = now; op_visible = false }
      in
      ost.ops <- record :: ost.ops;
      match visibility t u with
      | Visible -> activate_op t touched x record
      | Pending _ ->
          add_item t u (Activate_op (x, record));
          []
      | Dead -> [])
  | Action.Commit u -> process_commit t touched u
  | Action.Abort u -> process_abort t u
  | Action.Report_commit (u, _) | Action.Report_abort u ->
      if not (Txn_id.is_root u) then report t u now;
      []
  | Action.Request_create u when not (Txn_id.is_root u) ->
      let p = Txn_id.parent_exn u in
      let vis = if Txn_id.is_root p then Visible else visibility t p in
      if vis = Dead then []
      else begin
        Txn_id.Tbl.replace t.requested u now;
        List.concat_map
          (fun (sib, reported_at) ->
            let prov =
              {
                kind = Precedes;
                before = { who = sib; at = reported_at; where = None };
                after = { who = u; at = now; where = None };
              }
            in
            if vis = Visible then insert_edge t ~prov sib u
            else begin
              add_item t p (Activate_edge (sib, u, prov));
              []
            end)
          (frontier t p)
      end
  | Action.Create _ | Action.Inform_commit _ | Action.Inform_abort _
  | Action.Request_commit _ | Action.Request_create _ ->
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
let open_requests t = Txn_id.Tbl.length t.requested

let feed_trace ?obs t trace =
  let alarms = ref [] in
  Array.iteri
    (fun i a ->
      List.iter (fun al -> alarms := (i, al) :: !alarms) (feed ?obs t a))
    trace;
  List.rev !alarms

let visible_operations t x =
  let ost = Obj_id.Tbl.find t.objects x in
  List.filter (fun r -> r.op_visible) ost.ops
  |> List.sort (fun r1 r2 -> compare r1.seq r2.seq)
  |> List.map (fun r -> (r.access, r.value))

(* --- Attribution ------------------------------------------------------- *)

let edge_provenance t a b = Hashtbl.find_opt t.edge_prov (a, b)
let first_cycle t = t.first_cycle

type prospective = (Txn_id.t * Txn_id.t * provenance) list

(* The consecutive (wrapping) edges of a cycle, with what inserted (or
   would insert) each.  [extra] supplies provenance for edges that are
   only prospective (admission speculation); everything else resolves
   against the recorded witnesses.  Every edge of a cycle reported by
   [feed] was inserted by this monitor, so the provenance is only
   [None] for a list that is not one of its cycles. *)
let cycle_witness ?(extra = []) t cycle =
  match cycle with
  | [] -> []
  | _ ->
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
            | None -> edge_provenance t a b
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

(* The edges [feed (Commit w)] would insert, computed without mutating
   anything: the feed's own wakeup and conflict-edge rules ({!wakes},
   {!conflict_edges}) run over the dependents [w] would wake, but the
   edges are collected instead of inserted.  Operations "activated"
   earlier in the simulated commit are visible to later ones, exactly
   as in the real path, via the local [newly] set.  All other feed
   actions are edge-free or target fresh nodes (a [Request_commit] of
   an uncommitted access is always deferred as an item; a
   [Request_create] precedes-edge points at a brand-new node with no
   outgoing edges), so only commits can close a cycle and gating them
   on this edge set is a complete admission test.  Edges the graph
   already holds are kept: feeding skips them, but a sharded gate must
   still see a local edge its spine does not order. *)
let prospective_commit_edges t w =
  let newly : (Obj_id.t * int, unit) Hashtbl.t = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let candidate a b prov =
    if (not (Txn_id.equal a b)) && not (Hashtbl.mem seen (a, b)) then begin
      Hashtbl.add seen (a, b) ();
      out := (a, b, prov) :: !out
    end
  in
  List.iter
    (fun u ->
      if wakes t u then
        List.iter
          (function
            | Activate_op (x, record) ->
                let visible r = r.op_visible || Hashtbl.mem newly (x, r.seq) in
                conflict_edges t ~visible x record candidate;
                Hashtbl.replace newly (x, record.seq) ()
            | Activate_edge (a, b, prov) -> candidate a b prov
            | Activate_node _ -> ())
          (queued t u))
    (dependents t w);
  List.rev !out

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

let commit_would_cycle t w = edges_would_cycle t (prospective_commit_edges t w)

(* A compact per-edge label for DOT: the witnessing actions with their
   feed indices (and the conflicting object). *)
let edge_label t a b =
  match edge_provenance t a b with
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
  let cycle = Option.value ~default:[] t.first_cycle in
  Dot.of_graph ~cycle ~edge_label:(edge_label t) t.g
