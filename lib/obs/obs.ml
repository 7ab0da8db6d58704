open Nt_base

(* One cell per transaction id ever seen; cells are mutated in place and
   never removed, so a recorder shared across many runs (where the same
   ids recur) does one hashed lookup per lifecycle action and no
   allocation after the first run. *)
type span_cell = { mutable begin_tick : int; mutable live : bool }

type t = {
  enabled : bool;
  emit_events : bool;  (* sink is not Sink.null *)
  sink : Sink.t;
  m : Metrics.t;
  mutable clock : int;
  open_spans : span_cell Txn_id.Tbl.t;
  c_actions : Metrics.counter;
  c_created : Metrics.counter;
  c_committed : Metrics.counter;
  c_aborted : Metrics.counter;
  h_commit_ticks : Metrics.histogram;
  h_abort_ticks : Metrics.histogram;
}

let make ~enabled ~sink ~m () =
  {
    enabled;
    emit_events = sink != Sink.null;
    sink;
    m;
    clock = 0;
    open_spans = Txn_id.Tbl.create 64;
    c_actions = Metrics.counter m "actions";
    c_created = Metrics.counter m "txn.created";
    c_committed = Metrics.counter m "txn.committed";
    c_aborted = Metrics.counter m "txn.aborted";
    h_commit_ticks = Metrics.histogram m "txn.commit.ticks";
    h_abort_ticks = Metrics.histogram m "txn.abort.ticks";
  }

let null = make ~enabled:false ~sink:Sink.null ~m:(Metrics.create ()) ()

let create ?metrics ?(sink = Sink.null) () =
  let m = match metrics with Some m -> m | None -> Metrics.create () in
  make ~enabled:true ~sink ~m ()

let enabled t = t.enabled
let emitting t = t.enabled && t.emit_events
let metrics t = t.m
let now t = t.clock
let close t = t.sink.Sink.close ()

let finish t txn outcome =
  let start =
    match Txn_id.Tbl.find_opt t.open_spans txn with
    | Some cell when cell.live ->
        cell.live <- false;
        cell.begin_tick
    | Some _ | None -> t.clock
  in
  let dur = t.clock - start in
  (match outcome with
  | Event.Committed ->
      Metrics.incr t.c_committed;
      Metrics.observe t.h_commit_ticks dur
  | Event.Aborted ->
      Metrics.incr t.c_aborted;
      Metrics.observe t.h_abort_ticks dur);
  if t.emit_events then
    t.sink.Sink.emit (Event.End { txn; ts = t.clock; outcome; dur })

let lifecycle t (a : Action.t) =
  match a with
  | Action.Create txn ->
      Metrics.incr t.c_created;
      (match Txn_id.Tbl.find_opt t.open_spans txn with
      | Some cell ->
          cell.begin_tick <- t.clock;
          cell.live <- true
      | None ->
          Txn_id.Tbl.add t.open_spans txn { begin_tick = t.clock; live = true });
      if t.emit_events then t.sink.Sink.emit (Event.Begin { txn; ts = t.clock })
  | Action.Commit txn -> finish t txn Event.Committed
  | Action.Abort txn -> finish t txn Event.Aborted
  | Action.Request_create _ | Action.Request_commit _ | Action.Report_commit _
  | Action.Report_abort _ | Action.Inform_commit _ | Action.Inform_abort _ ->
      ()

let on_action t (a : Action.t) =
  if t.enabled then begin
    t.clock <- t.clock + 1;
    Metrics.incr t.c_actions;
    lifecycle t a
  end

(* Direct span hooks for hosts that track creation ticks themselves
   (the generic runtime stores the begin tick in its per-transaction
   status record, which it touches anyway): no hashing, no span table,
   just instrument updates and — when a sink listens — events. *)
let span_begin t ts txn =
  if t.enabled then begin
    t.clock <- ts;
    Metrics.incr t.c_created;
    if t.emit_events then t.sink.Sink.emit (Event.Begin { txn; ts })
  end

let span_end t ts ~began txn outcome =
  if t.enabled then begin
    t.clock <- ts;
    let dur = ts - began in
    (match outcome with
    | Event.Committed ->
        Metrics.incr t.c_committed;
        Metrics.observe t.h_commit_ticks dur
    | Event.Aborted ->
        Metrics.incr t.c_aborted;
        Metrics.observe t.h_abort_ticks dur);
    if t.emit_events then t.sink.Sink.emit (Event.End { txn; ts; outcome; dur })
  end

let settle t ~clock ~actions =
  if t.enabled then begin
    if clock > t.clock then t.clock <- clock;
    Metrics.incr ~by:actions t.c_actions
  end

let instant ?txn ?obj ?ts t name =
  if emitting t then begin
    (match ts with Some ts when ts > t.clock -> t.clock <- ts | _ -> ());
    t.sink.Sink.emit (Event.Instant { name; ts = t.clock; txn; obj })
  end

let counter_sample t name value =
  if emitting t then
    t.sink.Sink.emit (Event.Counter { name; ts = t.clock; value })

let wait ?ts t ~txn ~obj ~holders ~waited =
  if emitting t then begin
    (match ts with Some ts when ts > t.clock -> t.clock <- ts | _ -> ());
    t.sink.Sink.emit (Event.Wait { txn; obj; holders; ts = t.clock; waited })
  end

let sg_edge ?obj ?ts t ~src ~dst ~kind ~w1 ~w1_ts ~w2 ~w2_ts =
  if emitting t then begin
    (match ts with Some ts when ts > t.clock -> t.clock <- ts | _ -> ());
    t.sink.Sink.emit
      (Event.Edge { src; dst; kind; obj; w1; w1_ts; w2; w2_ts; ts = t.clock })
  end
