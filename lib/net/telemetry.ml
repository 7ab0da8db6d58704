open Nt_base
open Nt_obs
open Nt_sg

module Hub = struct
  type t = {
    interval_s : float;
    win : Window.t;
    latency_w : Window.whistogram;
    latency_c : Metrics.histogram;  (* cumulative twin, for --prom *)
    registry : Metrics.t;
    mutable prev_snap : Snapshot.t;
    top_k : int;
    mutable seq : int;
    (* per-stage latency histograms: windowed + cumulative twins,
       resolved once per name (the serving loop observes by string a
       handful of times per request) *)
    stage_tbl : (string, Window.whistogram * Metrics.histogram) Hashtbl.t;
    mutable stage_order : string list;  (* reporting order, reversed *)
    gc_w : Window.whistogram;
    gc_c : Metrics.histogram;
    gc_pct_g : Metrics.gauge;
    mutable gc_busy : float;  (* pause seconds in the open interval *)
    mutable t_cut : float;  (* when the open interval started *)
    (* previous cumulative engine readings, for window deltas *)
    mutable p_submitted : int;
    mutable p_committed : int;
    mutable p_aborted : int;
    mutable p_vetoed : int;
    mutable p_orphans : int;
    mutable p_alarms : int;
  }

  let stage_instruments t name =
    match Hashtbl.find_opt t.stage_tbl name with
    | Some pair -> pair
    | None ->
        let pair =
          ( Window.histogram t.win ("stage." ^ name),
            Metrics.histogram t.registry ("served.stage." ^ name ^ "_us") )
        in
        Hashtbl.add t.stage_tbl name pair;
        t.stage_order <- name :: t.stage_order;
        pair

  let create ?(slots = 8) ?(top_k = 5) ?(t0 = 0.) ~interval_s metrics =
    let win = Window.create ~slots () in
    let t =
      {
        interval_s;
        win;
        latency_w = Window.histogram win "latency_us";
        latency_c = Metrics.histogram metrics "served.latency_us";
        registry = metrics;
        prev_snap = Snapshot.capture metrics;
        top_k;
        seq = 0;
        stage_tbl = Hashtbl.create 16;
        stage_order = [];
        gc_w = Window.histogram win "gc.pause_us";
        gc_c = Metrics.histogram metrics "served.gc.pause_us";
        gc_pct_g = Metrics.gauge metrics "served.gc.pct";
        gc_busy = 0.;
        t_cut = t0;
        p_submitted = 0;
        p_committed = 0;
        p_aborted = 0;
        p_vetoed = 0;
        p_orphans = 0;
        p_alarms = 0;
      }
    in
    (* Pre-register the canonical stages (and the server-global
       durability stages) so every frame carries all of them,
       sample-bearing or not, in lifecycle order. *)
    List.iter
      (fun s -> ignore (stage_instruments t s))
      (Stage.stages @ Stage.wal_stages);
    t

  let seq t = t.seq
  let interval_s t = t.interval_s

  let observe_latency t us =
    Window.observe t.latency_w us;
    Metrics.observe t.latency_c us

  let observe_stage t name us =
    let w, c = stage_instruments t name in
    Window.observe w us;
    Metrics.observe c us

  let observe_gc t ~dur_us =
    Window.observe t.gc_w dur_us;
    Metrics.observe t.gc_c dur_us;
    t.gc_busy <- t.gc_busy +. (float_of_int dur_us /. 1e6)

  (* The runtime registers one [runtime.refused.<obj>] counter per
     schema object and bumps it on every refused access, so the
     interval delta of that family ranks this window's contended
     objects without any event stream in the loop. *)
  let refused_prefix = "runtime.refused."

  let hot_top t delta =
    let plen = String.length refused_prefix in
    Metrics.counters delta
    |> List.filter_map (fun (name, n) ->
           if
             n > 0
             && String.length name > plen
             && String.sub name 0 plen = refused_prefix
           then Some (String.sub name plen (String.length name - plen), n)
           else None)
    |> List.sort (fun (a, na) (b, nb) ->
           if na <> nb then compare nb na else compare a b)
    |> List.filteri (fun i _ -> i < t.top_k)

  (* The cumulative engine readings a frame differences against its
     previous cut.  A single-engine server builds them with
     [counts_of_engine]; a sharded one sums per-shard snapshots with
     [merge] — the hub itself never touches an engine, so it cannot
     race a worker domain. *)
  type counts = {
    n_submitted : int;
    n_committed : int;
    n_aborted : int;
    n_vetoed : int;
    n_orphans : int;
    n_live : int;
    n_doomed : int;
    n_sg_nodes : int;
    n_sg_edges : int;
    n_sg_reorders : int;
  }

  let zero_counts =
    {
      n_submitted = 0;
      n_committed = 0;
      n_aborted = 0;
      n_vetoed = 0;
      n_orphans = 0;
      n_live = 0;
      n_doomed = 0;
      n_sg_nodes = 0;
      n_sg_edges = 0;
      n_sg_reorders = 0;
    }

  let counts_of_engine eng =
    let graph = Monitor.graph (Admission.monitor (Engine.admission eng)) in
    {
      n_submitted = Engine.submitted eng;
      n_committed = Engine.committed_top eng;
      n_aborted = Engine.aborted_top eng;
      n_vetoed = Engine.vetoed eng;
      n_orphans = Engine.orphan_aborts eng;
      n_live = Engine.live_top eng;
      n_doomed = Engine.doomed_count eng;
      n_sg_nodes = Graph.n_nodes graph;
      n_sg_edges = Graph.n_edges graph;
      n_sg_reorders = Graph.reorders graph;
    }

  (* Summing the graph sizes is exact for a sharded monitor: shard SGs
     partition the top-level transactions, so their node and edge sets
     are disjoint (cross-shard edges live in the spine, not in any
     shard's graph). *)
  let merge cs =
    List.fold_left
      (fun a c ->
        {
          n_submitted = a.n_submitted + c.n_submitted;
          n_committed = a.n_committed + c.n_committed;
          n_aborted = a.n_aborted + c.n_aborted;
          n_vetoed = a.n_vetoed + c.n_vetoed;
          n_orphans = a.n_orphans + c.n_orphans;
          n_live = a.n_live + c.n_live;
          n_doomed = a.n_doomed + c.n_doomed;
          n_sg_nodes = a.n_sg_nodes + c.n_sg_nodes;
          n_sg_edges = a.n_sg_edges + c.n_sg_edges;
          n_sg_reorders = a.n_sg_reorders + c.n_sg_reorders;
        })
      zero_counts cs

  let peek ?(per_shard = []) t ~counts:c ~alarms ~conns ~subscribers ~now =
    t.seq <- t.seq + 1;
    let delta, _ = Snapshot.delta_live ~at:now ~prev:t.prev_snap t.registry in
    let w_requests =
      Metrics.counter_value (Metrics.counter delta "served.requests")
    in
    {
      Wire.seq = t.seq;
      t_mono = now;
      interval_s = t.interval_s;
      w_requests;
      w_submitted = c.n_submitted - t.p_submitted;
      w_committed = c.n_committed - t.p_committed;
      w_aborted = c.n_aborted - t.p_aborted;
      w_vetoed = c.n_vetoed - t.p_vetoed;
      w_orphans = c.n_orphans - t.p_orphans;
      w_alarms = alarms - t.p_alarms;
      w_latency = Wire.hist_of_view (Window.histogram_current t.latency_w);
      o_live = c.n_live;
      o_doomed = c.n_doomed;
      o_conns = conns;
      o_subscribers = subscribers;
      c_submitted = c.n_submitted;
      c_committed = c.n_committed;
      c_aborted = c.n_aborted;
      c_vetoed = c.n_vetoed;
      c_alarms = alarms;
      sg_nodes = c.n_sg_nodes;
      sg_edges = c.n_sg_edges;
      sg_reorders = c.n_sg_reorders;
      hot = hot_top t delta;
      stages =
        List.rev_map
          (fun name ->
            let w, _ = Hashtbl.find t.stage_tbl name in
            (name, Wire.hist_of_view (Window.histogram_current w)))
          t.stage_order;
      gc_pause = Wire.hist_of_view (Window.histogram_current t.gc_w);
      gc_pct =
        (let elapsed = now -. t.t_cut in
         if elapsed <= 0. then 0.
         else Float.min 100. (100. *. t.gc_busy /. elapsed));
      per_shard;
    }

  let cut ?per_shard t ~counts:c ~alarms ~conns ~subscribers ~now =
    let frame = peek ?per_shard t ~counts:c ~alarms ~conns ~subscribers ~now in
    t.p_submitted <- c.n_submitted;
    t.p_committed <- c.n_committed;
    t.p_aborted <- c.n_aborted;
    t.p_vetoed <- c.n_vetoed;
    t.p_orphans <- c.n_orphans;
    t.p_alarms <- alarms;
    t.prev_snap <- Snapshot.capture ~at:now t.registry;
    Metrics.set t.gc_pct_g frame.Wire.gc_pct;
    t.gc_busy <- 0.;
    t.t_cut <- now;
    Window.tick t.win;
    frame

end

module Audit = struct
  type t = { oc : out_channel; mutable entries : int }

  let open_file path = { oc = open_out path; entries = 0 }
  let entries t = t.entries

  let write t fields =
    Json.output t.oc (Json.Obj fields);
    output_char t.oc '\n';
    flush t.oc;
    t.entries <- t.entries + 1

  let common ~ev ~now ~req ~client ~txn ~latency_us =
    let base =
      [
        ("ev", Json.Str ev);
        ("t", Json.Float now);
        ("client", Json.Str client);
        ("txn", Json.Str (Txn_id.to_string txn));
        ("latency_us", Json.Int latency_us);
      ]
    in
    match req with
    | None -> base
    | Some r -> ("req", Json.Str r) :: base

  let veto t ~now ~req ~client ~txn ~latency_us (v : Admission.veto) =
    write t
      (common ~ev:"veto" ~now ~req ~client ~txn ~latency_us
      @ [
          ("node", Json.Str (Txn_id.to_string v.Admission.node));
          ( "cycle",
            Json.Arr
              (List.map
                 (fun u -> Json.Str (Txn_id.to_string u))
                 v.Admission.cycle) );
          ("witness", Json.Str v.Admission.witness);
        ])

  let slow t ~now ~req ~client ~txn ~latency_us ~outcome =
    write t
      (common ~ev:"slow" ~now ~req ~client ~txn ~latency_us
      @ [ ("outcome", Json.Str outcome) ])

  let close t = close_out t.oc
end
