open Nt_base
open Nt_obs

module Hub = struct
  type t = {
    interval_s : float;
    interval : Metrics.t;  (* this interval's histograms; [cut] resets it *)
    latency_w : Metrics.histogram;
    latency_c : Metrics.histogram;  (* cumulative twin, for --prom *)
    registry : Metrics.t;
    mutable prev : Metrics.t;  (* [registry] as of the last cut *)
    mutable seq : int;
    (* per-stage latency histograms: interval + cumulative twins,
       resolved once per name (the serving loop observes by string a
       handful of times per request) *)
    stage_tbl : (string, Metrics.histogram * Metrics.histogram) Hashtbl.t;
    mutable stage_order : string list;  (* reporting order, reversed *)
    gc_w : Metrics.histogram;
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
          ( Metrics.histogram t.interval ("stage." ^ name),
            Metrics.histogram t.registry ("served.stage." ^ name ^ "_us") )
        in
        Hashtbl.add t.stage_tbl name pair;
        t.stage_order <- name :: t.stage_order;
        pair

  let top_k = 5

  let create ~interval_s metrics =
    let interval = Metrics.create () in
    let t =
      {
        interval_s;
        interval;
        latency_w = Metrics.histogram interval "latency_us";
        latency_c = Metrics.histogram metrics "served.latency_us";
        registry = metrics;
        prev = Metrics.copy metrics;
        seq = 0;
        stage_tbl = Hashtbl.create 16;
        stage_order = [];
        gc_w = Metrics.histogram interval "gc.pause_us";
        gc_c = Metrics.histogram metrics "served.gc.pause_us";
        gc_pct_g = Metrics.gauge metrics "served.gc.pct";
        gc_busy = 0.;
        t_cut = 0.;
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
    Metrics.observe t.latency_w us;
    Metrics.observe t.latency_c us

  let observe_stage t name us =
    let w, c = stage_instruments t name in
    Metrics.observe w us;
    Metrics.observe c us

  let observe_gc t ~dur_us =
    Metrics.observe t.gc_w dur_us;
    Metrics.observe t.gc_c dur_us;
    t.gc_busy <- t.gc_busy +. (float_of_int dur_us /. 1e6)

  (* The runtime registers a [runtime.refused.<obj>] counter at an
     object's first refused access and bumps it on every one, so the
     interval delta of that family ranks this window's contended
     objects without any event stream in the loop. *)
  let refused_prefix = "runtime.refused."

  let hot_top delta =
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
    |> List.filteri (fun i _ -> i < top_k)

  let peek ?(per_shard = []) t ~counts:(c : Engine.stats) ~alarms ~conns
      ~subscribers ~now =
    t.seq <- t.seq + 1;
    let delta = Metrics.diff ~cur:t.registry ~prev:t.prev in
    let w_requests =
      Metrics.counter_value (Metrics.counter delta "served.requests")
    in
    {
      Wire.seq = t.seq;
      t_mono = now;
      interval_s = t.interval_s;
      w_requests;
      w_submitted = c.sh_submitted - t.p_submitted;
      w_committed = c.sh_committed - t.p_committed;
      w_aborted = c.sh_aborted - t.p_aborted;
      w_vetoed = c.sh_vetoed - t.p_vetoed;
      w_orphans = c.sh_orphans - t.p_orphans;
      w_alarms = alarms - t.p_alarms;
      w_latency = Wire.hist_of_metrics t.latency_w;
      o_live = c.sh_live;
      o_doomed = c.sh_doomed;
      o_conns = conns;
      o_subscribers = subscribers;
      c_submitted = c.sh_submitted;
      c_committed = c.sh_committed;
      c_aborted = c.sh_aborted;
      c_vetoed = c.sh_vetoed;
      c_alarms = alarms;
      sg_nodes = c.sh_sg_nodes;
      sg_edges = c.sh_sg_edges;
      sg_reorders = c.sh_sg_reorders;
      hot = hot_top delta;
      stages =
        List.rev_map
          (fun name ->
            let w, _ = Hashtbl.find t.stage_tbl name in
            (name, Wire.hist_of_metrics w))
          t.stage_order;
      gc_pause = Wire.hist_of_metrics t.gc_w;
      gc_pct =
        (let elapsed = now -. t.t_cut in
         if elapsed <= 0. then 0.
         else Float.min 100. (100. *. t.gc_busy /. elapsed));
      per_shard;
    }

  let cut ?per_shard t ~counts:(c : Engine.stats) ~alarms ~conns ~subscribers
      ~now =
    let frame = peek ?per_shard t ~counts:c ~alarms ~conns ~subscribers ~now in
    t.p_submitted <- c.sh_submitted;
    t.p_committed <- c.sh_committed;
    t.p_aborted <- c.sh_aborted;
    t.p_vetoed <- c.sh_vetoed;
    t.p_orphans <- c.sh_orphans;
    t.p_alarms <- alarms;
    t.prev <- Metrics.copy t.registry;
    Metrics.set t.gc_pct_g frame.Wire.gc_pct;
    t.gc_busy <- 0.;
    t.t_cut <- now;
    Metrics.reset t.interval;
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
