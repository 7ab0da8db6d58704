(* Tests for the observability layer: the metrics registry, the span
   derivation (both the generic [on_action] path and the runtime's
   timestamp-passing path), the streaming sinks, and the Chrome
   exporter's output shape. *)
open Core
open Util

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- metrics registry ------------------------------------------------ *)

let t_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "counter" 5 (Metrics.counter_value c);
  (* get-or-create returns the same instrument *)
  Metrics.incr (Metrics.counter m "a");
  check_int "shared" 6 (Metrics.counter_value c);
  let g = Metrics.gauge m "g" in
  Metrics.set g 2.5;
  check_bool "gauge" true (Metrics.gauge_value g = 2.5);
  (* a name cannot change kind *)
  check_bool "kind clash" true
    (try
       ignore (Metrics.histogram m "a");
       false
     with Invalid_argument _ -> true);
  Metrics.reset m;
  check_int "reset" 0 (Metrics.counter_value c)

let t_metrics_histogram () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 7; 100 ];
  let s = Metrics.histogram_stats h in
  check_int "count" 5 s.Metrics.count;
  check_int "sum" 109 s.Metrics.sum;
  check_int "min" 0 s.Metrics.min;
  check_int "max" 100 s.Metrics.max;
  check_bool "p50 bounds median" true (s.Metrics.p50 >= 1);
  check_bool "p99 bounds max" true (s.Metrics.p99 >= 100)

(* Boundary cases the hstats documentation promises: empty histograms
   are all-zero, a single observation is reported exactly (quantiles
   clamp to the raw max), and the top bucket clamps instead of
   overflowing. *)
let t_metrics_histogram_boundaries () =
  let m = Metrics.create () in
  let empty = Metrics.histogram_stats (Metrics.histogram m "empty") in
  check_int "empty count" 0 empty.Metrics.count;
  check_int "empty min" 0 empty.Metrics.min;
  check_int "empty max" 0 empty.Metrics.max;
  check_int "empty p50" 0 empty.Metrics.p50;
  check_int "empty p999" 0 empty.Metrics.p999;
  let h1 = Metrics.histogram m "single" in
  Metrics.observe h1 37;
  let s1 = Metrics.histogram_stats h1 in
  check_int "single min" 37 s1.Metrics.min;
  check_int "single max" 37 s1.Metrics.max;
  check_int "single p50 = the observation" 37 s1.Metrics.p50;
  check_int "single p99 = the observation" 37 s1.Metrics.p99;
  check_int "single p999 = the observation" 37 s1.Metrics.p999;
  (* max_int lands in the top bucket; stats stay exact for min/max and
     the quantile clamps to the raw max rather than 2^63-ish garbage *)
  let h2 = Metrics.histogram m "huge" in
  Metrics.observe h2 max_int;
  Metrics.observe h2 1;
  let s2 = Metrics.histogram_stats h2 in
  check_int "clamp max" max_int s2.Metrics.max;
  check_int "clamp min" 1 s2.Metrics.min;
  check_int "p99 clamps to raw max" max_int s2.Metrics.p99;
  (* p999 rank: 998 observations of 1 and two of 8 put rank 999 of
     1000 into the tail bucket, while p50 stays in the body *)
  let h3 = Metrics.histogram m "tail" in
  for _ = 1 to 998 do
    Metrics.observe h3 1
  done;
  Metrics.observe h3 8;
  Metrics.observe h3 8;
  let s3 = Metrics.histogram_stats h3 in
  check_int "p50 stays in the body" 1 s3.Metrics.p50;
  check_bool "p999 reaches the tail" true (s3.Metrics.p999 >= 8);
  (* negative observations clamp to bucket 0 *)
  let h4 = Metrics.histogram m "neg" in
  Metrics.observe h4 (-5);
  let s4 = Metrics.histogram_stats h4 in
  check_int "negative clamps to 0" 0 s4.Metrics.max;
  (* bucket bound helpers agree with the bucketing *)
  check_int "bucket 0 lower" 0 (Metrics.bucket_lower 0);
  check_int "bucket 0 upper" 0 (Metrics.bucket_upper 0);
  check_int "bucket 3 lower" 4 (Metrics.bucket_lower 3);
  check_int "bucket 3 upper" 7 (Metrics.bucket_upper 3)

let t_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter m "n");
  Metrics.observe (Metrics.histogram m "lat") 4;
  let s = Obs_json.to_string (Metrics.to_json m) in
  check_bool "has counter" true (contains s "\"n\":3");
  check_bool "has histogram" true (contains s "\"lat\"");
  check_bool "has count" true (contains s "\"count\":1")

(* --- interval histograms and registry deltas ------------------------ *)

(* The property behind every per-interval readout: each frame the
   telemetry hub cuts carries exactly the latency and stage values
   observed since the previous cut (a fresh histogram fed that
   interval's stream reads the same), and summed over the cuts those
   frames account for the cumulative [served.*] twins. *)
let t_hub_interval_sum_is_cumulative () =
  let rng = Rng.create 42 in
  let m = Metrics.create () in
  let hub = Telemetry.Hub.create ~interval_s:1.0 m in
  let counts = Engine.sum_stats [] in
  let fed = [| "read"; "execute"; "reply" |] in
  let frames = ref [] in
  for i = 1 to 10 do
    let fresh = Metrics.create () in
    for _ = 1 to Rng.int rng 50 do
      let v = Rng.int rng 10_000 in
      Telemetry.Hub.observe_latency hub v;
      Metrics.observe (Metrics.histogram fresh "latency_us") v;
      let stage = fed.(Rng.int rng (Array.length fed)) in
      let d = Rng.int rng 5_000 in
      Telemetry.Hub.observe_stage hub stage d;
      Metrics.observe (Metrics.histogram fresh stage) d
    done;
    let f =
      Telemetry.Hub.cut hub ~counts ~alarms:0 ~conns:0 ~subscribers:0
        ~now:(float_of_int i)
    in
    let expect name = Wire.hist_of_metrics (Metrics.histogram fresh name) in
    check_bool "latency = the interval's stream" true
      (f.Wire.w_latency = expect "latency_us");
    List.iter
      (fun (name, h) ->
        check_bool ("stage " ^ name ^ " = the interval's stream") true
          (h = expect name))
      f.Wire.stages;
    frames := f :: !frames
  done;
  let summed field =
    List.fold_left (fun a f -> a + (field f).Wire.h_count) 0 !frames
  in
  let total name =
    (Metrics.histogram_stats (Metrics.histogram m name)).Metrics.count
  in
  check_int "latency counts sum to served.latency_us"
    (total "served.latency_us")
    (summed (fun f -> f.Wire.w_latency));
  List.iter
    (fun (name, _) ->
      check_int
        ("stage " ^ name ^ " counts sum to its served twin")
        (total ("served.stage." ^ name ^ "_us"))
        (summed (fun f -> List.assoc name f.Wire.stages)))
    (List.hd !frames).Wire.stages

(* [Metrics.diff] against a [Metrics.copy] subtracts instrument-wise
   and treats instruments born after the copy as starting from zero. *)
let t_snapshot_delta () =
  let m = Metrics.create () in
  Metrics.incr ~by:5 (Metrics.counter m "old");
  Metrics.observe (Metrics.histogram m "h") 16;
  let s0 = Metrics.copy m in
  Metrics.incr ~by:2 (Metrics.counter m "old");
  Metrics.incr ~by:9 (Metrics.counter m "new");
  Metrics.observe (Metrics.histogram m "h") 16;
  Metrics.observe (Metrics.histogram m "h") 300;
  let d = Metrics.diff ~cur:(Metrics.copy m) ~prev:s0 in
  check_int "existing counter subtracts" 2
    (Metrics.counter_value (Metrics.counter d "old"));
  check_int "new counter from zero" 9
    (Metrics.counter_value (Metrics.counter d "new"));
  let hs = Metrics.histogram_stats (Metrics.histogram d "h") in
  check_int "histogram delta count" 2 hs.Metrics.count;
  check_int "histogram delta sum" 316 hs.Metrics.sum;
  (* the interval moved the cumulative max, so it is exact *)
  check_int "delta max exact" 300 hs.Metrics.max

(* A recorder without a sink emits nothing, but still maintains the
   metrics side; one with a real sink emits. *)
let t_obs_interest () =
  let m = Metrics.create () in
  let quiet = Obs.create ~metrics:m () in
  check_bool "enabled" true (Obs.enabled quiet);
  check_bool "not emitting" false (Obs.emitting quiet);
  let sink, _events = Obs_sink.memory () in
  let full = Obs.create ~metrics:m ~sink () in
  check_bool "real sink: enabled" true (Obs.enabled full);
  check_bool "real sink: emitting" true (Obs.emitting full)

(* --- span derivation from an action stream --------------------------- *)

let t_span_from_actions () =
  let sink, events = Obs_sink.memory () in
  let o = Obs.create ~sink () in
  List.iter
    (Obs.on_action o)
    [
      Action.Create (txn [ 0 ]);
      Action.Create (txn [ 0; 0 ]);
      Action.Request_commit (txn [ 0; 0 ], Value.Int 1);
      Action.Commit (txn [ 0; 0 ]);
      Action.Request_commit (txn [ 0 ], Value.Int 0);
      Action.Abort (txn [ 0 ]);
    ];
  Obs.close o;
  check_int "clock" 6 (Obs.now o);
  (match events () with
  | [
   Obs_event.Begin { txn = a; ts = 1 };
   Obs_event.Begin { txn = b; ts = 2 };
   Obs_event.End { txn = c; ts = 4; outcome = Obs_event.Committed; dur = 2 };
   Obs_event.End { txn = d; ts = 6; outcome = Obs_event.Aborted; dur = 5 };
  ] ->
      check_bool "span txns" true
        (Txn_id.equal a (txn [ 0 ])
        && Txn_id.equal b (txn [ 0; 0 ])
        && Txn_id.equal c (txn [ 0; 0 ])
        && Txn_id.equal d (txn [ 0 ]))
  | evs -> Alcotest.failf "unexpected events (%d)" (List.length evs));
  let m = Obs.metrics o in
  check_int "created" 2 (Metrics.counter_value (Metrics.counter m "txn.created"));
  check_int "committed" 1
    (Metrics.counter_value (Metrics.counter m "txn.committed"));
  check_int "aborted" 1 (Metrics.counter_value (Metrics.counter m "txn.aborted"));
  check_int "actions" 6 (Metrics.counter_value (Metrics.counter m "actions"))

let t_null_is_inert () =
  check_bool "disabled" false (Obs.enabled Obs.null);
  Obs.on_action Obs.null (Action.Create (txn [ 0 ]));
  Obs.instant Obs.null "nothing";
  check_int "clock untouched" 0 (Obs.now Obs.null)

(* --- the runtime's timestamp-passing path ---------------------------- *)

(* Replaying the produced trace through [on_action] must yield the
   same span events (same ticks, outcomes, durations) the runtime
   emitted live, and the metrics the runtime settles must match the
   trace profile. *)
let t_runtime_spans () =
  List.iter
    (fun seed ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed
          { Gen.default with n_top = 5; depth = 2; fanout = 2; n_objects = 3 }
      in
      let sink, events = Obs_sink.memory () in
      let o = Obs.create ~sink () in
      let r =
        Runtime.run ~policy:Runtime.Bsp_rounds ~obs:o ~seed schema
          Moss_object.factory forest
      in
      Obs.close o;
      let live =
        List.filter
          (function
            | Obs_event.Begin _ | Obs_event.End _ -> true | _ -> false)
          (events ())
      in
      let sink2, events2 = Obs_sink.memory () in
      let o2 = Obs.create ~sink:sink2 () in
      Trace.to_list r.Runtime.trace |> List.iter (Obs.on_action o2);
      Obs.close o2;
      let replay =
        List.filter
          (function
            | Obs_event.Begin _ | Obs_event.End _ -> true | _ -> false)
          (events2 ())
      in
      check_int "same span count" (List.length replay) (List.length live);
      List.iter2
        (fun a b ->
          check_bool "span event equal" true
            (match (a, b) with
            | ( Obs_event.Begin { txn = t1; ts = s1 },
                Obs_event.Begin { txn = t2; ts = s2 } ) ->
                Txn_id.equal t1 t2 && s1 = s2
            | ( Obs_event.End { txn = t1; ts = s1; outcome = o1; dur = d1 },
                Obs_event.End { txn = t2; ts = s2; outcome = o2; dur = d2 } )
              ->
                Txn_id.equal t1 t2 && s1 = s2 && o1 = o2 && d1 = d2
            | _ -> false))
        live replay;
      (* nesting: a child's span begins after its parent's *)
      let begins = Txn_id.Tbl.create 32 in
      List.iter
        (function
          | Obs_event.Begin { txn; ts } -> Txn_id.Tbl.replace begins txn ts
          | _ -> ())
        live;
      Txn_id.Tbl.iter
        (fun t ts ->
          if Txn_id.depth t > 1 then
            match Txn_id.Tbl.find_opt begins (Txn_id.parent_exn t) with
            | Some pts -> check_bool "parent began first" true (pts < ts)
            | None -> Alcotest.failf "child %s has no parent span"
                        (Txn_id.to_string t))
        begins;
      (* settled metrics agree with the trace profile *)
      let s = Trace_stats.of_trace r.Runtime.trace in
      let m = Obs.metrics o in
      let cv n = Metrics.counter_value (Metrics.counter m n) in
      check_int "actions" s.Trace_stats.events (cv "actions");
      check_int "created" s.Trace_stats.creates (cv "txn.created");
      check_int "committed" s.Trace_stats.commits (cv "txn.committed");
      check_int "aborted" s.Trace_stats.aborts (cv "txn.aborted");
      check_int "clock = events" s.Trace_stats.events (Obs.now o))
    [ 1; 2; 3; 4 ]

(* --- streaming sinks -------------------------------------------------- *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let t_jsonl_streams () =
  let path = Filename.temp_file "nested_sg_obs" ".jsonl" in
  let sink = Obs_sink.jsonl_file path in
  let o = Obs.create ~sink () in
  Obs.on_action o (Action.Create (txn [ 0 ]));
  Obs.on_action o (Action.Create (txn [ 1 ]));
  sink.Obs_sink.flush ();
  (* visible mid-stream, before close: nothing is being retained *)
  check_int "streamed" 2 (count_lines path);
  Obs.on_action o (Action.Commit (txn [ 0 ]));
  Obs.on_action o (Action.Abort (txn [ 1 ]));
  Obs.close o;
  check_int "complete" 4 (count_lines path);
  let ic = open_in path in
  let first = input_line ic in
  close_in ic;
  check_bool "line shape" true
    (contains first "\"ev\":\"begin\"" && contains first "\"ts\":1");
  Sys.remove path

(* --- Chrome exporter -------------------------------------------------- *)

let occurrences needle hay =
  let n = String.length needle and h = String.length hay in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr count
  done;
  !count

let t_chrome_export () =
  let seed = 7 in
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed
      { Gen.default with n_top = 4; depth = 2; fanout = 2; n_objects = 3 }
  in
  let path = Filename.temp_file "nested_sg_obs" ".json" in
  let o = Obs.create ~sink:(Chrome_trace.sink_file path) () in
  let r =
    Runtime.run ~policy:Runtime.Bsp_rounds ~obs:o ~seed schema
      Moss_object.factory forest
  in
  Obs.close o;
  let ic = open_in path in
  let len = in_channel_length ic in
  let body = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  let trimmed = String.trim body in
  check_bool "is a JSON array" true
    (String.length trimmed > 2
    && trimmed.[0] = '['
    && trimmed.[String.length trimmed - 1] = ']');
  let s = Trace_stats.of_trace r.Runtime.trace in
  check_bool "deep workload" true (s.Trace_stats.max_depth >= 2);
  check_int "one B per create" s.Trace_stats.creates
    (occurrences "\"ph\":\"B\"" body);
  check_int "one E per completion"
    (s.Trace_stats.commits + s.Trace_stats.aborts)
    (occurrences "\"ph\":\"E\"" body);
  check_bool "thread metadata" true (occurrences "\"ph\":\"M\"" body > 0);
  check_bool "no trailing comma" true (not (contains body ",]"))

let suite =
  ( "obs",
    [
      Alcotest.test_case "metrics counters and gauges" `Quick t_metrics_counters;
      Alcotest.test_case "metrics histogram stats" `Quick t_metrics_histogram;
      Alcotest.test_case "histogram boundary cases" `Quick
        t_metrics_histogram_boundaries;
      Alcotest.test_case "metrics JSON export" `Quick t_metrics_json;
      Alcotest.test_case "window sum = cumulative delta" `Quick
        t_hub_interval_sum_is_cumulative;
      Alcotest.test_case "snapshot delta" `Quick t_snapshot_delta;
      Alcotest.test_case "recorder event interests" `Quick t_obs_interest;
      Alcotest.test_case "span derivation from actions" `Quick
        t_span_from_actions;
      Alcotest.test_case "null recorder is inert" `Quick t_null_is_inert;
      Alcotest.test_case "runtime spans match trace replay" `Quick
        t_runtime_spans;
      Alcotest.test_case "jsonl sink streams" `Quick t_jsonl_streams;
      Alcotest.test_case "chrome export shape" `Quick t_chrome_export;
    ] )
