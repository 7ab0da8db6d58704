(* Tests for the attribution layer and the ntprof pipeline: registry
   merging, the JSONL parse/roundtrip of telemetry events, Chrome
   exporter escaping, wait-streak reconstruction, profile merging, the
   monitor's per-edge provenance, and DOT edge labels. *)
open Core
open Util

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* --- Metrics.merge ---------------------------------------------------- *)

let t_metrics_merge () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:3 (Metrics.counter a "c");
  Metrics.incr ~by:4 (Metrics.counter b "c");
  Metrics.incr ~by:7 (Metrics.counter b "only_src");
  Metrics.set (Metrics.gauge a "g") 1.0;
  Metrics.set (Metrics.gauge b "g") 2.5;
  List.iter (Metrics.observe (Metrics.histogram a "h")) [ 1; 5 ];
  List.iter (Metrics.observe (Metrics.histogram b "h")) [ 5; 100 ];
  Metrics.merge a b;
  check_int "counters add" 7
    (Metrics.counter_value (Metrics.counter a "c"));
  check_int "src-only counters appear" 7
    (Metrics.counter_value (Metrics.counter a "only_src"));
  check_bool "gauges take src" true
    (Metrics.gauge_value (Metrics.gauge a "g") = 2.5);
  let s = Metrics.histogram_stats (Metrics.histogram a "h") in
  check_int "histogram count" 4 s.Metrics.count;
  check_int "histogram sum" 111 s.Metrics.sum;
  check_int "histogram min" 1 s.Metrics.min;
  check_int "histogram max" 100 s.Metrics.max;
  (* merge is not destructive on the source *)
  check_int "src unchanged" 4 (Metrics.counter_value (Metrics.counter b "c"));
  (* a name cannot change kind across registries *)
  let c = Metrics.create () in
  Metrics.set (Metrics.gauge c "c") 9.0;
  check_bool "kind clash raises" true
    (try
       Metrics.merge a c;
       false
     with Invalid_argument _ -> true)

(* --- JSONL parse and event roundtrip ---------------------------------- *)

let roundtrip e =
  let s = Obs_json.to_string (Obs_event.to_json e) in
  match Obs_json.parse s with
  | Error err -> Alcotest.failf "parse %s: %s" s err
  | Ok j -> (
      match Obs_event.of_json j with
      | Error err -> Alcotest.failf "of_json %s: %s" s err
      | Ok e' -> check_bool ("roundtrip " ^ s) true (e = e'))

let t_event_roundtrip () =
  List.iter roundtrip
    [
      Obs_event.Begin { txn = txn [ 0; 1 ]; ts = 3 };
      Obs_event.End
        { txn = txn [ 0 ]; ts = 9; outcome = Obs_event.Committed; dur = 6 };
      Obs_event.End
        { txn = txn [ 2 ]; ts = 4; outcome = Obs_event.Aborted; dur = 1 };
      Obs_event.Instant { name = "deadlock.victim"; txn = Some (txn [ 1 ]);
                          obj = Some (Obj_id.make "x0"); ts = 5 };
      Obs_event.Instant { name = "plain"; txn = None; obj = None; ts = 0 };
      Obs_event.Counter { name = "sg.edges"; value = 12; ts = 7 };
      Obs_event.Wait
        {
          txn = txn [ 0; 1 ];
          obj = Obj_id.make "c0";
          holders = [ (txn [ 2 ], "write"); (txn [ 3; 0 ], "read") ];
          ts = 11;
          waited = 4;
        };
      Obs_event.Wait
        { txn = txn [ 1 ]; obj = Obj_id.make "y"; holders = []; ts = 1;
          waited = 0 };
      Obs_event.Edge
        {
          src = txn [ 0 ];
          dst = txn [ 1 ];
          kind = "conflict";
          obj = Some (Obj_id.make "x");
          w1 = txn [ 0; 2 ];
          w1_ts = 5;
          w2 = txn [ 1; 0 ];
          w2_ts = 9;
          ts = 10;
        };
      Obs_event.Edge
        {
          src = txn [ 2; 0 ];
          dst = txn [ 2; 1 ];
          kind = "precedes";
          obj = None;
          w1 = txn [ 2; 0 ];
          w1_ts = 3;
          w2 = txn [ 2; 1 ];
          w2_ts = 8;
          ts = 8;
        };
    ]

let t_json_parse () =
  (* escapes, incl. \u and a surrogate pair *)
  (match Obs_json.parse {|{"s":"a\"b\\c\ndA😀"}|} with
  | Ok j -> (
      match Obs_json.member "s" j with
      | Some (Obs_json.Str s) ->
          check_bool "escapes decode" true
            (s = "a\"b\\c\ndA\xf0\x9f\x98\x80")
      | _ -> Alcotest.fail "missing member")
  | Error e -> Alcotest.failf "parse: %s" e);
  (* numbers: int vs float *)
  (match Obs_json.parse {|[1, -2, 3.5, 1e2, true, false, null]|} with
  | Ok (Obs_json.Arr [ Obs_json.Int 1; Obs_json.Int (-2); Obs_json.Float _;
                       Obs_json.Float _; Obs_json.Bool true;
                       Obs_json.Bool false; Obs_json.Null ]) -> ()
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "parse: %s" e);
  (* malformed inputs are errors, not exceptions *)
  List.iter
    (fun s ->
      match Obs_json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "{} trailing" ]

let t_txn_id_of_string () =
  List.iter
    (fun path ->
      let t = txn path in
      match Txn_id.of_string (Txn_id.to_string t) with
      | Some t' -> check_bool "roundtrip" true (Txn_id.equal t t')
      | None -> Alcotest.failf "of_string %s" (Txn_id.to_string t))
    [ []; [ 0 ]; [ 3; 1; 4 ] ];
  List.iter
    (fun s -> check_bool ("reject " ^ s) true (Txn_id.of_string s = None))
    [ ""; "X"; "T0."; "T0.a"; "T0.-1"; "0.1" ]

(* --- Chrome exporter escaping ----------------------------------------- *)

let t_chrome_escaping () =
  let path = Filename.temp_file "nested_sg_prof" ".json" in
  let o = Obs.create ~sink:(Chrome_trace.sink_file path) () in
  Obs.instant ~ts:1 o "quote\"back\\slash";
  Obs.instant ~ts:2 o "ctrl\x01\ttab\nnewline";
  Obs.instant ~ts:3 o "caf\xc3\xa9";
  (* non-ASCII UTF-8 *)
  Obs.close o;
  let ic = open_in path in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check_bool "quote escaped" true (contains body {|quote\"back\\slash|});
  check_bool "control escaped" true (contains body {|ctrl\u0001\ttab\nnewline|});
  check_bool "utf8 passthrough" true (contains body "caf\xc3\xa9");
  (* the body must survive a JSON parse: every control char was handled *)
  match Obs_json.parse body with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "chrome output is not valid JSON: %s" e

(* --- wait-streak reconstruction --------------------------------------- *)

let wait ~txn:t ~obj ~waited ts =
  Obs_event.Wait
    { txn = t; obj = Obj_id.make obj; holders = [ (txn [ 9 ], "write") ];
      ts; waited }

let t_wait_streaks () =
  let p = Profile.create () in
  (* one txn, one object: a streak of 3 refusals, then a fresh streak
     of 2 (waited drops), then the trace ends *)
  List.iteri
    (fun i w -> Profile.feed p (wait ~txn:(txn [ 0 ]) ~obj:"a" ~waited:w i))
    [ 1; 2; 3; 1; 2 ];
  (* an independent blocked access on another object, still open *)
  Profile.feed p (wait ~txn:(txn [ 1 ]) ~obj:"b" ~waited:5 9);
  Profile.finish p;
  let tops = Profile.top_objects p 10 in
  check_int "two objects" 2 (List.length tops);
  let a = List.assoc "a" tops and b = List.assoc "b" tops in
  check_int "a streaks" 2 a.Profile.waits;
  check_int "a refusals" 5 a.Profile.wait_events;
  check_int "a total" 5 a.Profile.total_waited;
  check_int "a max" 3 a.Profile.max_waited;
  check_int "b streaks" 1 b.Profile.waits;
  check_int "b total" 5 b.Profile.total_waited;
  let h =
    Metrics.histogram_stats (Metrics.histogram (Profile.metrics p) "wait.ticks.a")
  in
  check_int "a histogram count" 2 h.Metrics.count;
  check_int "a histogram sum" 5 h.Metrics.sum

(* --- end-to-end: runtime -> jsonl -> ntprof pipeline ------------------ *)

let run_to_jsonl ~seed path =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed
      { Gen.default with n_top = 8; depth = 2; n_objects = 2; theta = 0.9 }
  in
  let o = Obs.create ~sink:(Obs_sink.jsonl_file path) () in
  let r =
    Runtime.run ~policy:Runtime.Random_step ~abort_prob:0.05 ~obs:o ~seed
      schema Commlock_object.factory forest
  in
  Obs.close o;
  r

let t_profile_load_and_merge () =
  let p1 = Filename.temp_file "nested_sg_prof" ".jsonl" in
  let p2 = Filename.temp_file "nested_sg_prof" ".jsonl" in
  let r1 = run_to_jsonl ~seed:3 p1 and r2 = run_to_jsonl ~seed:4 p2 in
  let a = Profile.create () and b = Profile.create () in
  check_bool "p1 clean" true (Profile.load a p1 = []);
  check_bool "p2 clean" true (Profile.load b p2 = []);
  Sys.remove p1;
  Sys.remove p2;
  let created p = Metrics.counter_value (Metrics.counter (Profile.metrics p) "txn.created") in
  let created_a = created a and created_b = created b in
  check_bool "events parsed" true (Profile.events a > 0);
  Profile.merge a b;
  check_int "created adds up" (created_a + created_b) (created a);
  let blocked =
    r1.Runtime.stats.Runtime.blocked_attempts
    + r2.Runtime.stats.Runtime.blocked_attempts
  in
  let refusals =
    List.fold_left
      (fun acc (_, s) -> acc + s.Profile.wait_events)
      0 (Profile.top_objects a 100)
  in
  check_int "every refusal attributed to an object" blocked refusals;
  (* the report and the prometheus exposition both render *)
  let report = Format.asprintf "%a" (Profile.report ~top:5) a in
  check_bool "report has summary" true (contains report "== summary ==");
  check_bool "report has top objects" true
    (contains report "contended objects");
  let prom = Profile.prometheus a in
  check_bool "prometheus counter" true (contains prom "txn_created");
  check_bool "prometheus quantile" true (contains prom "quantile=\"0.99\"")

let t_profile_bad_lines () =
  let path = Filename.temp_file "nested_sg_prof" ".jsonl" in
  let oc = open_out path in
  output_string oc
    "{\"ev\":\"begin\",\"txn\":\"T0.0\",\"ts\":1}\n\
     not json at all\n\
     {\"ev\":\"mystery\",\"ts\":2}\n\
     \n\
     {\"ev\":\"end\",\"txn\":\"T0.0\",\"ts\":3,\"outcome\":\"commit\",\"dur\":2}\n";
  close_out oc;
  let p = Profile.create () in
  let errs = Profile.load p path in
  Sys.remove path;
  check_int "two bad lines" 2 (Profile.bad_lines p);
  check_int "two errors reported" 2 (List.length errs);
  check_bool "line numbers in errors" true
    (List.exists (fun e -> contains e ":2:") errs);
  check_int "good lines still fed" 2 (Profile.events p)

(* --- monitor provenance ----------------------------------------------- *)

(* Find broken executions whose monitor trips a cycle alarm and check
   that every edge of the reported cycle carries a witness: the two
   actions (with feed timestamps) whose visibility inserted it. *)
let t_monitor_provenance () =
  let hits = ref 0 in
  for seed = 1 to 12 do
    let forest, schema =
      Gen.forest_and_schema Gen.registers ~seed
        { Gen.default with n_top = 8; depth = 1; n_objects = 1;
          read_ratio = 0.3 }
    in
    let r = run_protocol ~seed schema Broken.no_control forest in
    let m = Monitor.create schema in
    let alarms = Monitor.feed_trace m r.Runtime.trace in
    List.iter
      (fun (_, a) ->
        match a with
        | Monitor.Inappropriate _ -> ()
        | Monitor.Cycle cycle ->
            incr hits;
            let witness = Monitor.cycle_witness m cycle in
            check_int "one witness per edge" (List.length cycle)
              (List.length witness);
            List.iter
              (fun (a, b, prov) ->
                match prov with
                | None ->
                    Alcotest.failf "edge %s -> %s has no provenance"
                      (Txn_id.to_string a) (Txn_id.to_string b)
                | Some p ->
                    (* the witnesses are actions of descendants of the
                       edge's endpoints, in feed order *)
                    check_bool "before is a's descendant" true
                      (Txn_id.is_descendant p.Monitor.before.Monitor.who a);
                    check_bool "after is b's descendant" true
                      (Txn_id.is_descendant p.Monitor.after.Monitor.who b);
                    check_bool "feed order" true
                      (p.Monitor.before.Monitor.at
                       < p.Monitor.after.Monitor.at);
                    if p.Monitor.kind = Monitor.Conflict then
                      check_bool "conflicts name the object" true
                        (p.Monitor.before.Monitor.where <> None))
              witness;
            (* the textual explanation names every edge *)
            let text = Monitor.explain_cycle m cycle in
            List.iter
              (fun (a, b, _) ->
                check_bool "edge in explanation" true
                  (contains text
                     (Printf.sprintf "%s -> %s" (Txn_id.to_string a)
                        (Txn_id.to_string b))))
              witness;
            (* the DOT render highlights the first cycle and labels edges *)
            let dot = Monitor.dot m in
            check_bool "cycle highlighted" true (contains dot "color=red");
            check_bool "edges labelled" true (contains dot "label=\""))
      alarms
  done;
  check_bool "found cycle alarms to check" true (!hits > 0)

(* --- DOT edge labels --------------------------------------------------- *)

let t_dot_edge_labels () =
  let g = Graph.create () in
  let a = txn [ 0 ] and b = txn [ 1 ] in
  Graph.add_edge g a b ();
  let label u v =
    if Txn_id.equal u a && Txn_id.equal v b then
      Some "x \"quoted\"\nline2\\end"
    else None
  in
  let dot = Dot.of_graph ~edge_label:label g in
  check_bool "label present and escaped" true
    (contains dot {|label="x \"quoted\"\nline2\\end"|});
  let plain = Dot.of_graph g in
  check_bool "no edge label without callback" true
    (not (contains plain "quoted"))

(* --- runtime attribution metrics --------------------------------------- *)

let t_runtime_attribution () =
  (* a contended workload with injected aborts: the cause taxonomy must
     partition the observed aborts, and every refusal must emit a Wait
     event with non-ancestral holders *)
  let forest, schema =
    Gen.forest_and_schema Gen.counters ~seed:3
      { Gen.default with n_top = 10; depth = 2; n_objects = 2; theta = 0.9 }
  in
  let sink, events = Obs_sink.memory () in
  let o = Obs.create ~sink () in
  let r =
    Runtime.run ~policy:Runtime.Random_step ~abort_prob:0.03 ~obs:o ~seed:3
      schema Commlock_object.factory forest
  in
  Obs.close o;
  let m = Obs.metrics o in
  let cv n = Metrics.counter_value (Metrics.counter m n) in
  (* A deadlock victim whose ancestor had already aborted is collateral
     of that ancestor's fate, so it counts under [abort.cause.parent];
     every other victim is a lock conflict. *)
  let victims =
    List.filter_map
      (function
        | Obs_event.Instant { name = "deadlock.victim"; txn = Some t; _ } ->
            Some t
        | _ -> None)
      (events ())
  in
  check_int "one victim instant per deadlock abort"
    r.Runtime.stats.Runtime.deadlock_aborts (List.length victims);
  let aborted = Txn_id.Tbl.create 16 and orphan_victims = ref 0 in
  List.iter
    (function
      | Action.Abort t ->
          if
            List.exists (Txn_id.equal t) victims
            && List.exists (Txn_id.Tbl.mem aborted) (Txn_id.proper_ancestors t)
          then incr orphan_victims;
          Txn_id.Tbl.replace aborted t ()
      | _ -> ())
    (Trace.to_list r.Runtime.trace);
  check_int "lock-conflict causes = deadlock victims - orphan victims"
    (r.Runtime.stats.Runtime.deadlock_aborts - !orphan_victims)
    (cv "abort.cause.lock_conflict");
  check_int "every abort has a cause"
    (cv "txn.aborted")
    (cv "abort.cause.lock_conflict" + cv "abort.cause.parent"
    + cv "abort.cause.injected");
  let n_waits = ref 0 in
  List.iter
    (function
      | Obs_event.Wait { txn = blocked; holders; waited; ts; _ } ->
          incr n_waits;
          check_bool "holders known" true (holders <> []);
          check_bool "waited sane" true (waited >= 0 && waited <= ts);
          List.iter
            (fun (h, kind) ->
              check_bool "holder is not an ancestor" true
                (not (Txn_id.is_ancestor h blocked));
              check_bool "kind named" true (kind <> ""))
            holders
      | _ -> ())
    (events ());
  check_int "one Wait event per refusal"
    r.Runtime.stats.Runtime.blocked_attempts !n_waits;
  check_bool "wait-for edges observed" true (cv "runtime.waitfor.edges" > 0);
  check_bool "near cycles are among the wait-for edges" true
    (cv "runtime.waitfor.near_cycles" <= cv "runtime.waitfor.edges")

let suite =
  ( "profile",
    [
      Alcotest.test_case "Metrics.merge" `Quick t_metrics_merge;
      Alcotest.test_case "event JSON roundtrip" `Quick t_event_roundtrip;
      Alcotest.test_case "JSON parser" `Quick t_json_parse;
      Alcotest.test_case "Txn_id.of_string" `Quick t_txn_id_of_string;
      Alcotest.test_case "chrome exporter escaping" `Quick t_chrome_escaping;
      Alcotest.test_case "wait-streak reconstruction" `Quick t_wait_streaks;
      Alcotest.test_case "profile load and merge" `Quick
        t_profile_load_and_merge;
      Alcotest.test_case "malformed trace lines" `Quick t_profile_bad_lines;
      Alcotest.test_case "monitor cycle provenance" `Quick
        t_monitor_provenance;
      Alcotest.test_case "dot edge labels" `Quick t_dot_edge_labels;
      Alcotest.test_case "runtime attribution metrics" `Quick
        t_runtime_attribution;
    ] )
