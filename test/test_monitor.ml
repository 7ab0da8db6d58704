open Core
open Util

(* The monitor must stay silent on every correct protocol's behavior. *)
let t_silent_on_correct () =
  List.iter
    (fun (factory, name, gen) ->
      List.iter
        (fun seed ->
          let forest, schema =
            Gen.forest_and_schema gen ~seed
              { Gen.default with n_top = 6; depth = 2; n_objects = 3 }
          in
          let r = run_protocol ~abort_prob:0.05 ~seed schema factory forest in
          let m = Monitor.create schema in
          let alarms = Monitor.feed_trace m r.Runtime.trace in
          if alarms <> [] then
            Alcotest.failf "%s seed %d: unexpected alarms (%d)" name seed
              (List.length alarms);
          check_bool "not alarmed" false (Monitor.alarmed m))
        (List.init 6 (fun i -> i + 1)))
    [
      (Moss_object.factory, "moss", Gen.registers);
      (Undo_object.factory, "undo", Gen.mixed);
      (Commlock_object.factory, "commlock", Gen.counters);
    ]

(* Agreement with the offline construction: same edges at end of
   trace, and an alarm iff the offline graph is cyclic or returns are
   inappropriate. *)
let t_agrees_with_offline () =
  List.iter
    (fun (factory, abort_prob) ->
      List.iter
        (fun seed ->
          let forest, schema =
            Gen.forest_and_schema Gen.registers ~seed
              { Gen.default with n_top = 7; depth = 1; n_objects = 2;
                read_ratio = 0.4 }
          in
          let r = run_protocol ~abort_prob ~seed schema factory forest in
          let beta = Trace.serial r.Runtime.trace in
          let offline = Sg.build Sg.Access_level schema beta in
          let m = Monitor.create ~mode:Sg.Access_level schema in
          let alarms = Monitor.feed_trace m r.Runtime.trace in
          let sorted_edges g =
            List.sort compare
              (List.map
                 (fun (a, b) -> (Txn_id.to_string a, Txn_id.to_string b))
                 (Graph.edges g))
          in
          check_bool "same edges" true
            (sorted_edges offline = sorted_edges (Monitor.graph m));
          (* The incremental visible-operation sequences agree with the
             offline definition at end of trace. *)
          let vis = Trace.visible beta ~to_:Txn_id.root in
          List.iter
            (fun x ->
              check_bool "visible ops agree" true
                (Trace.operations schema.Schema.sys vis x
                = Monitor.visible_operations m x))
            schema.Schema.objects;
          let offline_cyclic = not (Graph.is_acyclic offline) in
          let online_cycle =
            List.exists (fun (_, a) -> match a with Monitor.Cycle _ -> true | _ -> false) alarms
          in
          check_bool "cycle agreement" offline_cyclic online_cycle;
          (* Return-value monitoring is per-prefix, hence stricter than
             the end-of-trace check on broken protocols (a dirty read
             can be "legalized" by its writer committing later): the
             end-of-trace violation must be caught online, and every
             online alarm must be justified by its own prefix. *)
          let offline_inappropriate =
            not (Return_values.appropriate_general schema beta)
          in
          let online_inappropriate =
            List.exists
              (fun (_, a) -> match a with Monitor.Inappropriate _ -> true | _ -> false)
              alarms
          in
          if offline_inappropriate then
            check_bool "offline violation caught online" true online_inappropriate;
          List.iter
            (fun (i, a) ->
              match a with
              | Monitor.Inappropriate _ ->
                  check_bool "alarm justified by its prefix" false
                    (Return_values.appropriate_general schema
                       (Trace.serial (Trace.prefix r.Runtime.trace (i + 1))))
              | Monitor.Cycle _ -> ())
            alarms)
        (List.init 10 (fun i -> i + 1)))
    [ (Moss_object.factory, 0.05); (Broken.no_control, 0.0);
      (Broken.no_control, 0.1); (Broken.unsafe_read, 0.1) ]

(* The alarm fires before the end: its index is a strict prefix
   position, and feeding only that prefix to the offline checker
   already shows the violation. *)
let t_early_detection () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:3
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.4 }
  in
  let i, trace =
    find_seed "no violating run found" (fun seed ->
        let r = run_protocol ~seed schema Broken.no_control forest in
        let m = Monitor.create schema in
        match Monitor.feed_trace m r.Runtime.trace with
        | [] -> None
        | (i, _) :: _ -> Some (i, r.Runtime.trace))
  in
  check_bool "alarm strictly inside trace" true (i < Trace.length trace);
  (* The offline verdict on the prefix ending at the alarm is already
     negative. *)
  let prefix = Trace.prefix trace (i + 1) in
  check_bool "offline agrees on prefix" false
    (Checker.serially_correct schema prefix)

let t_cycle_witness_is_a_cycle () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:1
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.3 }
  in
  let c, g =
    find_seed "no cycle found" (fun seed ->
        let r = run_protocol ~seed schema Broken.no_control forest in
        let m = Monitor.create schema in
        let cycles =
          List.filter_map
            (fun (_, a) -> match a with Monitor.Cycle c -> Some c | _ -> None)
            (Monitor.feed_trace m r.Runtime.trace)
        in
        match cycles with
        | [] -> None
        | c :: _ -> Some (c, Monitor.graph m))
  in
  let arr = Array.of_list c in
  Array.iteri
    (fun i a ->
      let b = arr.((i + 1) mod Array.length arr) in
      check_bool "cycle edge in graph" true (Graph.mem_edge g a b))
    arr

(* The cumulative counters must agree with what the monitor actually
   did: feeds = trace length, edges = the graph's edge count, and the
   alarm tallies = the alarms returned by [feed]. *)
let t_counters () =
  List.iter
    (fun (factory, name) ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed:5
          { Gen.default with n_top = 6; depth = 1; n_objects = 2;
            read_ratio = 0.4 }
      in
      let r = run_protocol ~seed:5 schema factory forest in
      let m = Monitor.create schema in
      let cycles = ref 0 and inapps = ref 0 in
      Array.iter
        (fun a ->
          List.iter
            (function
              | Monitor.Cycle _ -> incr cycles
              | Monitor.Inappropriate _ -> incr inapps)
            (Monitor.feed m a))
        r.Runtime.trace;
      let c = Monitor.counters m in
      check_int (name ^ " feeds") (Trace.length r.Runtime.trace)
        c.Monitor.feeds;
      check_int (name ^ " edges") (Graph.n_edges (Monitor.graph m))
        c.Monitor.edges;
      check_int (name ^ " cycle alarms") !cycles c.Monitor.cycle_alarms;
      check_int (name ^ " inappropriate alarms") !inapps
        c.Monitor.inappropriate_alarms;
      check_bool (name ^ " operations seen") true (c.Monitor.operations > 0);
      check_bool (name ^ " alarmed agrees") (!cycles + !inapps > 0)
        (Monitor.alarmed m))
    [ (Moss_object.factory, "moss"); (Broken.no_control, "broken") ]

(* The commit gate's speculation predicts the feed exactly: before
   each [Commit w], [prospective_commit_edges] names the edges the feed
   then adds (those the graph does not hold yet), each with the
   provenance the feed records, and [commit_would_cycle] is [Some]
   exactly when the feed raises a [Cycle].  Each run stops at its first
   cycle alarm, after which the graph holds a cycle and no longer
   gates anything. *)
let t_speculation_matches_feed () =
  let key (a, b) = (Txn_id.to_string a, Txn_id.to_string b) in
  let keys edges = List.sort compare (List.map key edges) in
  let prov p = Format.asprintf "%a" Monitor.pp_provenance p in
  let is_cycle = function Monitor.Cycle _ -> true | _ -> false in
  let cycles = ref 0 and predicted_edges = ref 0 in
  List.iter
    (fun (factory, name, gen) ->
      List.iter
        (fun (seed, shape) ->
          let forest, schema = Gen.forest_and_schema gen ~seed shape in
          let r = run_protocol ~abort_prob:0.05 ~seed schema factory forest in
          let m = Monitor.create schema in
          let g = Monitor.graph m in
          let rec go i =
            if i < Trace.length r.Runtime.trace then
              let a = r.Runtime.trace.(i) in
              let cycled =
                match a with
                | Action.Commit w ->
                    let tag =
                      Printf.sprintf "%s seed %d event %d" name seed i
                    in
                    let held = keys (Graph.edges g) in
                    let fresh =
                      List.filter
                        (fun (a, b, _) -> not (List.mem (key (a, b)) held))
                        (Monitor.prospective_commit_edges m w)
                    in
                    let verdict = Monitor.commit_would_cycle m w in
                    let cycled = List.exists is_cycle (Monitor.feed m a) in
                    let gained =
                      List.filter
                        (fun e -> not (List.mem e held))
                        (keys (Graph.edges g))
                    in
                    let predicted = List.map (fun (a, b, _) -> (a, b)) fresh in
                    check_bool (tag ^ ": gained edges = predicted") true
                      (gained = keys predicted);
                    List.iter
                      (fun (a, b, p) ->
                        check_bool (tag ^ ": predicted provenance") true
                          (Option.map prov (Monitor.edge_provenance m a b)
                          = Some (prov p)))
                      fresh;
                    check_bool (tag ^ ": verdict = cycle alarm") cycled
                      (verdict <> None);
                    predicted_edges := !predicted_edges + List.length fresh;
                    cycled
                | _ -> List.exists is_cycle (Monitor.feed m a)
              in
              if cycled then incr cycles else go (i + 1)
          in
          go 0)
        (List.concat_map
           (fun seed ->
             [
               ( seed,
                 { Gen.default with n_top = 6; depth = 2; n_objects = 2;
                   read_ratio = 0.4 } );
               ( seed,
                 { Gen.default with n_top = 8; depth = 1; n_objects = 1;
                   read_ratio = 0.3 } );
             ])
           (List.init 8 (fun i -> i + 1))))
    [
      (Moss_object.factory, "moss", Gen.registers);
      (Undo_object.factory, "undo", Gen.mixed);
      (Broken.no_control, "no-control", Gen.registers);
    ];
  check_bool "some commit was predicted to add edges" true
    (!predicted_edges > 0);
  check_bool "some run reached a cycle alarm" true (!cycles > 0)

(* The witness order read off the maintained topological order is a
   real Theorem-8 witness on alarm-free runs: defined, it orders the
   endpoints of every SG edge (all edges relate siblings), and it is
   suitable for T0. *)
let t_witness_order () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:9
      { Gen.default with n_top = 6; depth = 2; n_objects = 3 }
  in
  let r = run_protocol ~abort_prob:0.05 ~seed:9 schema Moss_object.factory forest in
  let m = Monitor.create schema in
  let alarms = Monitor.feed_trace m r.Runtime.trace in
  check_bool "no alarms" true (alarms = []);
  match Monitor.witness_order m with
  | None -> Alcotest.fail "alarm-free monitor has no witness order"
  | Some order ->
      Graph.iter_edges (Monitor.graph m) (fun a b ->
          check_bool "witness order respects every SG edge" true
            (Sibling_order.mem order a b));
      check_bool "witness order is suitable for T0" true
        (Suitability.is_suitable
           (Trace.serial r.Runtime.trace)
           ~to_:Txn_id.root order)

(* Once a cycle alarm fires, there is no witness order to read. *)
let t_witness_order_gone_on_cycle () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:1
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.3 }
  in
  let m =
    find_seed "no cycle found" (fun seed ->
        let r = run_protocol ~seed schema Broken.no_control forest in
        let m = Monitor.create schema in
        let cycles =
          List.filter
            (fun (_, a) -> match a with Monitor.Cycle _ -> true | _ -> false)
            (Monitor.feed_trace m r.Runtime.trace)
        in
        if cycles = [] then None else Some m)
  in
  check_bool "no witness order after a cycle" true
    (Monitor.witness_order m = None)

let t_counters_fresh () =
  let _, schema = Gen.forest_and_schema Gen.registers ~seed:1 Gen.default in
  let c = Monitor.counters (Monitor.create schema) in
  check_int "no feeds" 0 c.Monitor.feeds;
  check_int "no operations" 0 c.Monitor.operations;
  check_int "no edges" 0 c.Monitor.edges;
  check_int "no alarms" 0 (c.Monitor.cycle_alarms + c.Monitor.inappropriate_alarms)

let suite =
  ( "monitor",
    [
      Alcotest.test_case "silent on correct protocols" `Slow t_silent_on_correct;
      Alcotest.test_case "agrees with offline construction" `Slow
        t_agrees_with_offline;
      Alcotest.test_case "early detection" `Quick t_early_detection;
      Alcotest.test_case "cycle witness is a cycle" `Quick
        t_cycle_witness_is_a_cycle;
      Alcotest.test_case "counters agree with activity" `Quick t_counters;
      Alcotest.test_case "gate speculation matches the feed" `Quick
        t_speculation_matches_feed;
      Alcotest.test_case "witness order from the maintained order" `Quick
        t_witness_order;
      Alcotest.test_case "witness order gone on cycle" `Quick
        t_witness_order_gone_on_cycle;
      Alcotest.test_case "counters start at zero" `Quick t_counters_fresh;
    ] )
