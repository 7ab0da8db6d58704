open Core
open Util

let t_renders_nodes_and_edges () =
  let g = Graph.create () in
  Graph.add_edge g (txn [ 0 ]) (txn [ 1 ]) ();
  Graph.add_node g (txn [ 2 ]);
  let dot = Dot.of_graph g in
  check_bool "digraph" true (Astring_like.contains dot "digraph SG");
  check_bool "edge" true (Astring_like.contains dot "\"T0.0\" -> \"T0.1\"");
  check_bool "isolated node" true (Astring_like.contains dot "\"T0.2\"");
  check_bool "cluster" true (Astring_like.contains dot "children of T0");
  check_bool "no red without cycle" false (Astring_like.contains dot "color=red")

let t_cycle_highlight () =
  let g = Graph.create () in
  Graph.add_edge g (txn [ 0 ]) (txn [ 1 ]) ();
  Graph.add_edge g (txn [ 1 ]) (txn [ 0 ]) ();
  let cycle = Option.get (Graph.find_cycle g) in
  let dot = Dot.of_graph ~cycle g in
  check_bool "red nodes" true (Astring_like.contains dot "color=red");
  check_bool "red edge" true (Astring_like.contains dot "penwidth=2")

let t_of_trace () =
  let forest, schema = rw_pair () in
  let r = run_protocol ~seed:3 schema Moss_object.factory forest in
  let dot = Dot.of_trace schema r.Runtime.trace in
  check_bool "valid prefix" true (Astring_like.contains dot "digraph SG");
  (* A cyclic behavior gets its cycle highlighted. *)
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:2
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.3 }
  in
  let rec find_cyclic seed =
    if seed > 200 then None
    else
      let r = run_protocol ~seed schema Broken.no_control forest in
      let g = Sg.build Sg.Access_level schema (Trace.serial r.Runtime.trace) in
      if Graph.is_acyclic g then find_cyclic (seed + 1) else Some r
  in
  match find_cyclic 1 with
  | None -> Alcotest.fail "no cyclic behavior found"
  | Some r ->
      let dot = Dot.of_trace schema r.Runtime.trace in
      check_bool "cycle highlighted" true (Astring_like.contains dot "color=red")

let suite =
  ( "dot",
    [
      Alcotest.test_case "nodes and edges" `Quick t_renders_nodes_and_edges;
      Alcotest.test_case "cycle highlight" `Quick t_cycle_highlight;
      Alcotest.test_case "of_trace" `Quick t_of_trace;
    ] )
