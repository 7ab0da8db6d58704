open Core
open Util

let n i = txn [ i ]

let t_empty () =
  let g = Graph.create () in
  check_bool "empty acyclic" true (Graph.is_acyclic g);
  check_int "no nodes" 0 (Graph.n_nodes g);
  check_bool "topo of empty" true (Graph.topological_sort g = Some [])

let t_basic () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) ();
  Graph.add_edge g (n 1) (n 2) ();
  Graph.add_node g (n 3);
  check_int "nodes" 4 (Graph.n_nodes g);
  check_int "edges" 2 (Graph.n_edges g);
  check_bool "mem" true (Graph.mem_edge g (n 0) (n 1));
  check_bool "not mem" false (Graph.mem_edge g (n 1) (n 0));
  check_bool "acyclic" true (Graph.is_acyclic g);
  Graph.add_edge g (n 0) (n 1) ();
  check_int "duplicate edge ignored" 2 (Graph.n_edges g)

let t_cycle () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) ();
  Graph.add_edge g (n 1) (n 2) ();
  Graph.add_edge g (n 2) (n 0) ();
  check_bool "cyclic" false (Graph.is_acyclic g);
  (match Graph.find_cycle g with
  | Some cyc ->
      check_int "cycle length" 3 (List.length cyc);
      (* Each consecutive pair (and the wrap-around) is an edge. *)
      let arr = Array.of_list cyc in
      Array.iteri
        (fun i u ->
          let v = arr.((i + 1) mod Array.length arr) in
          check_bool "cycle edge" true (Graph.mem_edge g u v))
        arr
  | None -> Alcotest.fail "no cycle found");
  check_bool "no topo" true (Graph.topological_sort g = None)

let t_self_loop () =
  let g = Graph.create () in
  Graph.add_edge g (n 5) (n 5) ();
  check_bool "self loop is a cycle" false (Graph.is_acyclic g)

let t_topo_respects_edges () =
  let g = Graph.create () in
  Graph.add_edge g (n 3) (n 1) ();
  Graph.add_edge g (n 1) (n 0) ();
  Graph.add_edge g (n 3) (n 0) ();
  Graph.add_edge g (n 2) (n 0) ();
  match Graph.topological_sort g with
  | None -> Alcotest.fail "should be acyclic"
  | Some order ->
      let pos t =
        let rec go i = function
          | [] -> Alcotest.fail "missing node"
          | u :: rest -> if Txn_id.equal u t then i else go (i + 1) rest
        in
        go 0 order
      in
      List.iter
        (fun (a, b) ->
          check_bool "edge respected" true (pos a < pos b))
        (Graph.edges g)

(* Random DAG: edges only from lower to higher index => acyclic, and
   the topological sort respects all edges.  Random digraph with a
   known back edge => cyclic. *)
let prop_random_dag =
  QCheck.Test.make ~name:"random DAGs are acyclic with valid topo sort"
    ~count:200
    QCheck.(pair (int_bound 1000) (int_range 2 12))
    (fun (seed, size) ->
      let rng = Rng.create seed in
      let g = Graph.create () in
      for _ = 0 to 2 * size do
        let i = Rng.int rng (size - 1) in
        let j = i + 1 + Rng.int rng (size - i - 1) in
        Graph.add_edge g (n i) (n j) ()
      done;
      Graph.is_acyclic g
      &&
      match Graph.topological_sort g with
      | None -> false
      | Some order ->
          let pos = Hashtbl.create 16 in
          List.iteri (fun i t -> Hashtbl.replace pos t i) order;
          List.for_all
            (fun (a, b) -> Hashtbl.find pos a < Hashtbl.find pos b)
            (Graph.edges g))

let prop_cycle_detected =
  QCheck.Test.make ~name:"planted cycles are found" ~count:200
    QCheck.(pair (int_bound 1000) (int_range 3 10))
    (fun (seed, size) ->
      let rng = Rng.create seed in
      let g = Graph.create () in
      (* Random forward edges plus a planted directed cycle. *)
      for _ = 0 to size do
        let i = Rng.int rng (size - 1) in
        let j = i + 1 + Rng.int rng (size - i - 1) in
        Graph.add_edge g (n i) (n j) ()
      done;
      let k = 2 + Rng.int rng (size - 2) in
      for i = 0 to k - 1 do
        Graph.add_edge g (n i) (n ((i + 1) mod k)) ()
      done;
      (not (Graph.is_acyclic g)) && Graph.find_cycle g <> None)

let suite =
  ( "graph",
    [
      Alcotest.test_case "empty" `Quick t_empty;
      Alcotest.test_case "basic" `Quick t_basic;
      Alcotest.test_case "cycle" `Quick t_cycle;
      Alcotest.test_case "self loop" `Quick t_self_loop;
      Alcotest.test_case "topo respects edges" `Quick t_topo_respects_edges;
      QCheck_alcotest.to_alcotest prop_random_dag;
      QCheck_alcotest.to_alcotest prop_cycle_detected;
    ] )
