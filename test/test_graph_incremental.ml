(* Differential property tests for the incremental cycle detector
   (Pearce-Kelly maintained topological order, lib/sg/graph.ml):
   against the from-scratch three-color DFS it replaced, on random
   edge streams and on the adversarial shapes that exercise each
   branch of the limited two-way search. *)
open Core
open Util

let n i = txn [ i ]

(* Every consecutive pair of the reported cycle (wrapping) is an edge
   of the graph. *)
let genuine_cycle g cyc =
  cyc <> []
  &&
  let arr = Array.of_list cyc in
  let ok = ref true in
  Array.iteri
    (fun i a ->
      if not (Graph.mem_edge g a arr.((i + 1) mod Array.length arr)) then
        ok := false)
    arr;
  !ok

(* [order] lists every node exactly once and puts each edge forward. *)
let valid_topo g order =
  List.length order = Graph.n_nodes g
  &&
  let pos = Txn_id.Tbl.create 16 in
  List.iteri (fun i t -> Txn_id.Tbl.replace pos t i) order;
  Txn_id.Tbl.length pos = Graph.n_nodes g
  && Graph.fold_edges g
       (fun acc a b ->
         acc && Txn_id.Tbl.find pos a < Txn_id.Tbl.find pos b)
       true

(* One random stream, checked at every prefix: (a) verdict agreement
   with the from-scratch DFS, (b) validity of the maintained order,
   (c) genuineness of every reported cycle, (d) every edge's label is
   the one it was first inserted with, and a duplicate is [Ok 0].
   Streams draw endpoint pairs uniformly, so they plant self-loops,
   duplicates, forward and back edges in random proportions, and most
   run on past a first cycle into the degraded regime.  Labels come
   from a second generator, so the edge stream is the same as with
   unlabelled edges. *)
let stream_ok ~seed ~size ~len =
  let rng = Rng.create seed in
  let labels = Rng.create (seed lxor 0x5eed) in
  let g = Graph.create () in
  let first = Hashtbl.create 16 in
  let ok = ref true in
  let insist b = if not b then ok := false in
  for _ = 1 to len do
    let a = Rng.int rng size and b = Rng.int rng size in
    let l = Rng.int labels 1000 in
    let dup = Hashtbl.mem first (a, b) in
    if not dup then Hashtbl.add first (a, b) l;
    (match Graph.add_edge_checked g (n a) (n b) l with
    | Graph.Ok moved -> insist (moved >= 0 && ((not dup) || moved = 0))
    | Graph.Cycle c -> insist ((not dup) && genuine_cycle g c));
    (* (d) against the reference table of first labels, every pair. *)
    for i = 0 to size - 1 do
      for j = 0 to size - 1 do
        insist (Graph.label g (n i) (n j) = Hashtbl.find_opt first (i, j))
      done
    done;
    let scratch = Graph.find_cycle_scratch g in
    (* (a) the O(1) incremental verdict vs the full DFS. *)
    insist (Graph.is_acyclic g = (scratch = None));
    (match Graph.find_cycle g with
    | None -> insist (scratch = None)
    | Some c -> insist (genuine_cycle g c));
    (* (b) while acyclic, the maintained order is a topological order;
       once cyclic it is gone for good. *)
    match Graph.order g with
    | Some order -> insist (Graph.is_acyclic g && valid_topo g order)
    | None -> insist (not (Graph.is_acyclic g))
  done;
  !ok

let prop_differential =
  QCheck.Test.make ~name:"incremental = from-scratch at every prefix"
    ~count:120
    QCheck.(pair (int_bound 100_000) (int_range 2 14))
    (fun (seed, size) -> stream_ok ~seed ~size ~len:(3 * size))

(* Pure DAG streams (edges only from lower to higher index): no
   insertion may ever report a cycle, the order stays valid
   throughout, and the O(1) acyclicity verdict never flips. *)
let prop_dag_stays_acyclic =
  QCheck.Test.make ~name:"DAG streams never trip the detector" ~count:120
    QCheck.(pair (int_bound 100_000) (int_range 2 12))
    (fun (seed, size) ->
      let rng = Rng.create seed in
      let g = Graph.create () in
      let ok = ref true in
      for _ = 0 to 3 * size do
        let i = Rng.int rng (size - 1) in
        let j = i + 1 + Rng.int rng (size - i - 1) in
        (match Graph.add_edge_checked g (n i) (n j) () with
        | Graph.Ok _ -> ()
        | Graph.Cycle _ -> ok := false);
        if not (Graph.is_acyclic g) then ok := false;
        match Graph.order g with
        | Some order -> if not (valid_topo g order) then ok := false
        | None -> ok := false
      done;
      !ok && Graph.find_cycle_scratch g = None)

(* The commit gate's cycle test against the from-scratch DFS.  A random
   graph is built through [add_edge_checked]: a DAG whose edges arrive
   in random order (so the maintained order is repaired on the way), or
   uniform edges taken past a first cycle.  Against it, random [extra]
   sets mix edges between known nodes in either direction (so several
   are not forward in the order), endpoints the graph does not know,
   copies of stored edges and self-loops.  [would_close_cycle] must be
   [Some] iff the union has a cycle, its witness must be one (every
   consecutive pair, wrapping, an edge of the union), and the graph
   must be left as it was. *)
let joint_ok ~seed ~size ~cyclic =
  let rng = Rng.create seed in
  let g = Graph.create () in
  if cyclic then begin
    for _ = 1 to 2 * size do
      Graph.add_edge g (n (Rng.int rng size)) (n (Rng.int rng size)) ()
    done;
    if Graph.is_acyclic g then begin
      let a = Rng.int rng size in
      let b = (a + 1) mod size in
      Graph.add_edge g (n a) (n b) ();
      Graph.add_edge g (n b) (n a) ()
    end;
    for _ = 1 to size do
      Graph.add_edge g (n (Rng.int rng size)) (n (Rng.int rng size)) ()
    done
  end
  else
    for _ = 1 to 2 * size do
      let i = Rng.int rng (size - 1) in
      Graph.add_edge g (n i) (n (i + 1 + Rng.int rng (size - i - 1))) ()
    done;
  let stored = Array.of_list (Graph.edges g) in
  let snapshot () = (List.sort compare (Graph.edges g), Graph.order g) in
  let before = snapshot () in
  let ok = ref true in
  let insist b = if not b then ok := false in
  for _ = 1 to 20 do
    let node () =
      if Rng.int rng 4 = 0 then n (size + Rng.int rng 3) else n (Rng.int rng size)
    in
    let extra =
      List.init (1 + Rng.int rng 6) (fun _ ->
          match Rng.int rng 10 with
          | 7 | 8 when Array.length stored > 0 ->
              stored.(Rng.int rng (Array.length stored))
          | 9 ->
              let a = node () in
              (a, a)
          | _ -> (node (), node ()))
    in
    let joint = Graph.create () in
    Graph.iter_edges g (fun a b -> Graph.add_edge joint a b ());
    List.iter (fun (a, b) -> Graph.add_edge joint a b ()) extra;
    let expected = Graph.find_cycle_scratch joint <> None in
    (match Graph.would_close_cycle g extra with
    | None -> insist (not expected)
    | Some c -> insist (expected && genuine_cycle joint c));
    insist (snapshot () = before)
  done;
  !ok

let prop_joint_acyclic =
  QCheck.Test.make ~name:"gate cycle test = from-scratch DFS (acyclic graph)"
    ~count:150
    QCheck.(pair (int_bound 100_000) (int_range 2 14))
    (fun (seed, size) -> joint_ok ~seed ~size ~cyclic:false)

let prop_joint_cyclic =
  QCheck.Test.make ~name:"gate cycle test = from-scratch DFS (past a cycle)"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 14))
    (fun (seed, size) -> joint_ok ~seed ~size ~cyclic:true)

(* Insert a chain in reverse (each edge lands against the maintained
   order, forcing a reorder of the affected region), then close the
   cycle: the back edge is found by the limited search inside the
   region it just reordered. *)
let t_back_edge_in_reorder_region () =
  let g = Graph.create () in
  List.iter
    (fun (a, b) ->
      match Graph.add_edge_checked g (n a) (n b) () with
      | Graph.Ok _ -> ()
      | Graph.Cycle _ -> Alcotest.fail "chain edge reported as cycle")
    [ (3, 4); (2, 3); (1, 2); (0, 1) ];
  check_bool "reverse insertion forced reorders" true (Graph.reorders g > 0);
  (match Graph.order g with
  | Some order ->
      check_bool "order valid after reorders" true (valid_topo g order)
  | None -> Alcotest.fail "order lost while acyclic");
  (match Graph.add_edge_checked g (n 4) (n 0) () with
  | Graph.Cycle c ->
      check_int "full chain cycle" 5 (List.length c);
      check_bool "genuine" true (genuine_cycle g c)
  | Graph.Ok _ -> Alcotest.fail "closing edge not detected");
  check_bool "edge kept" true (Graph.mem_edge g (n 4) (n 0));
  check_bool "order gone" true (Graph.order g = None);
  check_bool "scratch agrees" true (Graph.find_cycle_scratch g <> None)

let t_self_loop () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) ();
  (match Graph.add_edge_checked g (n 1) (n 1) () with
  | Graph.Cycle [ t ] -> check_bool "loop witness" true (Txn_id.equal t (n 1))
  | _ -> Alcotest.fail "self-loop not reported as unit cycle");
  check_bool "cyclic" false (Graph.is_acyclic g);
  check_int "loop edge counted once" 2 (Graph.n_edges g);
  (* Duplicate self-loop: ignored, verdict unchanged. *)
  check_bool "dup self-loop ignored" true
    (Graph.add_edge_checked g (n 1) (n 1) () = Graph.Ok 0);
  check_int "edges stable" 2 (Graph.n_edges g)

(* Satellite regression: the cached counters are pinned after
   duplicate insertions and agree with the materialized lists the hot
   paths no longer build. *)
let t_duplicate_edge_counters () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) ();
  Graph.add_edge g (n 1) (n 2) ();
  let order_before = Graph.order g in
  for _ = 1 to 5 do
    check_bool "duplicate is Ok 0" true
      (Graph.add_edge_checked g (n 0) (n 1) () = Graph.Ok 0)
  done;
  check_int "n_edges pinned" 2 (Graph.n_edges g);
  check_int "n_nodes pinned" 3 (Graph.n_nodes g);
  check_int "n_edges agrees with edges list" 2 (List.length (Graph.edges g));
  check_int "n_nodes agrees with nodes list" 3 (List.length (Graph.nodes g));
  check_bool "order untouched by duplicates" true
    (Graph.order g = order_before);
  (* Fold-based iteration sees exactly the deduplicated edges. *)
  check_int "fold_edges count" 2 (Graph.fold_edges g (fun k _ _ -> k + 1) 0);
  check_int "fold_nodes count" 3 (Graph.fold_nodes g (fun k _ -> k + 1) 0)

(* A duplicate keeps the edge's first label and is [Ok 0], in the
   ordered regime and in the degraded one after a first cycle. *)
let t_duplicate_keeps_first_label () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) "first";
  check_bool "ordered duplicate is Ok 0" true
    (Graph.add_edge_checked g (n 0) (n 1) "second" = Graph.Ok 0);
  Alcotest.(check (option string))
    "ordered label" (Some "first") (Graph.label g (n 0) (n 1));
  (match Graph.add_edge_checked g (n 1) (n 0) "back" with
  | Graph.Cycle _ -> ()
  | Graph.Ok _ -> Alcotest.fail "cycle missed");
  Graph.add_edge g (n 2) (n 3) "late";
  check_bool "degraded duplicate is Ok 0" true
    (Graph.add_edge_checked g (n 1) (n 0) "again" = Graph.Ok 0
    && Graph.add_edge_checked g (n 2) (n 3) "again" = Graph.Ok 0);
  Alcotest.(check (list (option string)))
    "degraded labels"
    [ Some "first"; Some "back"; Some "late"; None ]
    (List.map
       (fun (a, b) -> Graph.label g (n a) (n b))
       [ (0, 1); (1, 0); (2, 3); (3, 2) ]);
  check_int "duplicates not counted" 3 (Graph.n_edges g)

(* A stream whose very last edge closes the only cycle: every prefix
   is acyclic (verdict and order agree with scratch), the final edge
   trips all detectors at once. *)
let t_cycle_closed_by_last_edge () =
  let g = Graph.create () in
  let chain = [ (0, 1); (1, 2); (2, 3); (0, 3); (1, 3) ] in
  List.iter
    (fun (a, b) ->
      (match Graph.add_edge_checked g (n a) (n b) () with
      | Graph.Ok _ -> ()
      | Graph.Cycle _ -> Alcotest.fail "premature cycle");
      check_bool "prefix acyclic" true
        (Graph.is_acyclic g && Graph.find_cycle_scratch g = None))
    chain;
  match Graph.add_edge_checked g (n 3) (n 0) () with
  | Graph.Cycle c ->
      check_bool "genuine" true (genuine_cycle g c);
      check_bool "incremental verdict flipped" false (Graph.is_acyclic g);
      check_bool "scratch verdict flipped" true
        (Graph.find_cycle_scratch g <> None)
  | Graph.Ok _ -> Alcotest.fail "last edge not detected"

(* After the first cycle the detector degrades to plain reachability:
   later cycle-closing edges are still reported, later safe edges are
   not, and the from-scratch verdict keeps agreeing. *)
let t_detection_after_first_cycle () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) ();
  (match Graph.add_edge_checked g (n 1) (n 0) () with
  | Graph.Cycle _ -> ()
  | Graph.Ok _ -> Alcotest.fail "first cycle missed");
  (* A disjoint safe edge. *)
  (match Graph.add_edge_checked g (n 2) (n 3) () with
  | Graph.Ok _ -> ()
  | Graph.Cycle _ -> Alcotest.fail "safe edge misreported");
  (* A second, disjoint cycle. *)
  (match Graph.add_edge_checked g (n 3) (n 2) () with
  | Graph.Cycle c -> check_bool "second cycle genuine" true (genuine_cycle g c)
  | Graph.Ok _ -> Alcotest.fail "second cycle missed");
  check_bool "scratch still agrees" true (Graph.find_cycle_scratch g <> None)

(* The maintained order of a monitor-shaped insertion pattern matches
   what a final Kahn sort would certify: both are valid, though not
   necessarily equal. *)
let t_order_vs_topological_sort () =
  let rng = Rng.create 77 in
  let g = Graph.create () in
  for _ = 0 to 40 do
    let i = Rng.int rng 11 in
    let j = i + 1 + Rng.int rng (12 - i - 1) in
    Graph.add_edge g (n i) (n j) ()
  done;
  match (Graph.order g, Graph.topological_sort g) with
  | Some o, Some k ->
      check_bool "maintained order valid" true (valid_topo g o);
      check_bool "kahn order valid" true (valid_topo g k)
  | _ -> Alcotest.fail "acyclic graph lost an order"

(* Removing an order prefix changes nothing else.  Two graphs take one
   random edge stream; [g] also removes, now and then, the node first in
   its maintained order (no node left reaches it), and the stream never
   draws an edge into a removed node again.  Edges out of a removed
   node go to [keep] alone, as a retiring monitor draws none.  After
   every step both must agree on everything about the nodes [g] holds:
   the insertion's result (its renumbering count or cycle witness),
   each edge and its label, the order restricted to them, the reorder
   count, and the verdict and witness of [would_close_cycle] for a
   random extra set (with a name neither knows).  Removals stop at the
   first cycle.  Enough go that [g] compacts its ids several times. *)
let prefix_removal_ok ~seed ~size =
  let rng = Rng.create seed in
  let g = Graph.create () and keep = Graph.create () in
  let pool = ref (List.init 4 n) and gone = ref [] and next = ref 4 in
  (* Edges run from lower to higher hidden rank (random, so many are
     back edges in the maintained order); the last quarter of the stream
     also draws self-loops and edges either way, into the degraded
     regime. *)
  let rank = Hashtbl.create 64 in
  let rank_of u =
    match Hashtbl.find_opt rank u with
    | Some r -> r
    | None ->
        let r = Rng.int rng 1_000_000 in
        Hashtbl.add rank u r;
        r
  in
  let ok = ref true in
  let insist b = if not b then ok := false in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let mem u = Graph.position g u <> None in
  for step = 1 to 40 * size do
    if Rng.int rng 4 = 0 || List.length !pool < 2 then begin
      pool := n !next :: !pool;
      incr next
    end;
    (match Graph.order g with
    | Some (first :: _) when Rng.int rng 5 = 0 ->
        Graph.remove_node g first;
        pool := List.filter (fun u -> not (Txn_id.equal u first)) !pool;
        gone := first :: !gone
    | _ -> ());
    (match List.filter mem !pool with
    | _ :: _ as present when !gone <> [] && Rng.int rng 8 = 0 ->
        Graph.add_edge keep (pick !gone) (pick present) step
    | _ -> ());
    (* A window of recent nodes keeps the live graph small. *)
    let window = List.filteri (fun i _ -> i < size) !pool in
    let a = pick window and b = pick window in
    let a, b =
      if rank_of a <= rank_of b || step > 30 * size then (a, b) else (b, a)
    in
    if step > 30 * size || not (Txn_id.equal a b) then
      insist
        (Graph.add_edge_checked g a b step
        = Graph.add_edge_checked keep a b step);
    Graph.iter_edges g (fun a b ->
        insist (Graph.label g a b = Graph.label keep a b));
    insist
      (Graph.fold_edges keep
         (fun k a b -> if mem a && mem b then k + 1 else k)
         0
      = Graph.n_edges g);
    insist
      (Option.map (List.filter mem) (Graph.order keep) = Graph.order g
      || Graph.order g = None && not (Graph.is_acyclic keep));
    insist (Graph.reorders g = Graph.reorders keep);
    let extra =
      List.init 3 (fun _ -> (pick window, pick window))
      @ [ (pick window, txn [ 1_000_000 ]) ]
    in
    insist
      (Graph.would_close_cycle g extra = Graph.would_close_cycle keep extra)
  done;
  !ok && List.length !gone >= 2 * size

let prop_prefix_removal =
  QCheck.Test.make ~name:"removing an order prefix changes nothing else"
    ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 3 10))
    (fun (seed, size) -> prefix_removal_ok ~seed ~size)

(* [remove_node] drops the node's edges in both directions, a self-loop
   once, and the name comes back as a new node after every other.  A
   cyclic graph stays cyclic. *)
let t_remove_node () =
  let g = Graph.create () in
  Graph.add_edge g (n 0) (n 1) ();
  Graph.add_edge g (n 1) (n 2) ();
  Graph.remove_node g (n 1);
  Graph.remove_node g (n 7);
  check_int "nodes" 2 (Graph.n_nodes g);
  check_int "edges" 0 (Graph.n_edges g);
  check_bool "out-edge gone" false (Graph.mem_edge g (n 1) (n 2));
  Graph.add_node g (n 1);
  Alcotest.(check (option (list txn_testable)))
    "back as a new node, last in the order"
    (Some [ n 0; n 2; n 1 ])
    (Graph.order g);
  let h = Graph.create () in
  Graph.add_edge h (n 3) (n 3) ();
  Graph.add_edge h (n 3) (n 4) ();
  Graph.add_edge h (n 5) (n 3) ();
  Graph.remove_node h (n 3);
  check_int "self-loop counted once" 0 (Graph.n_edges h);
  check_bool "still cyclic" true (Graph.find_cycle h = Some [ n 3 ])

let suite =
  ( "graph-incremental",
    [
      QCheck_alcotest.to_alcotest prop_differential;
      QCheck_alcotest.to_alcotest prop_dag_stays_acyclic;
      QCheck_alcotest.to_alcotest prop_joint_acyclic;
      QCheck_alcotest.to_alcotest prop_joint_cyclic;
      QCheck_alcotest.to_alcotest prop_prefix_removal;
      Alcotest.test_case "remove_node" `Quick t_remove_node;
      Alcotest.test_case "back edge inside a reorder region" `Quick
        t_back_edge_in_reorder_region;
      Alcotest.test_case "self loop" `Quick t_self_loop;
      Alcotest.test_case "duplicate edges pin the counters" `Quick
        t_duplicate_edge_counters;
      Alcotest.test_case "duplicate keeps the first label" `Quick
        t_duplicate_keeps_first_label;
      Alcotest.test_case "cycle closed by the last edge" `Quick
        t_cycle_closed_by_last_edge;
      Alcotest.test_case "detection survives the first cycle" `Quick
        t_detection_after_first_cycle;
      Alcotest.test_case "maintained order vs final sort" `Quick
        t_order_vs_topological_sort;
    ] )
