open Nt_base
open Nt_sg

type node = {
  mutable submit : int;  (* -1 until Request_create *)
  mutable complete : int;  (* -1 until reported *)
}

type t = {
  mu : Mutex.t;
  seq : int Atomic.t;
  graph : string option ref Graph.t;
      (* rail frontier edges and shipped edges, each labelled with its
         shipped witness ([None] for a rail edge nothing came over) *)
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable frontier : int list;  (* the maximal reported tops *)
  mutable installs : int;  (* shipped edges installed *)
  mutable on_rail : int;  (* of them, installed over a rail edge *)
  mutable checks : int;
  mutable vetoes : int;
}

let create () =
  {
    mu = Mutex.create ();
    seq = Atomic.make 0;
    graph = Graph.create ();
    nodes = [||];
    n_nodes = 0;
    frontier = [];
    installs = 0;
    on_rail = 0;
    checks = 0;
    vetoes = 0;
  }

let stamp t = Atomic.fetch_and_add t.seq 1

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let top_txn g = Txn_id.child Txn_id.root g

let register t =
  locked t (fun () ->
      let g = t.n_nodes in
      if g = Array.length t.nodes then
        t.nodes <-
          Array.init (max 64 (2 * g)) (fun i ->
              if i < g then t.nodes.(i) else { submit = -1; complete = -1 });
      t.n_nodes <- g + 1;
      g)

let node t g =
  if g < 0 || g >= t.n_nodes then invalid_arg "Spine: unregistered transaction"
  else t.nodes.(g)

(* The rail [u -> v iff u reported before v was requested] is an
   interval order, kept as in [Monitor.report]: a request draws edges
   from the frontier only, and a report retires every member that
   reported before its own request — those reach it through the edge
   its request drew.  Both notes stamp under the mutex, so notes arrive
   in stamp order and the frontier is exact. *)
let note_submit t g =
  locked t (fun () ->
      let n = node t g in
      let s = stamp t in
      n.submit <- s;
      let v = top_txn g in
      Graph.add_node t.graph v;
      List.iter
        (fun u -> Graph.add_edge t.graph (top_txn u) v (ref None))
        t.frontier;
      s)

let note_complete t g =
  locked t (fun () ->
      let n = node t g in
      let s = stamp t in
      n.complete <- s;
      t.frontier <-
        g :: List.filter (fun u -> t.nodes.(u).complete > n.submit) t.frontier;
      s)

let railed t a b =
  locked t (fun () ->
      let c = (node t a).complete and s = (node t b).submit in
      c >= 0 && s >= 0 && c < s)

type verdict =
  | Admitted
  | Vetoed of { cycle : Txn_id.t list; witness : string }

let g_of u = Option.get (Txn_id.last_index u)

let rec rotate_to top pre = function
  | [] -> List.rev pre
  | g :: _ as l when g = top -> l @ List.rev pre
  | g :: rest -> rotate_to top (g :: pre) rest

(* The witness shipped for edge [T0.a -> T0.b]: installed in the graph,
   or else its first copy in [fresh]. *)
let witness t fresh a b =
  match Graph.label t.graph (top_txn a) (top_txn b) with
  | Some { contents = Some w } -> Some w
  | Some { contents = None } | None ->
      List.find_map
        (fun (a', b', w) -> if a = a' && b = b' then Some w else None)
        fresh

(* One line per cycle edge: a shipped edge carries its witness; any
   other cycle edge is a stored rail edge. *)
let edge_line t fresh a b =
  let name g = Txn_id.to_string (top_txn g) in
  match witness t fresh a b with
  | Some w -> Printf.sprintf "%s -> %s [%s]" (name a) (name b) w
  | None ->
      Printf.sprintf "%s -> %s [rail: %s reported@%d before %s requested@%d]"
        (name a) (name b) (name a) t.nodes.(a).complete (name b)
        t.nodes.(b).submit

let gate t ~top ~edges =
  locked t (fun () ->
      t.checks <- t.checks + 1;
      if (node t top).submit < 0 then
        invalid_arg "Spine.gate: top never submitted";
      (* Each edge's first copy, unless it was installed before. *)
      let fresh =
        List.rev
          (List.fold_left
             (fun acc ((a, b, _) as e) ->
               if a = b || witness t acc a b <> None then acc else e :: acc)
             [] edges)
      in
      let pairs = List.map (fun (a, b, _) -> (top_txn a, top_txn b)) fresh in
      match Graph.would_close_cycle t.graph pairs with
      | None ->
          List.iter
            (fun (a, b, w) ->
              let a = top_txn a and b = top_txn b in
              match Graph.label t.graph a b with
              | Some slot ->
                  t.on_rail <- t.on_rail + 1;
                  slot := Some w
              | None -> Graph.add_edge t.graph a b (ref (Some w)))
            fresh;
          t.installs <- t.installs + List.length fresh;
          Admitted
      | Some path ->
          t.vetoes <- t.vetoes + 1;
          let cycle = rotate_to top [] (List.map g_of path) in
          let lines =
            List.map2 (edge_line t fresh) cycle
              (List.tl cycle @ [ List.hd cycle ])
          in
          Vetoed
            {
              cycle = List.map top_txn cycle;
              witness = String.concat "\n" lines;
            })

let checks t = locked t (fun () -> t.checks)
let vetoes t = locked t (fun () -> t.vetoes)
let edge_count t = locked t (fun () -> t.installs)
let on_rail t = locked t (fun () -> t.on_rail)
let node_count t = locked t (fun () -> t.n_nodes)
