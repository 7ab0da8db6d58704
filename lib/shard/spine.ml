open Nt_base
open Nt_sg

type node = {
  submit : int;
  mutable complete : int;  (* -1 until reported *)
}

type t = {
  mu : Mutex.t;
  seq : int Atomic.t;
  graph : string option Graph.t;
      (* rail frontier edges ([None]) and shipped edges (their witness) *)
  mutable nodes : node array;
  mutable n_nodes : int;
  mutable frontier : int list;  (* the maximal reported tops *)
  mutable low : int;  (* the least noted top not yet reported *)
  mutable installs : int;  (* shipped edges installed *)
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
    low = 0;
    installs = 0;
    checks = 0;
    vetoes = 0;
  }

let stamp t = Atomic.fetch_and_add t.seq 1

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let top_txn g = Txn_id.child Txn_id.root g

let node t g =
  if g < 0 || g >= t.n_nodes then invalid_arg "Spine: top never noted"
  else t.nodes.(g)

(* The rail [u -> v iff u reported before v was requested] is an
   interval order, kept as in [Monitor.report]: a request draws edges
   from the frontier only, and a report retires every member that
   reported before its own request — those reach it through the edge
   its request drew.  Both notes stamp under the mutex, so notes arrive
   in stamp order and the frontier is exact. *)
let note_submit t g =
  locked t (fun () ->
      if g <> t.n_nodes then invalid_arg "Spine.note_submit: not the next top";
      let s = stamp t in
      if g = Array.length t.nodes then begin
        let dummy = { submit = -1; complete = -1 } in
        let nodes = Array.make (max 64 (2 * g)) dummy in
        Array.blit t.nodes 0 nodes 0 g;
        t.nodes <- nodes
      end;
      t.nodes.(g) <- { submit = s; complete = -1 };
      t.n_nodes <- g + 1;
      let v = top_txn g in
      Graph.add_node t.graph v;
      List.iter (fun u -> Graph.add_edge t.graph (top_txn u) v None) t.frontier;
      s)

let note_complete t g =
  locked t (fun () ->
      let n = node t g in
      let s = stamp t in
      n.complete <- s;
      t.frontier <-
        g :: List.filter (fun u -> t.nodes.(u).complete > n.submit) t.frontier;
      while t.low < t.n_nodes && t.nodes.(t.low).complete >= 0 do
        t.low <- t.low + 1
      done;
      s)

(* Tops are noted in submit order, so [low]'s request is the earliest
   among open tops: [T0.g] reported before every open top was
   requested, and before every top noted later. *)
let settled t g =
  locked t (fun () ->
      let c = (node t g).complete in
      c >= 0 && (t.low = t.n_nodes || c < t.nodes.(t.low).submit))

(* [T0.a] reported before [T0.b] was requested. *)
let railed t a b =
  let c = (node t a).complete in
  c >= 0 && c < (node t b).submit

type verdict =
  | Admitted
  | Vetoed of { cycle : Txn_id.t list; witness : string }

let g_of u = Option.get (Txn_id.last_index u)

let rec rotate_to top pre = function
  | [] -> List.rev pre
  | g :: _ as l when g = top -> l @ List.rev pre
  | g :: rest -> rotate_to top (g :: pre) rest

(* One line per cycle edge: a shipped edge, installed or in [fresh],
   carries its witness; any other cycle edge is a stored rail edge. *)
let edge_line t fresh a b =
  let name g = Txn_id.to_string (top_txn g) in
  let shipped =
    match Graph.label t.graph (top_txn a) (top_txn b) with
    | Some label -> label
    | None ->
        List.find_map
          (fun (a', b', w) ->
            if a = a' && b = b' then Some (Lazy.force w) else None)
          fresh
  in
  match shipped with
  | Some w -> Printf.sprintf "%s -> %s [%s]" (name a) (name b) w
  | None ->
      Printf.sprintf "%s -> %s [rail: %s reported@%d before %s requested@%d]"
        (name a) (name b) (name a) t.nodes.(a).complete (name b)
        t.nodes.(b).submit

let gate t ~top ~edges =
  locked t (fun () ->
      ignore (node t top);
      (* An edge the rail orders is already reachable through the
         frontier edges, so it adds nothing: dropping it moves no
         verdict, and no shipped edge ever lands on a rail edge. *)
      match
        List.filter (fun (a, b, _) -> a <> b && not (railed t a b)) edges
      with
      | [] -> Admitted
      | edges -> (
          t.checks <- t.checks + 1;
          (* Each edge's first copy, unless it was installed before. *)
          let fresh =
            List.rev
              (List.fold_left
                 (fun acc ((a, b, _) as e) ->
                   if
                     Graph.mem_edge t.graph (top_txn a) (top_txn b)
                     || List.exists (fun (a', b', _) -> a = a' && b = b') acc
                   then acc
                   else e :: acc)
                 [] edges)
          in
          let pairs =
            List.map (fun (a, b, _) -> (top_txn a, top_txn b)) fresh
          in
          match Graph.would_close_cycle t.graph pairs with
          | None ->
              List.iter
                (fun (a, b, w) ->
                  Graph.add_edge t.graph (top_txn a) (top_txn b)
                    (Some (Lazy.force w)))
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
                }))

let checks t = locked t (fun () -> t.checks)
let vetoes t = locked t (fun () -> t.vetoes)
let edge_count t = locked t (fun () -> t.installs)
let node_count t = locked t (fun () -> t.n_nodes)
