open Nt_base
open Nt_sg

type t = {
  mu : Mutex.t;
  seq : int Atomic.t;
  graph : string option Graph.t;
      (* rail frontier edges ([None]) and shipped edges (their witness),
         over the tops not retired *)
  rail : Rail.t;  (* T0's, on the stamps *)
  mutable noted : int;  (* tops noted: [0 .. noted - 1] *)
  mutable installs : int;  (* shipped edges installed *)
  mutable checks : int;
  mutable vetoes : int;
}

let create () =
  {
    mu = Mutex.create ();
    seq = Atomic.make 0;
    graph = Graph.create ();
    rail = Rail.create ~retiring:true;
    noted = 0;
    installs = 0;
    checks = 0;
    vetoes = 0;
  }

let stamp t = Atomic.fetch_and_add t.seq 1

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let top_txn g = Txn_id.child Txn_id.root g

(* [T0.g]'s request and report stamps; [None] once it has retired. *)
let times t g =
  if g < 0 || g >= t.noted then invalid_arg "Spine: top never noted"
  else Rail.times t.rail (top_txn g)

(* Both notes stamp under the mutex, so notes arrive in stamp order and
   the rail's frontier is exact. *)
let note_submit t g =
  locked t (fun () ->
      if g <> t.noted then invalid_arg "Spine.note_submit: not the next top";
      let s = stamp t in
      t.noted <- g + 1;
      let v = top_txn g in
      Graph.add_node t.graph v;
      List.iter
        (fun (u, _) -> Graph.add_edge t.graph u v None)
        (Rail.request t.rail v s);
      s)

let note_complete t g =
  locked t (fun () ->
      ignore (times t g);
      let s = stamp t in
      Rail.report t.rail (top_txn g) s;
      ignore (Rail.retire t.rail t.graph);
      s)

let settled t g =
  locked t (fun () ->
      ignore (times t g);
      Rail.settled t.rail (top_txn g))

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
        (name a) (name b) (name a)
        (snd (Option.get (times t a)))
        (name b)
        (fst (Option.get (times t b)))

let gate t ~top ~edges =
  locked t (fun () ->
      ignore (times t top);
      (* A rail-ordered edge is already reachable through the frontier
         edges: dropping it moves no verdict, and no shipped edge lands
         on a rail edge.  Every edge leaving a retired top is one; none
         can enter it ([doc/sharding.mld]). *)
      let kept (a, b, _) =
        a <> b
        &&
        match (times t a, times t b) with
        | _, None -> invalid_arg "Spine.gate: an edge enters a retired top"
        | None, Some _ -> false
        | Some (_, reported), Some (requested, _) -> reported >= requested
      in
      match List.filter kept edges with
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
let node_count t = locked t (fun () -> Graph.n_nodes t.graph)
