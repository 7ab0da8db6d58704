open Nt_base

(* Pearce-Kelly (DESIGN.md §4): [ord] keeps a topological order of the
   nodes while the graph is acyclic; an insertion against it searches
   and renumbers only the affected region, and after the first accepted
   cycle each insertion is a plain reachability search, [first_cycle]
   keeping acyclicity queries O(1).  An edge's label is the value of
   its successor map, held once.  Maps iterate in ascending id order,
   so no search depends on the labels.

   Names are interned to dense ids at [add_node], so the hot paths
   touch only int arrays, maps and sets, and the searches reuse a
   round-stamped [mark] array.  A removed node leaves its slot behind
   (position -1, no edges, its name out of [ids]); ids are never
   reused, so a new node still takes the next id and position.  Once
   removed slots outnumber live ones, [compact] renumbers the live
   nodes' ids and positions densely, each in its old relative order,
   so no later search can tell. *)

module Int_set = Set.Make (Int)
module Int_map = Map.Make (Int)

type 'e t = {
  ids : int Txn_id.Tbl.t;  (* name -> dense id, assigned at add_node *)
  mutable names : Txn_id.t array;  (* id -> name *)
  mutable succ : 'e Int_map.t array;  (* successor -> the edge's label *)
  mutable pred : Int_set.t array;
  mutable ord : int array;  (* id -> position; a permutation of 0..n-1 *)
  mutable mark : int array;  (* id -> round of last visit *)
  mutable parent_tmp : int array;  (* DFS tree of the current search *)
  mutable round : int;
  mutable n : int;  (* ids handed out since the last compaction *)
  mutable n_live : int;  (* of which not removed *)
  mutable n_edges : int;
  mutable first_cycle : Txn_id.t list option;
  mutable n_cyclic_edges : int;
  mutable n_reorders : int;  (* cumulative nodes renumbered *)
}

let create () =
  {
    ids = Txn_id.Tbl.create 64;
    names = [||];
    succ = [||];
    pred = [||];
    ord = [||];
    mark = [||];
    parent_tmp = [||];
    round = 0;
    n = 0;
    n_live = 0;
    n_edges = 0;
    first_cycle = None;
    n_cyclic_edges = 0;
    n_reorders = 0;
  }

let grow g =
  if g.n = Array.length g.names then begin
    let cap = max 16 (2 * g.n) in
    let extend a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 g.n;
      b
    in
    g.names <- extend g.names Txn_id.root;
    g.succ <- extend g.succ Int_map.empty;
    g.pred <- extend g.pred Int_set.empty;
    g.ord <- extend g.ord 0;
    g.mark <- extend g.mark 0;
    g.parent_tmp <- extend g.parent_tmp 0
  end

let intern g t =
  match Txn_id.Tbl.find_opt g.ids t with
  | Some i -> i
  | None ->
      grow g;
      let i = g.n in
      Txn_id.Tbl.add g.ids t i;
      g.names.(i) <- t;
      (* A fresh node goes to the end of the order: it has no edges
         yet, so any position is consistent. *)
      g.ord.(i) <- i;
      g.n <- i + 1;
      g.n_live <- g.n_live + 1;
      i

let add_node g t = ignore (intern g t)

type add_result = Ok of int | Cycle of Txn_id.t list

let label g a b =
  match (Txn_id.Tbl.find_opt g.ids a, Txn_id.Tbl.find_opt g.ids b) with
  | Some i, Some j -> Int_map.find_opt j g.succ.(i)
  | _ -> None

let mem_edge g a b = Option.is_some (label g a b)

let n_nodes g = g.n_live
let n_edges g = g.n_edges
let is_acyclic g = g.n_cyclic_edges = 0
let reorders g = g.n_reorders

let iter_edges g f =
  for i = 0 to g.n - 1 do
    Int_map.iter (fun j _ -> f g.names.(i) g.names.(j)) g.succ.(i)
  done

let removed g i = g.ord.(i) < 0

let fold_nodes g f acc =
  let acc = ref acc in
  for i = 0 to g.n - 1 do
    if not (removed g i) then acc := f !acc g.names.(i)
  done;
  !acc

let fold_edges g f acc =
  let acc = ref acc in
  for i = 0 to g.n - 1 do
    Int_map.iter (fun j _ -> acc := f !acc g.names.(i) g.names.(j)) g.succ.(i)
  done;
  !acc

let nodes g = fold_nodes g (fun acc n -> n :: acc) [] |> List.sort Txn_id.compare

let edges g = fold_edges g (fun acc a b -> (a, b) :: acc) []

let order g =
  if g.n_cyclic_edges > 0 then None
  else begin
    (* Invert the positions (distinct, below [g.n]): position -> id. *)
    let at = Array.make g.n (-1) in
    for i = 0 to g.n - 1 do
      if not (removed g i) then at.(g.ord.(i)) <- i
    done;
    Some
      (Array.fold_right
         (fun i acc -> if i < 0 then acc else g.names.(i) :: acc)
         at [])
  end

let position g t =
  Option.map (fun i -> g.ord.(i)) (Txn_id.Tbl.find_opt g.ids t)

(* Record the raw edge in both adjacency directions (the caller has
   ruled duplicates out). *)
let record_edge g i j l =
  g.succ.(i) <- Int_map.add j l g.succ.(i);
  g.pred.(j) <- Int_set.add i g.pred.(j);
  g.n_edges <- g.n_edges + 1

let record_cycle g cycle =
  g.n_cyclic_edges <- g.n_cyclic_edges + 1;
  if g.first_cycle = None then g.first_cycle <- Some cycle

let path_of_parents ?name g ~src ~dst =
  let name = match name with Some f -> f | None -> fun i -> g.names.(i) in
  let rec walk acc i =
    if i = src then name i :: acc else walk (name i :: acc) g.parent_tmp.(i)
  in
  walk [] dst

(* Forward DFS from [src] over nodes with ord <= [ub].  Returns the
   path src ... dst if [dst] is reached, otherwise the list of visited
   ids (the forward half of the affected region). *)
let bounded_forward g ~src ~dst ~ub =
  g.round <- g.round + 1;
  let r = g.round in
  let found = ref false in
  let visited = ref [ src ] in
  let stack = ref [ src ] in
  g.mark.(src) <- r;
  g.parent_tmp.(src) <- src;
  while (not !found) && !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        if i = dst then found := true
        else
          Int_map.iter
            (fun j _ ->
              if g.mark.(j) <> r && g.ord.(j) <= ub then begin
                g.mark.(j) <- r;
                g.parent_tmp.(j) <- i;
                visited := j :: !visited;
                stack := j :: !stack
              end)
            g.succ.(i)
  done;
  if !found then Error (path_of_parents g ~src ~dst) else Stdlib.Ok !visited

(* Backward DFS from [src] over nodes with ord >= [lb]: the backward
   half of the affected region. *)
let bounded_backward g ~src ~lb =
  g.round <- g.round + 1;
  let r = g.round in
  let visited = ref [ src ] in
  let stack = ref [ src ] in
  g.mark.(src) <- r;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        Int_set.iter
          (fun j ->
            if g.mark.(j) <> r && g.ord.(j) >= lb then begin
              g.mark.(j) <- r;
              visited := j :: !visited;
              stack := j :: !stack
            end)
          g.pred.(i)
  done;
  !visited

(* Does a path [src] ~> [dst] exist over the stored edges plus [more]
   (further successors by id), through ids that [inside] admits?  Ids
   at or past [g.n] are names the graph does not know: they have no
   stored edges.  Unbounded, this is the per-insertion search once the
   order is broken (the graph already has a cycle). *)
let search ?(more = fun _ -> []) ?(inside = fun _ -> true) g ~src ~dst =
  g.round <- g.round + 1;
  let r = g.round in
  let found = ref false in
  let stack = ref [ src ] in
  g.mark.(src) <- r;
  g.parent_tmp.(src) <- src;
  let visit i j =
    if g.mark.(j) <> r && inside j then begin
      g.mark.(j) <- r;
      g.parent_tmp.(j) <- i;
      stack := j :: !stack
    end
  in
  while (not !found) && !stack <> [] do
    match !stack with
    | [] -> ()
    | i :: rest ->
        stack := rest;
        if i = dst then found := true
        else begin
          if i < g.n then Int_map.iter (fun j _ -> visit i j) g.succ.(i);
          List.iter (visit i) (more i)
        end
  done;
  !found

let add_edge_checked g a b l =
  let i = intern g a in
  let j = intern g b in
  if Int_map.mem j g.succ.(i) then Ok 0
  else if i = j then begin
    record_edge g i j l;
    let cycle = [ a ] in
    record_cycle g cycle;
    Cycle cycle
  end
  else if g.n_cyclic_edges > 0 then begin
    (* Degraded regime: the order is beyond repair, fall back to plain
       reachability per insertion. *)
    record_edge g i j l;
    if search g ~src:j ~dst:i then begin
      let path = path_of_parents g ~src:j ~dst:i in
      record_cycle g path;
      Cycle path
    end
    else Ok 0
  end
  else
    let oa = g.ord.(i) and ob = g.ord.(j) in
    if oa < ob then begin
      (* The maintained order already proves no path b ~> a. *)
      record_edge g i j l;
      Ok 0
    end
    else
      (* Every path b ~> a in an order-consistent graph runs through
         nodes ordered within [ob, oa], so the bounded searches are
         complete. *)
      match bounded_forward g ~src:j ~dst:i ~ub:oa with
      | Error path ->
          record_edge g i j l;
          record_cycle g path;
          Cycle path
      | Stdlib.Ok delta_f ->
          let delta_b = bounded_backward g ~src:i ~lb:ob in
          (* Renumber the affected region: the nodes reaching [a]
             (delta_b) take the smallest of the pooled positions, in
             their old relative order, followed by the nodes reachable
             from [b] (delta_f).  Everything outside the region keeps
             its position, so all other edges stay consistent. *)
          let by_ord l =
            List.sort (fun x y -> compare g.ord.(x) g.ord.(y)) l
          in
          let region = by_ord delta_b @ by_ord delta_f in
          let pool =
            List.sort (fun (x : int) y -> compare x y)
              (List.map (fun x -> g.ord.(x)) region)
          in
          List.iter2 (fun x o -> g.ord.(x) <- o) region pool;
          let moved = List.length region in
          g.n_reorders <- g.n_reorders + moved;
          record_edge g i j l;
          Ok moved

let add_edge g a b l = ignore (add_edge_checked g a b l)

(* Renumber the live nodes to ids and positions 0..live-1, each in its
   old relative order, and shrink the arrays to fit them. *)
let compact g =
  let live = g.n_live in
  let id = Array.make g.n (-1) in
  let old = Array.make live 0 in
  let k = ref 0 in
  for i = 0 to g.n - 1 do
    if not (removed g i) then begin
      id.(i) <- !k;
      old.(!k) <- i;
      incr k
    end
  done;
  let cap = max 16 (2 * live) in
  let names = Array.make cap Txn_id.root
  and succ = Array.make cap Int_map.empty
  and pred = Array.make cap Int_set.empty
  and ord = Array.make cap 0 in
  Array.iteri
    (fun i' i ->
      names.(i') <- g.names.(i);
      succ.(i') <-
        Int_map.fold (fun j l m -> Int_map.add id.(j) l m) g.succ.(i)
          Int_map.empty;
      pred.(i') <- Int_set.map (fun j -> id.(j)) g.pred.(i))
    old;
  let by_position = Array.init live Fun.id in
  Array.sort
    (fun x y -> Int.compare g.ord.(old.(x)) g.ord.(old.(y)))
    by_position;
  Array.iteri (fun p i' -> ord.(i') <- p) by_position;
  Txn_id.Tbl.reset g.ids;
  Array.iteri (fun i' i -> Txn_id.Tbl.add g.ids g.names.(i) i') old;
  g.names <- names;
  g.succ <- succ;
  g.pred <- pred;
  g.ord <- ord;
  g.mark <- Array.make cap 0;
  g.parent_tmp <- Array.make cap 0;
  g.n <- live

(* Drop [t] with its edges.  Its slot stays (position -1) until the
   removed slots outnumber the live ones; compacting then costs the
   live nodes, so a removal is amortised O(log n). *)
let remove_node g t =
  match Txn_id.Tbl.find_opt g.ids t with
  | None -> ()
  | Some i ->
      let out = g.succ.(i) and into = g.pred.(i) in
      g.n_edges <-
        g.n_edges - Int_map.cardinal out - Int_set.cardinal into
        + if Int_map.mem i out then 1 else 0;
      Int_map.iter (fun j _ -> g.pred.(j) <- Int_set.remove i g.pred.(j)) out;
      Int_set.iter (fun k -> g.succ.(k) <- Int_map.remove i g.succ.(k)) into;
      g.succ.(i) <- Int_map.empty;
      g.pred.(i) <- Int_set.empty;
      g.ord.(i) <- -1;
      g.names.(i) <- Txn_id.root;
      Txn_id.Tbl.remove g.ids t;
      g.n_live <- g.n_live - 1;
      if g.n - g.n_live > max 16 g.n_live then compact g

(* Read-only joint cycle test over G u extra, for admission control
   (contract in graph.mli).  A name the graph does not know gets a
   virtual id [n, n+1, ...], which is also its position: after every
   real node, so, having no stored edges, it extends the maintained
   order.  While the graph is acyclic every stored edge is forward in
   that order, so a cycle of G u extra uses an extra edge (a, b) with
   pos a >= pos b; its highest node leaves through such an edge and its
   lowest is entered through one, so it lies within the window
   [min pos b, max pos a] over them.  A search from each such [b] for
   its [a], confined to the window, is therefore complete — the
   argument [bounded_forward] relies on. *)
let would_close_cycle g extra =
  let n = g.n in
  let virt = ref [] and n_virt = ref 0 in
  let resolve u =
    match Txn_id.Tbl.find_opt g.ids u with
    | Some i -> i
    | None -> (
        match List.find_opt (fun (v, _) -> Txn_id.equal u v) !virt with
        | Some (_, i) -> i
        | None ->
            let i = n + !n_virt in
            incr n_virt;
            virt := (u, i) :: !virt;
            i)
  in
  let extra = List.map (fun (a, b) -> (resolve a, resolve b)) extra in
  let pos i = if i < n then g.ord.(i) else i in
  let closing =
    if g.n_cyclic_edges > 0 then extra
    else List.filter (fun (i, j) -> pos i >= pos j) extra
  in
  if closing = [] then None
  else begin
    let size = n + !n_virt in
    if Array.length g.mark < size then begin
      let extend a =
        let b = Array.make size 0 in
        Array.blit a 0 b 0 (Array.length a);
        b
      in
      g.mark <- extend g.mark;
      g.parent_tmp <- extend g.parent_tmp
    end;
    let adj = Hashtbl.create 16 in
    List.iter (fun (i, j) -> Hashtbl.add adj i j) extra;
    let more i = Hashtbl.find_all adj i in
    let inside =
      if g.n_cyclic_edges > 0 then fun _ -> true
      else
        let lo = List.fold_left (fun m (_, j) -> min m (pos j)) max_int closing
        and hi =
          List.fold_left (fun m (i, _) -> max m (pos i)) min_int closing
        in
        fun k ->
          let p = pos k in
          lo <= p && p <= hi
    in
    let name i =
      if i < n then g.names.(i)
      else fst (List.find (fun (_, k) -> k = i) !virt)
    in
    match
      List.find_opt (fun (i, j) -> search ~more ~inside g ~src:j ~dst:i) closing
    with
    | Some (i, j) -> Some (path_of_parents ~name g ~src:j ~dst:i)
    | None -> if g.n_cyclic_edges > 0 then g.first_cycle else None
  end

(* Iterative three-color DFS returning a cycle if one exists — the
   from-scratch reference the incremental detector is differentially
   tested against.  Roots are taken in {!Txn_id.compare} order so the
   witness is reproducible. *)
let find_cycle_scratch g =
  let color = Array.make (max 1 g.n) 0 in
  (* 0 = white, 1 = gray, 2 = black *)
  let result = ref None in
  let rec visit path i =
    match color.(i) with
    | 2 -> ()
    | 1 ->
        (* Back edge.  [path] is reversed and its head is the revisited
           node [i]; the cycle is everything after that head up to and
           including the previous occurrence of [i]. *)
        let rec cut = function
          | [] -> []
          | x :: rest -> if x = i then [ x ] else x :: cut rest
        in
        result :=
          Some (List.rev_map (fun x -> g.names.(x)) (cut (List.tl path)))
    | _ ->
        color.(i) <- 1;
        Int_map.iter
          (fun j _ -> if !result = None then visit (j :: path) j)
          g.succ.(i);
        color.(i) <- 2
  in
  List.iter
    (fun t ->
      if !result = None then
        let i = Txn_id.Tbl.find g.ids t in
        visit [ i ] i)
    (nodes g);
  Option.map List.rev !result

let find_cycle g = if g.n_cyclic_edges = 0 then None else g.first_cycle

let topological_sort g =
  if g.n_cyclic_edges > 0 then None
  else begin
    let indegree = Array.make (max 1 g.n) 0 in
    for i = 0 to g.n - 1 do
      Int_map.iter (fun j _ -> indegree.(j) <- indegree.(j) + 1) g.succ.(i)
    done;
    (* Kahn's algorithm with a sorted frontier: a canonical order with
       ties broken by {!Txn_id.compare}, independent of insertion
       history (unlike {!order}). *)
    let module S = Set.Make (struct
      type t = Txn_id.t * int

      let compare (a, _) (b, _) = Txn_id.compare a b
    end) in
    let frontier = ref S.empty in
    for i = 0 to g.n - 1 do
      if indegree.(i) = 0 && not (removed g i) then
        frontier := S.add (g.names.(i), i) !frontier
    done;
    let out = ref [] and count = ref 0 in
    while not (S.is_empty !frontier) do
      let ((name, i) as el) = S.min_elt !frontier in
      frontier := S.remove el !frontier;
      out := name :: !out;
      incr count;
      Int_map.iter
        (fun j _ ->
          let d = indegree.(j) - 1 in
          indegree.(j) <- d;
          if d = 0 then frontier := S.add (g.names.(j), j) !frontier)
        g.succ.(i)
    done;
    if !count = g.n_live then Some (List.rev !out) else None
  end
