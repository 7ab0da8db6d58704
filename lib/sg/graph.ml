open Nt_base

(* The graph maintains, next to the adjacency sets, a topological order
   of its nodes (Pearce-Kelly): [ord] maps every node to a distinct
   integer such that ord(x) < ord(y) for every edge x -> y, as long as
   the graph is acyclic.  Inserting an edge a -> b with
   ord(a) < ord(b) is O(1); otherwise only the "affected region"
   (nodes with order between ord(b) and ord(a)) is searched and
   renumbered.  The forward search either certifies that no path
   b ~> a exists — so the region can be reordered and the order
   invariant restored — or returns that path as the witness of the
   cycle the new edge closes.

   Once a cycle-closing edge has been accepted, no topological order
   exists and the invariant cannot be repaired; the graph degrades to
   a per-insertion reachability search (exactly the cost profile a
   cyclic monitor run had anyway — after the first alarm every further
   verdict is already decided).  [first_cycle] caches the first
   witness, so acyclicity queries stay O(1) in both regimes.

   Node names are interned to dense integer ids at [add_node]: the hot
   paths (order lookups, the bounded searches, the renumbering) touch
   only int arrays and int sets, never hashing a transaction name.
   The search worklists reuse a round-stamped [mark] array, so a
   search allocates nothing proportional to the graph. *)

module Int_set = Set.Make (Int)

type t = {
  ids : int Txn_id.Tbl.t;  (* name -> dense id, assigned at add_node *)
  mutable names : Txn_id.t array;  (* id -> name *)
  mutable succ : Int_set.t array;
  mutable pred : Int_set.t array;
  mutable ord : int array;  (* id -> position; a permutation of 0..n-1 *)
  mutable mark : int array;  (* id -> round of last visit *)
  mutable parent_tmp : int array;  (* DFS tree of the current search *)
  mutable round : int;
  mutable n : int;
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
    g.succ <- extend g.succ Int_set.empty;
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
      i

let add_node g t = ignore (intern g t)

type add_result = Ok of int | Cycle of Txn_id.t list

let mem_edge g a b =
  match (Txn_id.Tbl.find_opt g.ids a, Txn_id.Tbl.find_opt g.ids b) with
  | Some i, Some j -> Int_set.mem j g.succ.(i)
  | _ -> false

let n_nodes g = g.n
let n_edges g = g.n_edges
let is_acyclic g = g.n_cyclic_edges = 0
let reorders g = g.n_reorders

let successors g t =
  match Txn_id.Tbl.find_opt g.ids t with
  | None -> []
  | Some i ->
      Int_set.fold (fun j acc -> g.names.(j) :: acc) g.succ.(i) []
      |> List.sort Txn_id.compare

let iter_edges g f =
  for i = 0 to g.n - 1 do
    Int_set.iter (fun j -> f g.names.(i) g.names.(j)) g.succ.(i)
  done

let fold_nodes g f acc =
  let acc = ref acc in
  for i = 0 to g.n - 1 do
    acc := f !acc g.names.(i)
  done;
  !acc

let fold_edges g f acc =
  let acc = ref acc in
  for i = 0 to g.n - 1 do
    Int_set.iter (fun j -> acc := f !acc g.names.(i) g.names.(j)) g.succ.(i)
  done;
  !acc

let nodes g = fold_nodes g (fun acc n -> n :: acc) [] |> List.sort Txn_id.compare

let edges g = fold_edges g (fun acc a b -> (a, b) :: acc) []

let order g =
  if g.n_cyclic_edges > 0 then None
  else begin
    (* Invert the permutation: position -> name. *)
    let out = Array.make g.n Txn_id.root in
    for i = 0 to g.n - 1 do
      out.(g.ord.(i)) <- g.names.(i)
    done;
    Some (Array.to_list out)
  end

(* Record the raw edge in both adjacency directions (the caller has
   ruled duplicates out). *)
let record_edge g i j =
  g.succ.(i) <- Int_set.add j g.succ.(i);
  g.pred.(j) <- Int_set.add i g.pred.(j);
  g.n_edges <- g.n_edges + 1

let record_cycle g cycle =
  g.n_cyclic_edges <- g.n_cyclic_edges + 1;
  if g.first_cycle = None then g.first_cycle <- Some cycle

let path_of_parents g ~src ~dst =
  let rec walk acc i =
    if i = src then g.names.(i) :: acc
    else walk (g.names.(i) :: acc) g.parent_tmp.(i)
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
          Int_set.iter
            (fun j ->
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

(* Unbounded reachability search, used once the order is broken (the
   graph already has a cycle): does a path [src] ~> [dst] exist? *)
let find_path g src dst =
  g.round <- g.round + 1;
  let r = g.round in
  let found = ref false in
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
          Int_set.iter
            (fun j ->
              if g.mark.(j) <> r then begin
                g.mark.(j) <- r;
                g.parent_tmp.(j) <- i;
                stack := j :: !stack
              end)
            g.succ.(i)
  done;
  if !found then Some (path_of_parents g ~src ~dst) else None

let add_edge_checked g a b =
  let i = intern g a in
  let j = intern g b in
  if Int_set.mem j g.succ.(i) then Ok 0
  else if i = j then begin
    record_edge g i j;
    let cycle = [ a ] in
    record_cycle g cycle;
    Cycle cycle
  end
  else if g.n_cyclic_edges > 0 then begin
    (* Degraded regime: the order is beyond repair, fall back to plain
       reachability per insertion. *)
    record_edge g i j;
    match find_path g j i with
    | Some path ->
        record_cycle g path;
        Cycle path
    | None -> Ok 0
  end
  else
    let oa = g.ord.(i) and ob = g.ord.(j) in
    if oa < ob then begin
      (* The maintained order already proves no path b ~> a. *)
      record_edge g i j;
      Ok 0
    end
    else
      (* Every path b ~> a in an order-consistent graph runs through
         nodes ordered within [ob, oa], so the bounded searches are
         complete. *)
      match bounded_forward g ~src:j ~dst:i ~ub:oa with
      | Error path ->
          record_edge g i j;
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
          let l = by_ord delta_b @ by_ord delta_f in
          let pool =
            List.sort (fun (x : int) y -> compare x y)
              (List.map (fun x -> g.ord.(x)) l)
          in
          List.iter2 (fun x o -> g.ord.(x) <- o) l pool;
          let moved = List.length l in
          g.n_reorders <- g.n_reorders + moved;
          record_edge g i j;
          Ok moved

let add_edge g a b = ignore (add_edge_checked g a b)

(* Read-only joint cycle test over G u extra, for admission control:
   would inserting all of [extra] at once close a cycle?  Nothing is
   interned or recorded, so a veto leaves the graph untouched — the
   speculating caller can simply not perform the commit.  Endpoints
   unknown to the graph are fine (they have no recorded edges).  An
   extra edge (a, b) closes a cycle iff a path b ~> a exists in the
   joint graph; the witness follows the {!add_result} convention:
   the path [b ... a], so consecutive elements (wrapping) are edges. *)
let would_close_cycle g extra =
  let extra = List.filter (fun (a, b) -> not (mem_edge g a b)) extra in
  match List.find_opt (fun (a, b) -> Txn_id.equal a b) extra with
  | Some (a, _) -> Some [ a ]
  | None when extra = [] -> None
  | None ->
      let adj = Txn_id.Tbl.create 8 in
      List.iter
        (fun (a, b) ->
          let cur = Option.value ~default:[] (Txn_id.Tbl.find_opt adj a) in
          Txn_id.Tbl.replace adj a (b :: cur))
        extra;
      let succs t =
        Option.value ~default:[] (Txn_id.Tbl.find_opt adj t) @ successors g t
      in
      let check (a, b) =
        let parent = Txn_id.Tbl.create 16 in
        Txn_id.Tbl.replace parent b b;
        let stack = ref [ b ] in
        let found = ref false in
        while (not !found) && !stack <> [] do
          match !stack with
          | [] -> ()
          | u :: rest ->
              stack := rest;
              if Txn_id.equal u a then found := true
              else
                List.iter
                  (fun v ->
                    if not (Txn_id.Tbl.mem parent v) then begin
                      Txn_id.Tbl.replace parent v u;
                      stack := v :: !stack
                    end)
                  (succs u)
        done;
        if not !found then None
        else begin
          let rec walk acc u =
            if Txn_id.equal u b then u :: acc
            else walk (u :: acc) (Txn_id.Tbl.find parent u)
          in
          Some (walk [] a)
        end
      in
      List.find_map check extra

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
        Int_set.iter
          (fun j -> if !result = None then visit (j :: path) j)
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
      Int_set.iter (fun j -> indegree.(j) <- indegree.(j) + 1) g.succ.(i)
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
      if indegree.(i) = 0 then frontier := S.add (g.names.(i), i) !frontier
    done;
    let out = ref [] and count = ref 0 in
    while not (S.is_empty !frontier) do
      let ((name, i) as el) = S.min_elt !frontier in
      frontier := S.remove el !frontier;
      out := name :: !out;
      incr count;
      Int_set.iter
        (fun j ->
          let d = indegree.(j) - 1 in
          indegree.(j) <- d;
          if d = 0 then frontier := S.add (g.names.(j), j) !frontier)
        g.succ.(i)
    done;
    if !count = g.n then Some (List.rev !out) else None
  end
