open Nt_base
open Nt_serial

type t = {
  txn : Txn_id.t;
  comb : Program.comb;
  mutable children : Program.t array;
  mutable summaries : Value.t option array;
  mutable n_children : int;  (* live prefix of the (growable) arrays *)
  mutable awaiting : int;  (* requested but not yet reported *)
  mutable next : int;  (* lowest unrequested child index *)
  mutable commit_requested : bool;
  no_commit : bool;
}

type output = Request_child of int * Program.t | Request_commit of Value.t

let make ?(no_commit = false) txn comb children =
  let children = Array.of_list children in
  let n = Array.length children in
  {
    txn;
    comb;
    children;
    summaries = Array.make n None;
    n_children = n;
    awaiting = 0;
    next = 0;
    commit_requested = false;
    no_commit;
  }

let txn t = t.txn

let append_child t prog =
  if t.commit_requested then
    invalid_arg "Txn_interp.append_child: commit already requested";
  if t.n_children = Array.length t.children then begin
    let cap = max 4 (2 * t.n_children) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 t.n_children;
      b
    in
    t.children <- grow t.children prog;
    t.summaries <- grow t.summaries None
  end;
  let i = t.n_children in
  t.children.(i) <- prog;
  t.summaries.(i) <- None;
  t.n_children <- i + 1;
  i

let enabled_outputs t =
  if t.commit_requested then []
  else
    let n = t.n_children in
    let child_requests =
      match t.comb with
      | Program.Seq ->
          if t.next < n && t.awaiting = 0 then
            [ Request_child (t.next, t.children.(t.next)) ]
          else []
      | Program.Par ->
          if t.next < n then [ Request_child (t.next, t.children.(t.next)) ]
          else []
    in
    if child_requests <> [] then child_requests
    else if t.next >= n && t.awaiting = 0 && not t.no_commit then
      let summaries =
        List.init t.n_children (fun i ->
            match t.summaries.(i) with Some v -> v | None -> assert false)
      in
      [ Request_commit (Value.List summaries) ]
    else []

let summary t i = if i < t.n_children then t.summaries.(i) else None

let note_child_requested t i =
  assert (i = t.next);
  t.awaiting <- t.awaiting + 1;
  t.next <- i + 1

let note_child_committed t i v =
  assert (t.summaries.(i) = None);
  t.summaries.(i) <- Some (Value.Pair (Value.Bool true, v));
  t.awaiting <- t.awaiting - 1

let note_child_aborted t i =
  assert (t.summaries.(i) = None);
  t.summaries.(i) <- Some (Value.Pair (Value.Bool false, Value.Unit));
  t.awaiting <- t.awaiting - 1

let note_commit_requested t = t.commit_requested <- true
