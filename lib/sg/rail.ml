open Nt_base

type child = { requested : int; reported : int (* max_int: open *) }

type t = {
  retiring : bool;
  children : child Txn_id.Tbl.t;  (* open; if retiring, all not retired *)
  mutable frontier : (Txn_id.t * int) list;  (* with report times *)
  mutable reported_any : bool;
  requests : Txn_id.t Queue.t;
      (* retiring: in request order, the front popped once it reports *)
  reports : (Txn_id.t * int) Queue.t;  (* retiring: not yet settled *)
  mutable settled : Txn_id.t list;  (* not yet retired, in report order *)
}

let create ~retiring =
  {
    retiring;
    children = Txn_id.Tbl.create 8;
    frontier = [];
    reported_any = false;
    requests = Queue.create ();
    reports = Queue.create ();
    settled = [];
  }

let request t v now =
  Txn_id.Tbl.replace t.children v { requested = now; reported = max_int };
  if t.retiring then Queue.push v t.requests;
  t.frontier

(* A member [s] reported before [u]'s request leaves: its edge to a
   later request [v] is implied by [s -> u -> v], both drawn under the
   one parent and so activated together (by induction on report order,
   whatever [u]'s own fate). *)
let report t u now =
  let req =
    match Txn_id.Tbl.find_opt t.children u with
    | Some c when c.reported = max_int -> c.requested
    | _ -> 0
  in
  if t.retiring then begin
    Txn_id.Tbl.replace t.children u { requested = req; reported = now };
    Queue.push (u, now) t.reports
  end
  else Txn_id.Tbl.remove t.children u;
  t.reported_any <- true;
  t.frontier <- (u, now) :: List.filter (fun (_, rep) -> rep > req) t.frontier

let reported_any t = t.reported_any

let times t u =
  Option.map
    (fun c -> (c.requested, c.reported))
    (Txn_id.Tbl.find_opt t.children u)

let rec watermark t =
  match Queue.peek_opt t.requests with
  | None -> max_int
  | Some v -> (
      match Txn_id.Tbl.find_opt t.children v with
      | Some c when c.reported = max_int -> c.requested
      | _ ->
          ignore (Queue.pop t.requests);
          watermark t)

let settled t u =
  match Txn_id.Tbl.find_opt t.children u with
  | None -> true
  | Some c -> c.reported < watermark t

(* Every child that can order before a settled [s] has reported and
   drawn its edges into it.  Its predecessors sit before it in the
   order, so once every reported child before it is settled they are
   all settled, and retire with it or before it: nothing left reaches
   it, and nothing ever will. *)
let retire ?(hold = fun _ -> false) t g =
  let watermark = watermark t in
  if not (Graph.is_acyclic g) then []
  else begin
    let rec drain acc =
      match Queue.peek_opt t.reports with
      | Some (s, at) when at < watermark && not (hold s) ->
          ignore (Queue.pop t.reports);
          drain (s :: acc)
      | _ -> List.rev acc
    in
    t.settled <- t.settled @ drain [];
    if t.settled = [] then []
    else begin
      let pos v = Option.value ~default:max_int (Graph.position g v) in
      let floor =
        Queue.fold (fun m (v, _) -> min m (pos v)) max_int t.reports
      in
      let go, stay = List.partition (fun s -> pos s < floor) t.settled in
      t.settled <- stay;
      List.iter
        (fun s ->
          Graph.remove_node g s;
          Txn_id.Tbl.remove t.children s)
        go;
      if go <> [] then
        t.frontier <-
          List.filter (fun (s, _) -> Txn_id.Tbl.mem t.children s) t.frontier;
      go
    end
  end

let census t =
  [
    ("frontier", List.length t.frontier);
    ( "requested",
      Txn_id.Tbl.fold
        (fun _ c n -> if c.reported = max_int then n + 1 else n)
        t.children 0 );
    ("reported", Queue.length t.reports);
    ("settled", List.length t.settled);
  ]
