open Nt_base
open Nt_spec

type entry = { holder : Txn_id.t; op : Datatype.op; value : Value.t }

type state = {
  created : Txn_id.Set.t;
  commit_requested : Txn_id.Set.t;
  base : Value.t option;
  log : entry list;
}

let initial =
  {
    created = Txn_id.Set.empty;
    commit_requested = Txn_id.Set.empty;
    base = None;
    log = [];
  }

let create s t = { s with created = Txn_id.Set.add t s.created }

(* Fold the prefix of entries held by [T0] into the base: [T0] is an
   ancestor of every access, so such an entry never conflicts, and no
   inform rewrites or discards it. *)
let fold_settled (dt : Datatype.t) s =
  match
    Serial_spec.fold_prefix ?init:s.base dt
      (fun e ->
        if Txn_id.is_root e.holder then Serial_spec.Fold (e.op, e.value)
        else Serial_spec.Stop)
      s.log
  with
  | Some (base, log) when log != s.log -> { s with base = Some base; log }
  | _ -> s

let inform_commit dt s t =
  if Txn_id.is_root t then s
  else
    let p = Txn_id.parent_exn t in
    fold_settled dt
      {
        s with
        log =
          List.map
            (fun e ->
              if Txn_id.equal e.holder t then { e with holder = p } else e)
            s.log;
      }

let inform_abort dt s t =
  fold_settled dt
    {
      s with
      log =
        List.filter (fun e -> not (Txn_id.is_descendant e.holder t)) s.log;
    }

let respondable s t =
  Txn_id.Set.mem t s.created && not (Txn_id.Set.mem t s.commit_requested)

let conflicting_entries (dt : Datatype.t) s t op v =
  List.filter
    (fun e ->
      (not (Txn_id.is_ancestor e.holder t))
      && not (dt.Datatype.commutes (op, v) (e.op, e.value)))
    s.log

let replay_response (dt : Datatype.t) s op =
  Serial_spec.response ?init:s.base dt
    (List.map (fun e -> (e.op, e.value)) s.log)
    op

let request_commit (dt : Datatype.t) s t op =
  if not (respondable s t) then None
  else
    match replay_response dt s op with
    | None -> None
    | Some v ->
        if conflicting_entries dt s t op v = [] then
          Some
            ( {
                s with
                commit_requested = Txn_id.Set.add t s.commit_requested;
                log = s.log @ [ { holder = t; op; value = v } ];
              },
              v )
        else None

(* The holders of conflicting entries, in name order, each once with
   the kind of one representative entry. *)
let blockers_kinded dt s t op =
  if not (respondable s t) then []
  else
    match replay_response dt s op with
    | None -> []
    | Some v ->
        List.fold_left
          (fun acc e ->
            if List.mem_assoc e.holder acc then acc
            else (e.holder, Nt_gobj.Gobj.lock_kind_of_op e.op) :: acc)
          []
          (conflicting_entries dt s t op v)
        |> List.sort (fun (a, _) (b, _) -> Txn_id.compare a b)

let factory : Nt_gobj.Gobj.factory =
 fun schema x ->
  let dt = schema.Schema.dtype_of x in
  let state = ref initial in
  {
    Nt_gobj.Gobj.obj = x;
    create = (fun t -> state := create !state t);
    inform_commit = (fun t -> state := inform_commit dt !state t);
    inform_abort = (fun t -> state := inform_abort dt !state t);
    try_respond =
      (fun t ->
        match request_commit dt !state t (schema.Schema.op_of t) with
        | Some (s', v) ->
            state := s';
            Some v
        | None -> None);
    waiting_on = (fun t -> blockers_kinded dt !state t (schema.Schema.op_of t));
  }
