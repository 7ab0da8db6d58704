open Nt_base
open Nt_spec

type entry = { txn : Txn_id.t; op : Datatype.op; value : Value.t }

type state = {
  created : Txn_id.Set.t;
  commit_requested : Txn_id.Set.t;
  committed : Txn_id.Set.t;
  base : Value.t option;
  log : entry list;
}

let initial =
  {
    created = Txn_id.Set.empty;
    commit_requested = Txn_id.Set.empty;
    committed = Txn_id.Set.empty;
    base = None;
    log = [];
  }

let create s t = { s with created = Txn_id.Set.add t s.created }

(* Every non-root ancestor of [u], [u] included, is known committed. *)
let rec settled s u =
  Txn_id.is_root u
  || (Txn_id.Set.mem u s.committed && settled s (Txn_id.parent_exn u))

(* Fold the longest settled prefix of the log into the base.  A
   settled entry is locally visible to every later access (the
   ancestors [locally_visible] asks about are among the committed
   ones), so it never blocks; and no abort reaches it (an aborted name
   is never committed, so it is no ancestor of the entry).  Only its
   effect on the state is left. *)
let fold_settled (dt : Datatype.t) s =
  match
    Serial_spec.fold_prefix ?init:s.base dt
      (fun e ->
        if settled s e.txn then Serial_spec.Fold (e.op, e.value)
        else Serial_spec.Stop)
      s.log
  with
  | Some (base, log) when log != s.log -> { s with base = Some base; log }
  | _ -> s

let inform_commit dt s t =
  fold_settled dt { s with committed = Txn_id.Set.add t s.committed }

let inform_abort dt s t =
  fold_settled dt
    {
      s with
      log = List.filter (fun e -> not (Txn_id.is_descendant e.txn t)) s.log;
    }

let locally_visible s ~to_ t' =
  List.for_all
    (fun u -> Txn_id.Set.mem u s.committed)
    (Txn_id.ancestors_upto t' ~upto:to_)

let respondable s t =
  Txn_id.Set.mem t s.created && not (Txn_id.Set.mem t s.commit_requested)

let non_commuting_entries (dt : Datatype.t) s t op v =
  List.filter
    (fun e ->
      (not (locally_visible s ~to_:t e.txn))
      && not (dt.Datatype.commutes (op, v) (e.op, e.value)))
    s.log

(* The log always replays from the base (invariant from construction),
   so the response is the replay value. *)
let replay_response dt s op =
  Serial_spec.response ?init:s.base dt
    (List.map (fun e -> (e.op, e.value)) s.log)
    op

let request_commit (dt : Datatype.t) s t op =
  if not (respondable s t) then None
  else
    (* Check the commutativity precondition against operations not
       locally visible to [t]; the folded ones all are. *)
    match replay_response dt s op with
    | None -> None
    | Some v ->
        if non_commuting_entries dt s t op v = [] then
          Some
            ( {
                s with
                commit_requested = Txn_id.Set.add t s.commit_requested;
                log = s.log @ [ { txn = t; op; value = v } ];
              },
              v )
        else None

(* The logged transactions whose non-commuting entries block the
   access, each tagged with the kind of its entry. *)
let blockers_kinded dt s t op =
  if not (respondable s t) then []
  else
    match replay_response dt s op with
    | None -> []
    | Some v ->
        List.map
          (fun e -> (e.txn, Nt_gobj.Gobj.lock_kind_of_op e.op))
          (non_commuting_entries dt s t op v)

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
