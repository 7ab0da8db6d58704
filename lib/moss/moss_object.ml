open Nt_base
open Nt_spec

type state = {
  created : Txn_id.Set.t;
  commit_requested : Txn_id.Set.t;
  write_lockholders : Value.t Txn_id.Map.t;
  read_lockholders : Txn_id.Set.t;
}

let initial init_value =
  {
    created = Txn_id.Set.empty;
    commit_requested = Txn_id.Set.empty;
    write_lockholders = Txn_id.Map.singleton Txn_id.root init_value;
    read_lockholders = Txn_id.Set.empty;
  }

let create s t = { s with created = Txn_id.Set.add t s.created }

let inform_commit s t =
  if Txn_id.is_root t then s
  else
    let p = Txn_id.parent_exn t in
    let s =
      match Txn_id.Map.find_opt t s.write_lockholders with
      | Some v ->
          {
            s with
            write_lockholders =
              Txn_id.Map.add p v (Txn_id.Map.remove t s.write_lockholders);
          }
      | None -> s
    in
    if Txn_id.Set.mem t s.read_lockholders then
      {
        s with
        read_lockholders =
          Txn_id.Set.add p (Txn_id.Set.remove t s.read_lockholders);
      }
    else s

let inform_abort s t =
  {
    s with
    write_lockholders =
      Txn_id.Map.filter
        (fun u _ -> not (Txn_id.is_descendant u t))
        s.write_lockholders;
    read_lockholders =
      Txn_id.Set.filter
        (fun u -> not (Txn_id.is_descendant u t))
        s.read_lockholders;
  }

let least_write_lockholder s =
  match
    Txn_id.Map.fold
      (fun t v acc ->
        match acc with
        | Some (t', _) when Txn_id.depth t' >= Txn_id.depth t -> acc
        | _ -> Some (t, v))
      s.write_lockholders None
  with
  | Some (t, _) -> t
  | None -> invalid_arg "Moss_object.least_write_lockholder: no holders"

let respondable s t =
  Txn_id.Set.mem t s.created && not (Txn_id.Set.mem t s.commit_requested)

let write_locks_ancestral s t =
  Txn_id.Map.for_all (fun u _ -> Txn_id.is_ancestor u t) s.write_lockholders

let read_locks_ancestral s t =
  Txn_id.Set.for_all (fun u -> Txn_id.is_ancestor u t) s.read_lockholders

let request_commit s t kind =
  if not (respondable s t) then None
  else
    match kind with
    | `Read ->
        if write_locks_ancestral s t then begin
          let least = least_write_lockholder s in
          let v = Txn_id.Map.find least s.write_lockholders in
          Some
            ( {
                s with
                commit_requested = Txn_id.Set.add t s.commit_requested;
                read_lockholders = Txn_id.Set.add t s.read_lockholders;
              },
              v )
        end
        else None
    | `Write data ->
        if write_locks_ancestral s t && read_locks_ancestral s t then
          Some
            ( {
                s with
                commit_requested = Txn_id.Set.add t s.commit_requested;
                write_lockholders = Txn_id.Map.add t data s.write_lockholders;
              },
              Value.Ok )
        else None

(* The non-ancestral holders of conflicting locks, each tagged with the
   kind of lock it holds — the shape [Gobj.waiting_on] (and the
   lock-wait telemetry) wants. *)
let blockers_kinded s t kind =
  let writes =
    Txn_id.Map.fold
      (fun u _ acc ->
        if Txn_id.is_ancestor u t then acc else (u, Nt_gobj.Gobj.Write) :: acc)
      s.write_lockholders []
  in
  match kind with
  | `Read -> writes
  | `Write _ ->
      Txn_id.Set.fold
        (fun u acc ->
          if Txn_id.is_ancestor u t then acc else (u, Nt_gobj.Gobj.Read) :: acc)
        s.read_lockholders writes

let lock_chain_ok s =
  Txn_id.Map.for_all
    (fun t _ ->
      Txn_id.Map.for_all (fun t' _ -> Txn_id.related t t') s.write_lockholders
      && Txn_id.Set.for_all (fun t' -> Txn_id.related t t') s.read_lockholders)
    s.write_lockholders

let kind_of_op = function
  | Datatype.Read -> `Read
  | Datatype.Write v -> `Write v
  | op -> raise (Datatype.Unsupported op)

let factory : Nt_gobj.Gobj.factory =
 fun schema x ->
  let dt = schema.Schema.dtype_of x in
  let state = ref (initial dt.Datatype.init) in
  {
    Nt_gobj.Gobj.obj = x;
    create = (fun t -> state := create !state t);
    inform_commit = (fun t -> state := inform_commit !state t);
    inform_abort = (fun t -> state := inform_abort !state t);
    try_respond =
      (fun t ->
        match request_commit !state t (kind_of_op (schema.Schema.op_of t)) with
        | Some (s', v) ->
            state := s';
            Some v
        | None -> None);
    waiting_on =
      (fun t -> blockers_kinded !state t (kind_of_op (schema.Schema.op_of t)));
  }
