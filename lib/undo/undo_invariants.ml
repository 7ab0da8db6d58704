open Nt_base
open Nt_spec

let project (schema : Schema.t) x trace =
  Trace.filter
    (fun a ->
      match a with
      | Action.Create t | Action.Request_commit (t, _) -> (
          match System_type.object_of schema.Schema.sys t with
          | Some y -> Obj_id.equal x y
          | None -> false)
      | Action.Inform_commit (y, _) | Action.Inform_abort (y, _) ->
          Obj_id.equal x y
      | _ -> false)
    trace

let replay (schema : Schema.t) x trace =
  let dt = schema.Schema.dtype_of x in
  let n = Trace.length trace in
  let rec go s i =
    if i >= n then Ok s
    else
      match Trace.get trace i with
      | Action.Create t -> go (Undo_object.create s t) (i + 1)
      | Action.Inform_commit (_, t) ->
          go (Undo_object.inform_commit dt s t) (i + 1)
      | Action.Inform_abort (_, t) ->
          go (Undo_object.inform_abort dt s t) (i + 1)
      | Action.Request_commit (t, v) -> (
          match Undo_object.request_commit dt s t (schema.Schema.op_of t) with
          | Some (s', v') when Value.equal v v' -> go s' (i + 1)
          | Some _ ->
              Error
                (Format.asprintf "event %d: wrong return value for %a" i
                   Txn_id.pp t)
          | None ->
              Error
                (Format.asprintf "event %d: REQUEST_COMMIT(%a) not enabled" i
                   Txn_id.pp t))
      | a -> Error (Format.asprintf "event %d: foreign action %a" i Action.pp a)
  in
  go Undo_object.initial 0

let local_orphan x trace t =
  let ancs = Txn_id.ancestors t in
  Array.exists
    (fun a ->
      match a with
      | Action.Inform_abort (y, u) ->
          Obj_id.equal x y && List.exists (Txn_id.equal u) ancs
      | _ -> false)
    trace

let locally_visible_in x trace ~to_ t' =
  let informed u =
    Array.exists
      (fun a ->
        match a with
        | Action.Inform_commit (y, w) -> Obj_id.equal x y && Txn_id.equal w u
        | _ -> false)
      trace
  in
  List.for_all informed (Txn_id.ancestors_upto t' ~upto:to_)

(* Lemma 20: the log is operations(beta) minus entries with a later
   INFORM_ABORT of an ancestor — kept as base ⊕ suffix, so the suffix
   is that list's tail and the rest of the list replays to the base. *)
let lemma20_of (schema : Schema.t) x trace (s : Undo_object.state) =
  let dt = schema.Schema.dtype_of x in
  let n = Trace.length trace in
  let expected = ref [] in
  for i = 0 to n - 1 do
    match Trace.get trace i with
    | Action.Request_commit (t, v) ->
        let undone = ref false in
        for j = i + 1 to n - 1 do
          match Trace.get trace j with
          | Action.Inform_abort (y, u)
            when Obj_id.equal x y && Txn_id.is_ancestor u t ->
              undone := true
          | _ -> ()
        done;
        if not !undone then expected := (t, v) :: !expected
    | _ -> ()
  done;
  let expected = List.rev !expected in
  let folded = List.length expected - List.length s.log in
  let rest = List.filteri (fun i _ -> i < folded) expected
  and tail = List.filteri (fun i _ -> i >= folded) expected in
  folded >= 0
  && List.for_all2
       (fun (t, v) e ->
         Txn_id.equal t e.Undo_object.txn && Value.equal v e.Undo_object.value)
       tail s.log
  &&
  match
    Serial_spec.final_state dt
      (List.map (fun (t, v) -> (schema.Schema.op_of t, v)) rest)
  with
  | Some b -> Value.equal b (Option.value s.base ~default:dt.init)
  | None -> false

let lemma20 schema x trace =
  match replay schema x trace with
  | Error _ -> true
  | Ok s -> lemma20_of schema x trace s

let purge log victims =
  List.filter
    (fun e ->
      not
        (List.exists (fun t -> Txn_id.is_descendant e.Undo_object.txn t) victims))
    log

(* Lemma 21 over base ⊕ suffix: the folded prefix holds committed
   chains only, so a purge of uncommitted victims touches the suffix
   alone, which must then replay from the base. *)
let lemma21 (schema : Schema.t) x trace ~samples =
  match replay schema x trace with
  | Error _ -> true
  | Ok s ->
      let dt = schema.Schema.dtype_of x in
      List.for_all
        (fun victims ->
          (* The lemma requires the victim set disjoint from committed. *)
          let victims =
            List.filter
              (fun t -> not (Txn_id.Set.mem t s.committed))
              victims
          in
          let purged = purge s.log victims in
          Serial_spec.legal ?init:s.base dt
            (List.map (fun e -> (e.Undo_object.op, e.Undo_object.value)) purged))
        ([] :: samples)

let lemma22 (schema : Schema.t) x trace =
  let dt = schema.Schema.dtype_of x in
  let n = Trace.length trace in
  let responses = ref [] in
  for i = n - 1 downto 0 do
    match Trace.get trace i with
    | Action.Request_commit (t, v) -> responses := (i, t, v) :: !responses
    | _ -> ()
  done;
  List.for_all
    (fun (i, t, v) ->
      List.for_all
        (fun (j, t', v') ->
          if j <= i then true
          else if
            dt.Datatype.commutes (schema.Schema.op_of t, v)
              (schema.Schema.op_of t', v')
          then true
          else
            let before = Trace.prefix trace j in
            local_orphan x before t || locally_visible_in x before ~to_:t' t)
        !responses)
    !responses
