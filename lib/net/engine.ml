open Nt_base
open Nt_spec
open Nt_serial
open Nt_generic
open Nt_obs

type state =
  | Unknown
  | Pending
  | Running
  | Committed of Value.t
  | Aborted of Admission.veto option

type stage_times = {
  st_submit : float;
  mutable st_start : float;
  mutable st_gate : float;
  mutable st_gates : int;
  mutable st_complete : float;
}

type t = {
  objects : (Obj_id.t * Datatype.t) list;
  schema : Schema.t;
  progs : Program.t array ref;
  n_progs : int ref;
  rt : Runtime.t;
  adm : Admission.t;
  doomed : unit Txn_id.Tbl.t;
  committed_top : int ref;
  aborted_top : int ref;
  mutable submitted : int;
  mutable step_calls : int;
  mutable truncated : bool;
  clock : (unit -> float) option;
  times : stage_times Txn_id.Tbl.t;
}

let subprogram progs n_progs txn =
  let rec walk prog = function
    | [] -> Some prog
    | i :: rest -> (
        match prog with
        | Program.Node (_, children) -> (
            match List.nth_opt children i with
            | Some p -> walk p rest
            | None -> None)
        | Program.Access _ -> None)
  in
  match Txn_id.path txn with
  | [] -> None
  | i :: rest -> if i < !n_progs then walk !progs.(i) rest else None

let create ?policy ?inform_policy ?abort_prob ?max_steps ?(obs = Obs.null)
    ?(admission = true)
    ?(on_top_complete = fun _ _ -> ()) ?(on_action = fun _ -> ())
    ?(extra_gate = fun _ _ -> None) ?clock ~seed objects factory =
  let dtypes = Obj_id.Tbl.create 16 in
  List.iter (fun (x, dt) -> Obj_id.Tbl.replace dtypes x dt) objects;
  let progs = ref [||] and n_progs = ref 0 in
  let sub = subprogram progs n_progs in
  let classify txn =
    match sub txn with
    | Some (Program.Access (x, _)) -> System_type.Access x
    | _ -> System_type.Inner
  in
  let dtype_of x =
    match Obj_id.Tbl.find_opt dtypes x with
    | Some dt -> dt
    | None -> invalid_arg ("Engine: undeclared object " ^ Obj_id.name x)
  in
  let op_of txn =
    match sub txn with
    | Some (Program.Access (_, op)) -> op
    | _ -> invalid_arg ("Engine: " ^ Txn_id.to_string txn ^ " is not an access")
  in
  let schema =
    {
      Schema.sys = System_type.make classify;
      objects = List.map fst objects;
      dtype_of;
      op_of;
    }
  in
  let adm = Admission.create ~obs ~gating:admission schema in
  let committed_top = ref 0 and aborted_top = ref 0 in
  let times = Txn_id.Tbl.create 64 in
  (* Stage bookkeeping is entirely clock-gated: with no [clock] the
     engine does exactly what it did before (one [match] per action). *)
  let stamp u f =
    match clock with
    | None -> ()
    | Some c -> (
        match Txn_id.Tbl.find_opt times u with
        | Some st -> f st (c ())
        | None -> ())
  in
  let caller_tap = on_action in
  let on_action a =
    caller_tap a;
    (match a with
    | Action.Create u when Txn_id.depth u = 1 ->
        stamp u (fun st now -> st.st_start <- now)
    | Action.Commit u when Txn_id.depth u = 1 ->
        stamp u (fun st now -> st.st_complete <- now);
        incr committed_top;
        on_top_complete u `Committed;
        Txn_id.Tbl.remove times u
    | Action.Abort u when Txn_id.depth u = 1 ->
        stamp u (fun st now -> st.st_complete <- now);
        incr aborted_top;
        on_top_complete u `Aborted;
        Txn_id.Tbl.remove times u
    | _ -> ());
    Admission.on_action adm a
  in
  (* The local verdict first: a commit the local monitor already
     refuses never reaches [extra_gate], so the cross-shard spine only
     ever sees locally-consistent candidates. *)
  let gate = Admission.gate adm ~extra:extra_gate in
  let commit_gate =
    match clock with
    | None -> gate
    | Some c ->
        (* Attribute gate time to the top-level ancestor: inner commits
           consult the gate too, and the request is the unit of
           reporting. *)
        fun u ->
          let t0 = c () in
          let r = gate u in
          let dt = c () -. t0 in
          (match Txn_id.path u with
          | i :: _ -> (
              match
                Txn_id.Tbl.find_opt times (Txn_id.child Txn_id.root i)
              with
              | Some st ->
                  st.st_gate <- st.st_gate +. dt;
                  st.st_gates <- st.st_gates + 1
              | None -> ())
          | [] -> ());
          r
  in
  let rt =
    Runtime.make ?policy ?inform_policy ?abort_prob ?max_steps ~obs ~on_action
      ~commit_gate ~seed schema factory []
  in
  {
    objects;
    schema;
    progs;
    n_progs;
    rt;
    adm;
    doomed = Txn_id.Tbl.create 16;
    committed_top;
    aborted_top;
    submitted = 0;
    step_calls = 0;
    truncated = false;
    clock;
    times;
  }

let max_program = 10_000

let validate objects prog =
  if Program.size prog > max_program then
    Error
      (Printf.sprintf "program too large (%d names; limit %d)"
         (Program.size prog) max_program)
  else
    let rec check = function
      | Program.Access (x, op) -> (
          match
            List.find_opt (fun (x', _) -> Obj_id.equal x x') objects
          with
          | None -> Error ("undeclared object " ^ Obj_id.name x)
          | Some (_, dt) -> (
              match dt.Datatype.apply dt.Datatype.init op with
              | _ -> Ok ()
              | exception Datatype.Unsupported _ ->
                  Error
                    (Printf.sprintf "operation %s not offered by %s (%s)"
                       (Datatype.op_to_string op) (Obj_id.name x)
                       dt.Datatype.dt_name)))
      | Program.Node (_, children) ->
          List.fold_left
            (fun acc c -> Result.bind acc (fun () -> check c))
            (Ok ()) children
    in
    check prog

let submit t prog =
  match validate t.objects prog with
  | Error _ as e -> e
  | Ok () ->
      let i = !(t.n_progs) in
      if i = Array.length !(t.progs) then begin
        let cap = max 4 (2 * i) in
        let grown = Array.make cap prog in
        Array.blit !(t.progs) 0 grown 0 i;
        t.progs := grown
      end;
      !(t.progs).(i) <- prog;
      t.n_progs := i + 1;
      let txn = Runtime.add_top t.rt prog in
      assert (Txn_id.last_index txn = Some i);
      t.submitted <- t.submitted + 1;
      (match t.clock with
      | Some c ->
          let now = c () in
          Txn_id.Tbl.replace t.times txn
            {
              st_submit = now;
              st_start = now;
              st_gate = 0.;
              st_gates = 0;
              st_complete = 0.;
            }
      | None -> ());
      Ok txn

let sweep_doomed t =
  if Txn_id.Tbl.length t.doomed > 0 then begin
    let pending = Txn_id.Tbl.fold (fun u () acc -> u :: acc) t.doomed [] in
    List.iter
      (fun u ->
        if Runtime.abort_txn t.rt u then
          Txn_id.Tbl.remove t.doomed u
        else
          match Runtime.top_state t.rt u with
          | `Committed _ | `Aborted -> Txn_id.Tbl.remove t.doomed u
          | `Unknown | `Running -> ())
      pending
  end

let step t =
  t.step_calls <- t.step_calls + 1;
  let r = Runtime.step t.rt in
  (match r with `Truncated -> t.truncated <- true | `Progress | `Quiescent -> ());
  sweep_doomed t;
  r

let drain ?(burst = max_int) t =
  let rec go budget =
    if budget <= 0 then `Progress
    else
      match step t with
      | `Progress -> go (budget - 1)
      | (`Quiescent | `Truncated) as r -> r
  in
  go burst

let known_top t txn =
  Txn_id.depth txn = 1
  && match Txn_id.last_index txn with
     | Some i -> i < !(t.n_progs)
     | None -> false

let kill t txn =
  if not (known_top t txn) then `Unknown
  else if Runtime.abort_txn t.rt txn then begin
    sweep_doomed t;
    `Aborted
  end
  else
    match Runtime.top_state t.rt txn with
    | `Committed _ | `Aborted -> `Already_complete
    | `Unknown | `Running ->
        (* Submitted but not yet abortable (REQUEST_CREATE pending, or a
           commit already requested and in flight); doom it so the sweep
           after each step retires it at the first legal moment. *)
        Txn_id.Tbl.replace t.doomed txn ();
        `Doomed

let state t txn =
  if not (known_top t txn) then Unknown
  else
    match Runtime.top_state t.rt txn with
    | `Unknown -> Pending
    | `Running -> Running
    | `Committed v -> Committed v
    | `Aborted -> Aborted (Admission.veto_of t.adm txn)

let finish t = Runtime.finish t.rt

let forest t = List.init !(t.n_progs) (fun i -> !(t.progs).(i))
let schema t = t.schema
let objects t = t.objects
let admission t = t.adm
let submitted t = t.submitted
let committed_top t = !(t.committed_top)
let aborted_top t = !(t.aborted_top)
let live_top t = t.submitted - !(t.committed_top) - !(t.aborted_top)
let vetoed t = Admission.vetoed t.adm
let alarms t = Admission.alarms t.adm
let cycle_alarms t = Admission.cycle_alarms t.adm
let truncated t = t.truncated
let doomed_count t = Txn_id.Tbl.length t.doomed
let actions_so_far t = Runtime.actions_so_far t.rt
let steps_so_far t = Runtime.steps_so_far t.rt
let step_calls t = t.step_calls
let orphan_aborts t = Runtime.orphan_aborts t.rt
let stage_times t txn = Txn_id.Tbl.find_opt t.times txn

(* ----- recovery ----- *)

type replay_event =
  [ `Submit of Program.t | `Kill of Txn_id.t | `Steps of int ]

let replay t events =
  let rec go n = function
    | [] -> Ok n
    | ev :: rest -> (
        match ev with
        | `Submit prog -> (
            match submit t prog with
            | Ok _ -> go (n + 1) rest
            | Error e ->
                Error
                  (Printf.sprintf
                     "Engine.recover: logged submission %d rejected: %s"
                     (t.submitted + 1) e))
        | `Kill txn ->
            ignore (kill t txn);
            go (n + 1) rest
        | `Steps k ->
            for _ = 1 to k do
              ignore (step t)
            done;
            go (n + 1) rest)
  in
  go 0 events

let recover t events =
  (* The engine's evolution is a pure function of the seed and the
     submit/kill/step call sequence ([Runtime.step] draws from a seeded
     RNG and nothing else), so replaying the logged sequence into a
     fresh engine reproduces the pre-crash run exactly — including
     every admission verdict and commit-gate outcome.  Replay only
     makes sense from a pristine engine: any prior call has already
     advanced the RNG stream. *)
  if t.submitted > 0 || t.step_calls > 0 then
    Error "Engine.recover: engine is not fresh"
  else replay t events
