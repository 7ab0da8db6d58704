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
  mutable step_calls : int;
  mutable truncated : bool;
  clock : (unit -> float) option;
  times : stage_times Txn_id.Tbl.t;
}

let create ?policy ?inform_policy ?abort_prob ?max_steps ?(obs = Obs.null)
    ?(admission = true)
    ?(on_top_complete = fun _ _ -> ()) ?(on_action = fun _ -> ())
    ?extra_gate ?clock ~seed objects factory =
  let progs = ref [||] and n_progs = ref 0 in
  let schema =
    Program.schema_of_tops ~objects (fun i ->
        if i < !n_progs then Some !progs.(i) else None)
  in
  let adm =
    Admission.create ~obs ~gating:admission
      ~keep_history:(Option.is_some extra_gate) schema
  in
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
    | (Action.Commit u | Action.Abort u) when Txn_id.depth u = 1 ->
        stamp u (fun st now -> st.st_complete <- now);
        on_top_complete u
          (match a with Action.Commit _ -> `Committed | _ -> `Aborted);
        Txn_id.Tbl.remove times u
    | _ -> ());
    Admission.on_action adm a
  in
  (* The local verdict first: a commit the local monitor already
     refuses never reaches [extra_gate], so the cross-shard spine only
     ever sees locally-consistent candidates. *)
  let gate =
    Admission.gate adm
      ~extra:(Option.value extra_gate ~default:(fun _ _ -> None))
  in
  let commit_gate =
    match clock with
    | None -> gate
    | Some c ->
        (* Only top-level commits consult the gate. *)
        fun u ->
          let t0 = c () in
          let r = gate u in
          let dt = c () -. t0 in
          (match Txn_id.Tbl.find_opt times u with
          | Some st ->
              st.st_gate <- st.st_gate +. dt;
              st.st_gates <- st.st_gates + 1
          | None -> ());
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
        (* Submitted but its REQUEST_CREATE has not fired yet (once it
           has, the controller may abort it until it completes); doom it
           so the sweep after each step retires it at the first legal
           moment. *)
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
let submitted t = !(t.n_progs)
let committed_top t = Runtime.committed_top t.rt
let aborted_top t = Runtime.aborted_top t.rt
let live_top t = submitted t - committed_top t - aborted_top t
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

type stats = {
  sh_submitted : int;
  sh_committed : int;
  sh_aborted : int;
  sh_vetoed : int;
  sh_live : int;
  sh_actions : int;
  sh_steps : int;
  sh_orphans : int;
  sh_doomed : int;
  sh_alarms : int;
  sh_cycle_alarms : int;
  sh_sg_nodes : int;
  sh_sg_edges : int;
  sh_sg_reorders : int;
}

let stats t =
  let g = Nt_sg.Monitor.graph (Admission.monitor t.adm) in
  {
    sh_submitted = submitted t;
    sh_committed = committed_top t;
    sh_aborted = aborted_top t;
    sh_vetoed = vetoed t;
    sh_live = live_top t;
    sh_actions = actions_so_far t;
    sh_steps = steps_so_far t;
    sh_orphans = orphan_aborts t;
    sh_doomed = doomed_count t;
    sh_alarms = alarms t;
    sh_cycle_alarms = cycle_alarms t;
    sh_sg_nodes = Nt_sg.Graph.n_nodes g;
    sh_sg_edges = Nt_sg.Graph.n_edges g;
    sh_sg_reorders = Nt_sg.Graph.reorders g;
  }

let sum_stats =
  List.fold_left
    (fun a b ->
      {
        sh_submitted = a.sh_submitted + b.sh_submitted;
        sh_committed = a.sh_committed + b.sh_committed;
        sh_aborted = a.sh_aborted + b.sh_aborted;
        sh_vetoed = a.sh_vetoed + b.sh_vetoed;
        sh_live = a.sh_live + b.sh_live;
        sh_actions = a.sh_actions + b.sh_actions;
        sh_steps = a.sh_steps + b.sh_steps;
        sh_orphans = a.sh_orphans + b.sh_orphans;
        sh_doomed = a.sh_doomed + b.sh_doomed;
        sh_alarms = a.sh_alarms + b.sh_alarms;
        sh_cycle_alarms = a.sh_cycle_alarms + b.sh_cycle_alarms;
        sh_sg_nodes = a.sh_sg_nodes + b.sh_sg_nodes;
        sh_sg_edges = a.sh_sg_edges + b.sh_sg_edges;
        sh_sg_reorders = a.sh_sg_reorders + b.sh_sg_reorders;
      })
    {
      sh_submitted = 0;
      sh_committed = 0;
      sh_aborted = 0;
      sh_vetoed = 0;
      sh_live = 0;
      sh_actions = 0;
      sh_steps = 0;
      sh_orphans = 0;
      sh_doomed = 0;
      sh_alarms = 0;
      sh_cycle_alarms = 0;
      sh_sg_nodes = 0;
      sh_sg_edges = 0;
      sh_sg_reorders = 0;
    }
