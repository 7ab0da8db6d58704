open Nt_base
open Nt_sg
open Nt_net

type outcome =
  | Done_committed of Value.t
  | Done_aborted of Admission.veto option

type stats = Engine.stats = {
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

type t = {
  shard : int;
  spine : Spine.t;
  mutable eng : Engine.t option;  (* set once, at the end of [create] *)
  prefixes : (int, int list) Hashtbl.t;  (* local top index -> merged prefix *)
  by_prefix : (int list, Txn_id.t) Hashtbl.t;
  mutable buf : (int * Action.t) list;  (* merged actions, newest first *)
  on_report : g:int -> piece:int option -> outcome -> unit;
  mutable stats_cell : stats;
}

let the_engine t =
  match t.eng with Some e -> e | None -> assert false

let prefix_of t u =
  match Txn_id.path u with
  | j :: _ -> Hashtbl.find_opt t.prefixes j
  | [] -> None

let remap_txn t u =
  match Txn_id.path u with
  | [] -> u
  | j :: rest -> (
      match Hashtbl.find_opt t.prefixes j with
      | Some pre -> Txn_id.of_path (pre @ rest)
      | None -> u)

let remap_action t a =
  let f = remap_txn t in
  match a with
  | Action.Request_create u -> Action.Request_create (f u)
  | Action.Create u -> Action.Create (f u)
  | Action.Request_commit (u, v) -> Action.Request_commit (f u, v)
  | Action.Commit u -> Action.Commit (f u)
  | Action.Abort u -> Action.Abort (f u)
  | Action.Report_commit (u, v) -> Action.Report_commit (f u, v)
  | Action.Report_abort u -> Action.Report_abort (f u)
  | Action.Inform_commit (x, u) -> Action.Inform_commit (x, f u)
  | Action.Inform_abort (x, u) -> Action.Inform_abort (x, f u)

let local_done t u out =
  match prefix_of t u with
  | Some [ g ] -> t.on_report ~g ~piece:None out
  | Some [ g; k ] -> t.on_report ~g ~piece:(Some k) out
  | _ -> ()

let tap t a =
  match a with
  | Action.Request_create u when Txn_id.depth u = 1 && prefix_of t u <> None ->
      (* The router already synthesized this request at dispatch, in
         merged name order; the local scheduler reaches it at its own
         pace, which across shards would scramble the sibling order the
         merged trace's affects relation must respect. *)
      ()
  | _ -> (
      (* A whole program's report is a rail note; a piece's is not (its
         merged node reports when the router synthesizes its commit). *)
      let seq =
        match a with
        | (Action.Report_commit (u, _) | Action.Report_abort u)
          when Txn_id.depth u = 1 -> (
            match prefix_of t u with
            | Some [ g ] -> Spine.note_complete t.spine g
            | _ -> Spine.stamp t.spine)
        | _ -> Spine.stamp t.spine
      in
      t.buf <- (seq, remap_action t a) :: t.buf;
      match a with
      | Action.Report_commit (u, v) when Txn_id.depth u = 1 ->
          local_done t u (Done_committed v)
      | Action.Report_abort u when Txn_id.depth u = 1 ->
          let veto = Admission.veto_of (Engine.admission (the_engine t)) u in
          local_done t u (Done_aborted veto)
      | _ -> ())

(* The merged top-level endpoint of a local depth-1 transaction. *)
let merged_g t u =
  match prefix_of t u with Some (g :: _) -> Some g | _ -> None

let witness_string t prov =
  let r (e : Monitor.endpoint) =
    { e with Monitor.who = remap_txn t e.Monitor.who }
  in
  Format.asprintf "shard %d: %a" t.shard Monitor.pp_provenance
    { prov with Monitor.before = r prov.Monitor.before;
                after = r prov.Monitor.after }

(* The second gate: [edges] is the prospective set the local gate
   already computed for [u]'s commit.  Every edge between two merged
   tops is shipped, whether the local graph holds it or not: a held one
   may be a precedes edge from a piece that reported before the other
   top started here.  The spine drops the ones its rail orders. *)
let extra_gate t u edges =
  let tops =
    List.filter_map
      (fun (a, b, prov) ->
        if Txn_id.depth a = 1 && Txn_id.depth b = 1 then
          match (merged_g t a, merged_g t b) with
          | Some ga, Some gb when ga <> gb ->
              Some (ga, gb, lazy (witness_string t prov))
          | _ -> None
        else None)
      edges
  in
  match (tops, merged_g t u) with
  | [], _ | _, None -> None
  | tops, Some g -> (
      match Spine.gate t.spine ~top:g ~edges:tops with
      | Spine.Admitted -> None
      | Spine.Vetoed { cycle; witness } -> Some (cycle, witness))

(* Until the spine has settled a top's merged top (a piece waits for
   its whole program), a local commit may still draw an edge at it that
   the rail does not order, and only the local monitor can. *)
let hold t u =
  match merged_g t u with
  | Some g -> not (Spine.settled t.spine g)
  | None -> true

(* Bare mode: the engine's own completion hook reports each top at its
   [Commit]/[Abort], with the outcome the engine already holds; every
   top is a whole program there. *)
let top_done t u =
  match (prefix_of t u, Engine.state (the_engine t) u) with
  | Some [ g ], Engine.Committed v ->
      t.on_report ~g ~piece:None (Done_committed v)
  | Some [ g ], Engine.Aborted veto ->
      t.on_report ~g ~piece:None (Done_aborted veto)
  | _ -> ()

let create ?policy ?inform_policy ?abort_prob ?max_steps ?obs
    ?(gating = true) ?clock ?(on_top_complete = fun _ _ -> ()) ~merged
    ~spine ~on_report ~partition ~shard ~seed factory =
  let t =
    {
      shard;
      spine;
      eng = None;
      prefixes = Hashtbl.create 64;
      by_prefix = Hashtbl.create 64;
      buf = [];
      on_report;
      stats_cell = Engine.sum_stats [];
    }
  in
  let create =
    Engine.create ?policy ?inform_policy ?abort_prob ?max_steps ?obs
      ~admission:gating ~seed
  in
  let objects = Partition.objects_of partition shard in
  let eng =
    if merged then
      create ~on_action:(tap t)
        ~upper:{ Admission.gate = extra_gate t; hold = hold t }
        objects factory
    else
      create ?clock
        ~on_top_complete:(fun u oc ->
          top_done t u;
          on_top_complete u oc)
        objects factory
  in
  t.eng <- Some eng;
  t

let submit t ~prefix prog =
  let eng = the_engine t in
  match Engine.submit eng prog with
  | Error _ as e -> e
  | Ok txn ->
      (match Txn_id.last_index txn with
      | Some j ->
          Hashtbl.replace t.prefixes j prefix;
          Hashtbl.replace t.by_prefix prefix txn
      | None -> assert false);
      Ok txn

let kill_prefix t prefix =
  match Hashtbl.find_opt t.by_prefix prefix with
  | Some txn -> (
      match Engine.kill (the_engine t) txn with
      | `Aborted | `Doomed -> true
      | `Already_complete | `Unknown -> false)
  | None -> false

let step t = Engine.step (the_engine t)
let drain ?burst t = Engine.drain ?burst (the_engine t)
let finish t = Engine.finish (the_engine t)
let buffer t = t.buf
let engine t = the_engine t

let snapshot t = Engine.stats (the_engine t)
let publish t = t.stats_cell <- snapshot t
let published t = t.stats_cell
