open Nt_base
open Nt_sg
open Nt_obs

type veto = { node : Txn_id.t; cycle : Txn_id.t list; witness : string }

type upper = {
  gate : Txn_id.t -> Monitor.prospective -> (Txn_id.t list * string) option;
  hold : Txn_id.t -> bool;
}

type t = {
  monitor : Monitor.t;
  obs : Obs.t;
  gating : bool;
  upper : upper option;
  mutable vetoed : int;
  vetoes : veto Txn_id.Tbl.t;  (* keyed by the vetoed top *)
}

let create ?(obs = Obs.null) ?(gating = true) ?upper schema =
  {
    monitor = Monitor.create ?hold:(Option.map (fun u -> u.hold) upper) schema;
    obs;
    gating;
    upper;
    vetoed = 0;
    vetoes = Txn_id.Tbl.create 64;
  }

let monitor t = t.monitor
let gating t = t.gating
let vetoed t = t.vetoed

let alarms t =
  let c = Monitor.counters t.monitor in
  c.Monitor.cycle_alarms + c.Monitor.inappropriate_alarms

let cycle_alarms t = (Monitor.counters t.monitor).Monitor.cycle_alarms

let on_action t a = ignore (Monitor.feed ~obs:t.obs t.monitor a)

(* The one place a veto is recorded, whichever gate decided it. *)
let veto t u ~cycle ~witness =
  t.vetoed <- t.vetoed + 1;
  Txn_id.Tbl.replace t.vetoes u { node = u; cycle; witness };
  if Obs.enabled t.obs then
    Metrics.incr (Metrics.counter (Obs.metrics t.obs) "admission.vetoed");
  false

(* The local verdict first: a commit the local monitor already refuses
   never reaches the upper gate, so it only ever sees locally
   consistent candidates. *)
let gate t u =
  if not t.gating then true
  else
    let edges = Monitor.prospective_commit_edges t.monitor u in
    match Monitor.edges_would_cycle t.monitor edges with
    | Some (cycle, fresh) ->
        veto t u ~cycle
          ~witness:(Monitor.explain_cycle ~extra:fresh t.monitor cycle)
    | None -> (
        match Option.bind t.upper (fun up -> up.gate u edges) with
        | Some (cycle, witness) -> veto t u ~cycle ~witness
        | None -> true)

let veto_of t u = Txn_id.Tbl.find_opt t.vetoes u
