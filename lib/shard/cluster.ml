open Nt_serial
open Nt_generic

type t = {
  part : Partition.t;
  spine : Spine.t;
  rt : Router.t;
  engines : Shard_engine.t array;
  merged : bool;
}

let create ?policy ?inform_policy ?abort_prob ?max_steps ?obs_for ?gating
    ?clock ?on_top_complete ~shards ~seed objects factory =
  (* The one place the shard count picks the machinery: one shard
     holds no cross-shard cycle and its trace is already the merged
     history, so it runs bare (see [Shard_engine]). *)
  let merged = shards > 1 in
  let part = Partition.create ~shards objects in
  let spine = Spine.create () in
  let rt = Router.create ~merged part spine in
  let engines =
    Array.init shards (fun s ->
        Shard_engine.create ?policy ?inform_policy ?abort_prob ?max_steps
          ?obs:(Option.map (fun f -> f s) obs_for)
          ?gating ?clock ?on_top_complete ~merged ~spine ~partition:part
          ~shard:s
          ~seed:(seed + (s * 1000003))
          factory)
  in
  Array.iter
    (fun e -> Shard_engine.set_on_report e (Router.note_report rt))
    engines;
  { part; spine; rt; engines; merged }

let dispatch t ~g { Router.d_shard; d_prefix; d_prog } =
  match Shard_engine.submit t.engines.(d_shard) ~prefix:d_prefix d_prog with
  | Ok _ -> ()
  | Error _ ->
      Router.note_dispatch_failed t.rt ~g
        ~piece:(match d_prefix with [ _; k ] -> Some k | _ -> None)

let submit t prog =
  match Router.plan t.rt prog with
  | Error _ as e -> e
  | Ok { Router.p_g; p_dispatches; _ } ->
      List.iter (dispatch t ~g:p_g) p_dispatches;
      Ok p_g

let kill t g =
  List.fold_left
    (fun orphaned (s, prefix) ->
      Shard_engine.kill_prefix t.engines.(s) prefix || orphaned)
    false
    (Router.kill_prefixes t.rt g)

let step_shard t s = Shard_engine.step t.engines.(s)

let quiescent t =
  Array.for_all
    (fun e -> Nt_net.Engine.live_top (Shard_engine.engine e) = 0)
    t.engines

let drain ?burst t =
  Array.fold_left
    (fun acc e ->
      match (acc, Shard_engine.drain ?burst e) with
      | `Truncated, _ | _, `Truncated -> `Truncated
      | `Progress, _ | _, `Progress -> `Progress
      | `Quiescent, `Quiescent -> `Quiescent)
    `Quiescent t.engines

let truncated t =
  Array.exists (fun e -> Nt_net.Engine.truncated (Shard_engine.engine e)) t.engines

let result t g = Router.result t.rt g

let finish_merged t =
  let locals = Array.map Shard_engine.finish t.engines in
  let stats =
    Array.fold_left
      (fun acc (r : Runtime.result) ->
        let s = r.Runtime.stats in
        {
          Runtime.actions = acc.Runtime.actions + s.Runtime.actions;
          rounds = acc.Runtime.rounds + s.Runtime.rounds;
          blocked_attempts = acc.Runtime.blocked_attempts + s.Runtime.blocked_attempts;
          deadlock_aborts = acc.Runtime.deadlock_aborts + s.Runtime.deadlock_aborts;
          deadlock_cycles = acc.Runtime.deadlock_cycles + s.Runtime.deadlock_cycles;
          injected_aborts = acc.Runtime.injected_aborts + s.Runtime.injected_aborts;
          truncated = acc.Runtime.truncated || s.Runtime.truncated;
        })
      {
        Runtime.actions = 0;
        rounds = 0;
        blocked_attempts = 0;
        deadlock_aborts = 0;
        deadlock_cycles = 0;
        injected_aborts = 0;
        truncated = false;
      }
      locals
  in
  let committed_top, aborted_top = Router.counts t.rt in
  let trace =
    Router.merged_trace t.rt
      (Array.to_list (Array.map Shard_engine.buffer t.engines))
  in
  let forest = Router.merged_forest t.rt in
  let schema =
    Program.schema_of ~objects:(Partition.objects t.part) forest
  in
  ({ Runtime.trace; stats; committed_top; aborted_top }, forest, schema)

(* One shard's run is its engine's own. *)
let finish t =
  if t.merged then finish_merged t
  else
    let e = Shard_engine.engine t.engines.(0) in
    (Nt_net.Engine.finish e, Nt_net.Engine.forest e, Nt_net.Engine.schema e)

let shards t = Array.length t.engines
let engine t s = t.engines.(s)
let spine t = t.spine
let router t = t.rt
