type msg = Submit of int * Router.dispatch | Kill of int list | Stop

(* The same ensemble [Cluster] steps inline, with each shard's engine
   owned by a worker domain fed through its mailbox. *)
type t = {
  cl : Cluster.t;
  mboxes : msg Mailbox.t array;
  handles : unit Domain_compat.handle array;
  mutable stopped : bool;
}

let worker cl s mbox notify () =
  let se = Cluster.engine cl s in
  let eng = Shard_engine.engine se in
  let completed () =
    Nt_net.Engine.committed_top eng + Nt_net.Engine.aborted_top eng
  in
  let running = ref true in
  let idle = ref false in
  while !running do
    (* A drain stops only when nothing can move before the next message:
       a quiescent engine holds no live top, a truncated one never
       steps again.  So an idle worker parks on its mailbox. *)
    let msgs = Mailbox.pop ~block:!idle mbox in
    List.iter
      (function
        | Submit (g, d) -> Cluster.dispatch cl ~g d
        | Kill prefix -> ignore (Shard_engine.kill_prefix se prefix)
        | Stop -> running := false)
      msgs;
    if !running then begin
      let before = completed () in
      (match Shard_engine.drain ~burst:1024 se with
      | `Progress -> idle := false
      | `Quiescent | `Truncated -> idle := true);
      Shard_engine.publish se;
      if completed () > before then notify ()
    end
  done;
  Shard_engine.publish se

let spawn ?(notify = fun () -> ()) cl =
  let shards = Cluster.shards cl in
  let mboxes = Array.init shards (fun _ -> Mailbox.create ()) in
  let handles =
    Array.init shards (fun s ->
        Domain_compat.spawn (worker cl s mboxes.(s) notify))
  in
  { cl; mboxes; handles; stopped = false }

let start ?policy ?max_steps ?gating ?obs_for ?notify ~shards ~seed objects
    factory =
  spawn ?notify
    (Cluster.create ?policy ?max_steps ?obs_for ?gating ~shards ~seed objects
       factory)

let submit t prog =
  if t.stopped then Error "service stopped"
  else
    match Router.plan (Cluster.router t.cl) prog with
    | Error _ as e -> e
    | Ok { Router.p_g; p_dispatches; _ } ->
        List.iter
          (fun d -> Mailbox.push t.mboxes.(d.Router.d_shard) (Submit (p_g, d)))
          p_dispatches;
        Ok p_g

let kill t g =
  List.iter
    (fun (s, prefix) -> Mailbox.push t.mboxes.(s) (Kill prefix))
    (Router.kill_prefixes (Cluster.router t.cl) g)

let result t g = Cluster.result t.cl g
let pending t = Router.pending (Cluster.router t.cl)

let stats t =
  Array.init (Cluster.shards t.cl) (fun s ->
      Shard_engine.published (Cluster.engine t.cl s))

let spine t = Cluster.spine t.cl
let router t = Cluster.router t.cl

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun mb -> Mailbox.push mb Stop) t.mboxes;
    Array.iter Domain_compat.join t.handles
  end

let finish t =
  if not t.stopped then invalid_arg "Service.finish: stop first";
  Cluster.finish t.cl
