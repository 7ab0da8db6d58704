open Nt_base
open Nt_serial

type dispatch = { d_shard : int; d_prefix : int list; d_prog : Program.t }

type plan = { p_g : int; p_dispatches : dispatch list; p_cross : bool }

type result_view =
  | Pending
  | Committed of Value.t
  | Aborted of Nt_net.Admission.veto option

type entry =
  | Plain of { shard : int; mutable outcome : Shard_engine.outcome option }
  | Cross of {
      shards : int array;  (* piece index -> shard *)
      values : Value.t option array;
      mutable remaining : int;
      mutable value : Value.t option;  (* G's value once synthesized *)
    }

type t = {
  part : Partition.t;
  spine : Spine.t;
  merged : bool;  (* several shards: synthesize the merged requests *)
  mu : Mutex.t;
  entries : (int, entry) Hashtbl.t;
  progs : (int, Program.t) Hashtbl.t;  (* the merged forest, per g *)
  mutable synth : (int * Action.t) list;  (* synthesized G actions *)
  mutable n_local : int;
  mutable n_cross : int;
  mutable n_committed : int;
  mutable n_aborted : int;
}

let create ~merged part spine =
  {
    part;
    spine;
    merged;
    mu = Mutex.create ();
    entries = Hashtbl.create 256;
    progs = Hashtbl.create 256;
    synth = [];
    n_local = 0;
    n_cross = 0;
    n_committed = 0;
    n_aborted = 0;
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let top_txn g = Txn_id.child Txn_id.root g

(* The engine's own check, against the full table — so a cross-shard
   program is accepted or rejected atomically, before any piece
   reaches a shard. *)
let plan t prog =
  match Nt_net.Engine.validate (Partition.objects t.part) prog with
  | Error _ as e -> e
  | Ok () -> (
      match Footprint.classify t.part prog with
      | Footprint.Local s ->
          let g = Spine.register t.spine in
          locked t (fun () ->
              Hashtbl.replace t.entries g (Plain { shard = s; outcome = None });
              Hashtbl.replace t.progs g prog;
              t.n_local <- t.n_local + 1;
              (* The merged [T0] requests its children in name order, at
                 dispatch — the engines issue their local counterparts
                 lazily, in whatever order their schedulers reach them,
                 which would let a later-named top complete before an
                 earlier-named one was even requested and put the
                 merged trace's affects relation at odds with the
                 pseudotime (dfs) sibling order.  The shard tap drops
                 the local event; this stamp is the one the merged
                 trace and the spine's rail both use.  One shard's
                 engine trace is already the merged one. *)
              if t.merged then begin
                let s1 = Spine.stamp t.spine in
                t.synth <- (s1, Action.Request_create (top_txn g)) :: t.synth;
                Spine.note_submit t.spine g ~seq:s1
              end);
          Ok { p_g = g; p_dispatches = [ { d_shard = s; d_prefix = [ g ]; d_prog = prog } ]; p_cross = false }
      | Footprint.Cross _ ->
          let pieces = Split.pieces t.part prog in
          let g = Spine.register t.spine in
          locked t (fun () ->
              let n = List.length pieces in
              Hashtbl.replace t.entries g
                (Cross
                   {
                     shards = Array.of_list (List.map fst pieces);
                     values = Array.make n None;
                     remaining = n;
                     value = None;
                   });
              Hashtbl.replace t.progs g (Split.merged (List.map snd pieces));
              t.n_cross <- t.n_cross + 1;
              (* The merged system's [T0] requests the par-of-pieces
                 node at dispatch: stamp its creation before any piece
                 can act, which also anchors the spine's rail — and the
                 node itself requests its pieces right away, in piece
                 order, for the same affects-consistency reason as the
                 plain case above (the local engines' requests for the
                 piece roots are dropped by the shard taps). *)
              let s1 = Spine.stamp t.spine in
              t.synth <- (s1, Action.Request_create (top_txn g)) :: t.synth;
              Spine.note_submit t.spine g ~seq:s1;
              let s2 = Spine.stamp t.spine in
              t.synth <- (s2, Action.Create (top_txn g)) :: t.synth;
              List.iteri
                (fun k _ ->
                  let sk = Spine.stamp t.spine in
                  t.synth <-
                    (sk, Action.Request_create (Txn_id.child (top_txn g) k))
                    :: t.synth)
                pieces);
          Ok
            {
              p_g = g;
              p_dispatches =
                List.mapi
                  (fun k (s, p) ->
                    { d_shard = s; d_prefix = [ g; k ]; d_prog = p })
                  pieces;
              p_cross = true;
            })

(* With the router lock held: all pieces have reported, so the merged
   node commits — its value pairs each piece's fate, uncommitted pieces
   as [Pair (false, Unit)], exactly the shape the differential oracle
   replays for a [Par] node with aborted children. *)
let synthesize_commit t g values =
  let v =
    Value.List
      (Array.to_list
         (Array.map
            (function
              | Some v -> Value.Pair (Value.Bool true, v)
              | None -> Value.Pair (Value.Bool false, Value.Unit))
            values))
  in
  let u = top_txn g in
  let s1 = Spine.stamp t.spine in
  t.synth <- (s1, Action.Request_commit (u, v)) :: t.synth;
  let s2 = Spine.stamp t.spine in
  t.synth <- (s2, Action.Commit u) :: t.synth;
  let s3 = Spine.stamp t.spine in
  t.synth <- (s3, Action.Report_commit (u, v)) :: t.synth;
  Spine.note_complete t.spine g ~seq:s3;
  v

let note_report t ~g ~piece ~seq:_ out =
  locked t (fun () ->
      match (Hashtbl.find_opt t.entries g, piece) with
      | Some (Plain ({ outcome = None; _ } as p)), None ->
          p.outcome <- Some out;
          (match out with
          | Shard_engine.Done_committed _ -> t.n_committed <- t.n_committed + 1
          | Shard_engine.Done_aborted _ -> t.n_aborted <- t.n_aborted + 1)
      | Some (Cross c), Some k when c.remaining > 0 ->
          (match out with
          | Shard_engine.Done_committed v -> c.values.(k) <- Some v
          | Shard_engine.Done_aborted _ -> ());
          c.remaining <- c.remaining - 1;
          if c.remaining = 0 then begin
            c.value <- Some (synthesize_commit t g c.values);
            t.n_committed <- t.n_committed + 1
          end
      | _ -> ())

(* A shard refused a routed piece (cannot happen for router-validated
   programs; belt and braces): count it as an aborted piece so the
   merged transaction still completes. *)
let note_dispatch_failed t ~g ~piece =
  note_report t ~g ~piece ~seq:0 (Shard_engine.Done_aborted None)

let result t g =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries g with
      | None -> Pending
      | Some (Plain { outcome = Some (Shard_engine.Done_committed v); _ }) ->
          Committed v
      | Some (Plain { outcome = Some (Shard_engine.Done_aborted veto); _ }) ->
          Aborted veto
      | Some (Plain { outcome = None; _ }) -> Pending
      | Some (Cross { value = Some v; _ }) -> Committed v
      | Some (Cross _) -> Pending)

let kill_prefixes t g =
  locked t (fun () ->
      match Hashtbl.find_opt t.entries g with
      | None -> []
      | Some (Plain { shard; _ }) -> [ (shard, [ g ]) ]
      | Some (Cross { shards; _ }) ->
          Array.to_list (Array.mapi (fun k s -> (s, [ g; k ])) shards))

let submitted t = locked t (fun () -> Hashtbl.length t.entries)
let cross_count t = locked t (fun () -> t.n_cross)
let local_count t = locked t (fun () -> t.n_local)

let pending t =
  locked t (fun () -> Hashtbl.length t.entries - t.n_committed - t.n_aborted)
let counts t = locked t (fun () -> (t.n_committed, t.n_aborted))

let merged_forest t =
  locked t (fun () ->
      List.init (Hashtbl.length t.progs) (fun g -> Hashtbl.find t.progs g))

let merged_trace t buffers =
  let synth = locked t (fun () -> t.synth) in
  let all = List.concat (synth :: buffers) in
  let sorted =
    List.sort (fun (s1, _) (s2, _) -> compare (s1 : int) s2) all
  in
  Trace.of_list (List.map snd sorted)
