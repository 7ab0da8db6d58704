open Nt_base
open Nt_spec
open Nt_serial
open Nt_generic
open Nt_workload
open Nt_sg
open Nt_obs

(* ----- backends ----- *)

type backend =
  | Moss
  | Commlock
  | Undo
  | Mvts
  | Replication
  | No_control
  | Unsafe_read
  | No_undo
  | Causal_only
  | Prefix_consistent
  | Snapshot_read

let backend_name = function
  | Moss -> "moss"
  | Commlock -> "commlock"
  | Undo -> "undo"
  | Mvts -> "mvts"
  | Replication -> "replication"
  | No_control -> "no-control"
  | Unsafe_read -> "unsafe-read"
  | No_undo -> "no-undo"
  | Causal_only -> "causal-only"
  | Prefix_consistent -> "prefix-consistent"
  | Snapshot_read -> "snapshot-read"

let correct_backends = [ Moss; Commlock; Undo; Mvts; Replication ]

let broken_backends =
  [ No_control; Unsafe_read; No_undo; Causal_only; Prefix_consistent;
    Snapshot_read ]

let all_backends = correct_backends @ broken_backends
let backend_names = List.map backend_name all_backends

let backend_of_name s =
  List.find_opt (fun b -> backend_name b = s) all_backends

let unknown_backend_message s =
  Printf.sprintf "unknown backend %S (expected %s, or all)" s
    (String.concat ", " backend_names)

(* Moss' locking and the timestamp protocol are stated for read/write
   objects, replication transforms a logical register forest, the
   unsafe-read fault model is Moss' lock stack minus read locks, and
   the weak-isolation session stores only define register staleness. *)
let rw_only = function
  | Moss | Mvts | Replication | Unsafe_read | Causal_only
  | Prefix_consistent | Snapshot_read ->
      true
  | _ -> false

(* The physical protocol running each backend.  Replication has no
   factory of its own: the transformed forest runs under undo logging
   (any verified protocol would do). *)
let factory_of = function
  | Moss -> Nt_moss.Moss_object.factory
  | Commlock -> Nt_locking.Commlock_object.factory
  | Undo | Replication -> Nt_undo.Undo_object.factory
  | Mvts -> Nt_mvts.Mvts_object.factory
  | No_control -> Nt_gobj.Broken.no_control
  | Unsafe_read -> Nt_gobj.Broken.unsafe_read
  | No_undo -> Nt_gobj.Broken.no_undo
  | Causal_only -> Nt_gobj.Broken.causal_only
  | Prefix_consistent -> Nt_gobj.Broken.prefix_consistent
  | Snapshot_read -> Nt_gobj.Broken.snapshot_read

(* ----- scenarios ----- *)

type scenario = {
  forest : Program.t list;
  objects : (Obj_id.t * Datatype.t) list;
  sched_seed : int;
  policy : Runtime.policy;
  inform_policy : Runtime.inform_policy;
  abort_prob : float;
  family : string option;
}

let schema_of_scenario sc = Program.schema_of ~objects:sc.objects sc.forest

type grammar = Rw | Counters | Mixed | Weighted | Smallbank

let grammar_name = function
  | Rw -> "rw"
  | Counters -> "counters"
  | Mixed -> "mixed"
  | Weighted -> "weighted"
  | Smallbank -> "smallbank"

let grammar_of_name = function
  | "rw" -> Some Rw
  | "counters" -> Some Counters
  | "mixed" -> Some Mixed
  | "weighted" -> Some Weighted
  | "smallbank" -> Some Smallbank
  | _ -> None

(* Which grammars a backend's objects can actually run: the rw-only
   protocols (see [rw_only]) are stated for read/write registers, and
   SmallBank is register-encoded, so those two pass everywhere; the
   counter/mixed/weighted grammars draw non-register datatypes. *)
let grammar_allowed backend = function
  | Rw | Smallbank -> true
  | Counters | Mixed | Weighted -> not (rw_only backend)

let grammar_conflict_message backend grammar =
  Printf.sprintf
    "grammar %S cannot run on backend %S: %s are stated for read/write \
     registers only (register-only grammars: rw, smallbank)"
    (grammar_name grammar) (backend_name backend)
    (String.concat ", "
       (List.map backend_name (List.filter rw_only all_backends)))

type shape = Default | Lock_heavy | Deep_nesting | Abort_storm

let profile_of_shape = function
  | Default -> { Gen.default with Gen.n_top = 6; n_objects = 3 }
  | Lock_heavy -> Gen.lock_heavy
  | Deep_nesting -> Gen.deep_nesting
  | Abort_storm -> Gen.abort_storm

let gen_scenario ?grammar ?shape backend rng =
  let shape =
    match shape with
    | Some s -> s
    | None ->
        [| Default; Lock_heavy; Deep_nesting; Abort_storm |].(Rng.int rng 4)
  in
  let grammar =
    match grammar with
    (* SmallBank is register-only, so the rw-only backends admit it. *)
    | Some Smallbank -> Smallbank
    | _ when rw_only backend -> Rw
    | Some g -> g
    | None -> [| Rw; Counters; Mixed; Weighted |].(Rng.int rng 4)
  in
  let profile = profile_of_shape shape in
  let profile =
    match grammar with
    | Smallbank -> { profile with Gen.theta = Gen.smallbank_profile.Gen.theta }
    | _ -> profile
  in
  let weights = if Rng.bool rng then Gen.balanced else Gen.contended in
  (* Splitting isolates the program stream from the scheduling knobs:
     the same (seed, run index) regenerates the same scenario no
     matter how each sub-generator evolves. *)
  let prog_rng = Rng.split rng in
  let forest, objects =
    match grammar with
    | Rw -> Gen.registers prog_rng profile
    | Counters -> Gen.counters prog_rng profile
    | Mixed -> Gen.mixed prog_rng profile
    | Weighted -> Gen.weighted ~weights prog_rng profile
    | Smallbank -> Gen.smallbank prog_rng profile
  in
  let sched_seed =
    Int64.to_int (Int64.logand (Rng.bits64 rng) 0x3FFF_FFFF_FFFF_FFFFL)
  in
  let policy =
    if Rng.bool rng then Runtime.Random_step else Runtime.Bsp_rounds
  in
  let inform_policy =
    if Rng.int rng 3 = 0 then Runtime.Lazy else Runtime.Eager
  in
  let abort_prob =
    match shape with
    | Abort_storm -> 0.12
    | _ -> if Rng.int rng 4 = 0 then 0.05 else 0.0
  in
  { forest; objects; sched_seed; policy; inform_policy; abort_prob;
    family = Some (grammar_name grammar) }

(* ----- oracles ----- *)

type failure =
  | Ill_formed of string
  | Inappropriate of Obj_id.t
  | Sg_cycle of Txn_id.t list
  | Not_correct of string
  | Differential of string
  | One_copy of string
  | Durability of string
  | Essn_rejected of string
  | Retirement of string

let failure_tag = function
  | Ill_formed _ -> "ill-formed"
  | Inappropriate _ -> "returns"
  | Sg_cycle _ -> "sg-cycle"
  | Not_correct _ -> "not-correct"
  | Differential _ -> "differential"
  | One_copy _ -> "one-copy"
  | Durability _ -> "durability"
  | Essn_rejected _ -> "essn"
  | Retirement _ -> "retirement"

let pp_failure f fl =
  match fl with
  | Ill_formed s -> Format.fprintf f "ill-formed behavior: %s" s
  | Inappropriate x ->
      Format.fprintf f "inappropriate return values at %s" (Obj_id.name x)
  | Sg_cycle c ->
      Format.fprintf f "serialization-graph cycle: %s"
        (String.concat " -> " (List.map Txn_id.to_string c))
  | Not_correct s -> Format.fprintf f "not serially correct: %s" s
  | Differential s -> Format.fprintf f "differential mismatch: %s" s
  | One_copy s -> Format.fprintf f "one-copy violation: %s" s
  | Durability s -> Format.fprintf f "durability violation: %s" s
  | Essn_rejected s -> Format.fprintf f "essn criterion rejected: %s" s
  | Retirement s ->
      Format.fprintf f "monitor retirement changed what it reports: %s" s

type outcome = {
  trace : Trace.t;
  truncated : bool;
  failure : failure option;
}

(* The value a transaction committed with in the trace. *)
let committed_value trace t =
  let n = Trace.length trace in
  let rec go i =
    if i >= n then None
    else
      match Trace.get trace i with
      | Action.Request_commit (u, v) when Txn_id.equal u t -> Some v
      | _ -> go (i + 1)
  in
  go 0

(* Differential oracle: replay the committed part of the forest through
   the serial reference semantics, executing [Par] siblings in the
   witness order, and demand (a) every committed top-level transaction
   reports exactly the value the reference computes and (b) final
   object states agree with the run's committed-visible projection.
   Transactions that did not commit in the run are treated as aborted
   before creation (the serial scheduler's one failure mode), which is
   how they look from T0's interface. *)
let differential ?(check_finals = true) (schema : Schema.t) order
    (r : Runtime.result) forest =
  let committed = Trace.committed r.trace in
  let states = Hashtbl.create 8 in
  let state_of x =
    match Hashtbl.find_opt states (Obj_id.name x) with
    | Some s -> s
    | None -> (schema.Schema.dtype_of x).Datatype.init
  in
  let replay_order parent comb children =
    let indexed = List.mapi (fun i p -> (i, p)) children in
    match comb with
    | Program.Seq -> indexed
    | Program.Par ->
        let ranked = Sibling_order.ordered_children order parent in
        let rank t =
          let rec pos k = function
            | [] -> max_int
            | u :: rest -> if Txn_id.equal t u then k else pos (k + 1) rest
          in
          pos 0 ranked
        in
        List.stable_sort
          (fun (i, _) (j, _) ->
            compare
              (rank (Txn_id.child parent i), i)
              (rank (Txn_id.child parent j), j))
          indexed
  in
  let rec replay t prog =
    if not (Txn_id.Set.mem t committed) then
      Value.Pair (Value.Bool false, Value.Unit)
    else
      let v =
        match prog with
        | Program.Access (x, op) ->
            let s', v = (schema.Schema.dtype_of x).Datatype.apply (state_of x) op in
            Hashtbl.replace states (Obj_id.name x) s';
            v
        | Program.Node (comb, children) ->
            let arr = Array.make (List.length children) Value.Unit in
            List.iter
              (fun (i, p) -> arr.(i) <- replay (Txn_id.child t i) p)
              (replay_order t comb children);
            Value.List (Array.to_list arr)
      in
      Value.Pair (Value.Bool true, v)
  in
  (* The runtime roots the forest as [Node (Par, forest)] under T0, so
     the top-level transactions are themselves [Par] siblings ranked by
     the witness order — replay them in that order, not forest order. *)
  let expected = Array.make (List.length forest) Value.Unit in
  List.iter
    (fun (i, p) ->
      expected.(i) <- replay (Txn_id.child Txn_id.root i) p)
    (replay_order Txn_id.root Program.Par forest);
  let mismatch = ref None in
  List.iteri
    (fun i _ ->
      let t = Txn_id.child Txn_id.root i in
      if !mismatch = None && Txn_id.Set.mem t committed then
        match (expected.(i), committed_value r.trace t) with
        | Value.Pair (_, ve), Some vb when not (Value.equal ve vb) ->
            mismatch :=
              Some
                (Differential
                   (Format.sprintf "%s reported %s, serial reference gives %s"
                      (Txn_id.to_string t) (Value.to_string vb)
                      (Value.to_string ve)))
        | _ -> ())
    forest;
  match !mismatch with
  | Some f -> Some f
  | None when not check_finals -> None
  | None -> (
      let run_finals = Serial_exec.final_states schema r.trace in
      match
        List.find_opt
          (fun (x, v) -> not (Value.equal v (state_of x)))
          run_finals
      with
      | Some (x, v) ->
          Some
            (Differential
               (Format.sprintf
                  "final state of %s: run has %s, serial reference %s"
                  (Obj_id.name x) (Value.to_string v)
                  (Value.to_string (state_of x))))
      | None -> None)

let judge backend (schema : Schema.t) (r : Runtime.result) forest =
  match Simple_db.well_formed schema.Schema.sys r.trace with
  | Error v ->
      Some (Ill_formed (Format.asprintf "%a" Simple_db.pp_violation v))
  | Ok () -> (
      match backend with
      | Mvts -> (
          (* Multiversion behaviors serialize by pseudotime; the
             completion-order SG may legitimately be cyclic, so the
             oracle is the ESSN-style refined criterion: certify by
             the pseudotime order or the completion witness, reject
             with a multiversion anomaly classification otherwise. *)
          let v = Essn.check schema r.trace in
          match (v.Essn.essn_ok, v.Essn.order) with
          | true, Some order ->
              (* [Serial_exec.final_states] replays committed writes in
                 completion order, but a multiversion object's final
                 state is the certifying-order replay; the view check
                 already validated every read, so only compare the
                 reported values here. *)
              differential ~check_finals:false schema order r forest
          | true, None -> Some (Not_correct "essn certified without an order")
          | false, _ -> Some (Essn_rejected (Essn.describe v)))
      | _ -> (
          let v = Checker.check schema r.trace in
          if not v.Checker.appropriate then
            match Return_values.violating_object schema (Trace.serial r.trace) with
            | Some x -> Some (Inappropriate x)
            | None -> Some (Not_correct "appropriateness rejected, no witness")
          else if not v.Checker.acyclic then
            Some (Sg_cycle (Option.value ~default:[] v.Checker.cycle))
          else if not v.Checker.serially_correct then
            Some
              (Not_correct
                 (Format.sprintf "witness order suitable=%b views_legal=%b"
                    (Option.value ~default:false v.Checker.suitable)
                    (Option.value ~default:false v.Checker.views_legal)))
          else
            match v.Checker.order with
            | Some order -> differential schema order r forest
            | None -> Some (Not_correct "acyclic but no witness order")))

(* The verdict on one run: the backend's oracle (replication is
   judged on its physical image, as undo), then the one-copy claim —
   made only when [quorums_completed]: drops, vetoes, deadlock victims
   and injected faults abort replica subtransactions mid-quorum, so such
   runs are judged on serializability alone. *)
let verdict backend ~plan ~quorums_completed schema
    (r : Runtime.result) forest =
  if r.Runtime.stats.truncated then None
  else
    let judged_as = match backend with Replication -> Undo | b -> b in
    match judge judged_as schema r forest with
    | Some f -> Some f
    | None -> (
        match plan with
        | Some plan when quorums_completed -> (
            match
              Nt_replication.Replication.check_one_copy plan r.Runtime.trace
            with
            | Ok () -> None
            | Error v ->
                Some
                  (One_copy
                     (Format.asprintf "%a"
                        Nt_replication.Replication.pp_violation v)))
        | _ -> None)

(* The retirement oracle: a monitor that retires settled tops and one
   that keeps the whole history, fed the trace in lockstep, each
   top-level [Commit] speculated on both first as the gate does. *)
type retirement_agreement = {
  ra_vetoes : int;
  ra_alarms : int;
  ra_retired : int;
}

exception Disagree of string

let retirement_agreement (schema : Schema.t) trace =
  let m = Monitor.create schema
  and k = Monitor.create ~hold:(fun _ -> true) schema in
  let g = Monitor.graph m and gk = Monitor.graph k in
  let mem g u = Graph.position g u <> None in
  let label g a b =
    Option.map (Format.asprintf "%a" Monitor.pp_provenance) (Graph.label g a b)
  in
  let open_tops = Txn_id.Tbl.create 16 in
  let vetoes = ref 0 and alarms = ref 0 in
  let check i a =
    let fail fmt =
      Format.kasprintf
        (fun s -> raise (Disagree (Printf.sprintf "event %d: %s" i s)))
        fmt
    in
    (match a with
    | Action.Commit w when Txn_id.depth w = 1 ->
        let verdict mon =
          Option.map
            (fun (cycle, fresh) ->
              (cycle, Monitor.explain_cycle ~extra:fresh mon cycle))
            (Monitor.edges_would_cycle mon
               (Monitor.prospective_commit_edges mon w))
        in
        let v = verdict m in
        if v <> verdict k then fail "gate verdicts on %a differ" Txn_id.pp w;
        if v <> None then incr vetoes
    | Action.Request_create u when Txn_id.depth u = 1 ->
        Txn_id.Tbl.replace open_tops u ()
    | (Action.Report_commit (u, _) | Action.Report_abort u)
      when Txn_id.depth u = 1 ->
        Txn_id.Tbl.remove open_tops u
    | _ -> ());
    let fired = Monitor.feed m a in
    if fired <> Monitor.feed k a then fail "alarms differ";
    alarms := !alarms + List.length fired;
    (* The retiring graph is the keeping one's subgraph induced on its
       nodes, labels and order included, and holds every open top's
       nodes. *)
    Graph.fold_nodes g
      (fun () u -> if not (mem gk u) then fail "%a only retiring" Txn_id.pp u)
      ();
    Graph.iter_edges g (fun a b ->
        if label g a b <> label gk a b then
          fail "edge %a -> %a differs" Txn_id.pp a Txn_id.pp b);
    let induced =
      Graph.fold_edges gk
        (fun n a b -> if mem g a && mem g b then n + 1 else n)
        0
    in
    if induced <> Graph.n_edges g then fail "not an induced subgraph";
    Graph.fold_nodes gk
      (fun () u ->
        if
          Txn_id.Tbl.mem open_tops
            (Txn_id.child_of_on_path ~ancestor:Txn_id.root u)
          && not (mem g u)
        then fail "open %a retired" Txn_id.pp u)
      ();
    (match (Graph.order g, Graph.order gk) with
    | None, None -> ()
    | Some o, Some ok when o = List.filter (mem g) ok -> ()
    | _ -> fail "orders differ")
  in
  match Array.iteri check trace with
  | () ->
      Ok
        {
          ra_vetoes = !vetoes;
          ra_alarms = !alarms;
          ra_retired = Graph.n_nodes gk - Graph.n_nodes g;
        }
  | exception Disagree s -> Error s

let replication_config =
  { Nt_replication.Replication.n_replicas = 3; read_quorum = 2; write_quorum = 2 }

(* The physical configuration a backend runs: [Replication]
   replicates the whole logical forest up front (version numbers are
   globally generation-ordered across the forest), then runs the
   physical programs — served one at a time, submission order
   preserves forest positions, so the plan's [logical_of] maps the
   served trace back exactly. *)
let physical backend sc =
  match backend with
  | Replication ->
      let plan =
        Nt_replication.Replication.replicate replication_config
          ~objects:(List.map fst sc.objects) sc.forest
      in
      let schema = plan.Nt_replication.Replication.physical_schema in
      let objects =
        List.map (fun x -> (x, schema.Schema.dtype_of x)) schema.Schema.objects
      in
      (objects, plan.Nt_replication.Replication.physical_forest, Some plan)
  | _ -> (sc.objects, sc.forest, None)

let run_scenario ?(obs = Obs.null) ?(max_steps = 200_000) backend sc =
  let objects, forest, plan = physical backend sc in
  let schema = Program.schema_of ~objects forest in
  let r =
    Runtime.run ~policy:sc.policy ~inform_policy:sc.inform_policy
      ~abort_prob:sc.abort_prob ~max_steps ~obs ~seed:sc.sched_seed schema
      (factory_of backend) forest
  in
  let failure =
    verdict backend ~plan
      ~quorums_completed:
        (r.Runtime.stats.deadlock_aborts = 0
        && r.Runtime.stats.injected_aborts = 0)
      schema r forest
  in
  {
    trace = r.Runtime.trace;
    truncated = r.Runtime.stats.truncated;
    failure =
      (* The monitor's verdict is unspecified on an ill-formed trace;
         on any other, retirement must change nothing it reports. *)
      (match failure with
      | Some (Ill_formed _) -> failure
      | _ -> (
          match retirement_agreement schema r.Runtime.trace with
          | Error s -> Some (Retirement s)
          | Ok _ -> failure));
  }

(* ----- in-process serving harness ----- *)

type serve_report = {
  s_trace : Trace.t;
  s_submitted : int;
  s_committed : int;
  s_aborted : int;
  s_vetoed : int;
  s_dropped : int;
  s_orphans : int;
  s_alarms : int;
  s_cycle_alarms : int;
  s_truncated : bool;
  s_failure : failure option;
}

(* The open-loop schedule both serving harnesses run: submit the next
   program when the target went quiescent, or with probability 1/3;
   arm a 1-8 step disconnect countdown with probability [drop_prob];
   kill when a countdown expires; step; stop on truncation, or once
   every program is in and the target is idle.  [kill] says whether
   the disconnect orphaned anything; the number that did is returned.
   [tick] runs after each step's kills.  One [Rng] drives every draw,
   in this order, so the seed fixes the run. *)
let drive ~seed ~drop_prob ~submit ~step ~kill ~truncated ~idle
    ?(tick = ignore) progs =
  let rng = Rng.create seed in
  let pending = ref progs in
  let drops = ref [] in
  let dropped = ref 0 in
  let rec loop last =
    (match !pending with
    | prog :: rest when last = `Quiescent || Rng.int rng 3 = 0 ->
        pending := rest;
        let h = submit prog in
        if drop_prob > 0.0 && Rng.float rng 1.0 < drop_prob then
          drops := (h, ref (1 + Rng.int rng 8)) :: !drops
    | _ -> ());
    let last = step rng in
    drops :=
      List.filter
        (fun (h, left) ->
          decr left;
          !left > 0 || (if kill h then incr dropped; false))
        !drops;
    tick ();
    if not (truncated last || (!pending = [] && idle last)) then loop last
  in
  loop `Progress;
  !dropped

let rejected harness = function
  | Ok h -> h
  | Error e ->
      invalid_arg ("Check." ^ harness ^ ": generated program rejected: " ^ e)

(* The report over a finished run of [engines]: counters summed across
   them, the verdict claiming one-copy only when no abort can have cut
   a quorum short and [whole] holds. *)
let served backend ~plan ~whole ~submitted ~dropped engines (r, forest, schema)
    =
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 engines in
  let orphans = sum Nt_net.Engine.orphan_aborts in
  let vetoed = sum Nt_net.Engine.vetoed in
  {
    s_trace = r.Runtime.trace;
    s_submitted = submitted;
    s_committed = r.Runtime.committed_top;
    s_aborted = r.Runtime.aborted_top;
    s_vetoed = vetoed;
    s_dropped = dropped;
    s_orphans = orphans;
    s_alarms = sum Nt_net.Engine.alarms;
    s_cycle_alarms = sum Nt_net.Engine.cycle_alarms;
    s_truncated = r.Runtime.stats.truncated;
    s_failure =
      verdict backend ~plan
        ~quorums_completed:
          (whole
          && r.Runtime.stats.deadlock_aborts = 0
          && r.Runtime.stats.injected_aborts = 0
          && orphans = 0 && vetoed = 0)
        schema r forest;
  }

let meta_of backend sc objects =
  Nt_net.Wal.meta ~seed:sc.sched_seed ~backend:(backend_name backend)
    ~policy:sc.policy ~inform_policy:sc.inform_policy ~abort_prob:sc.abort_prob
    objects

(* The cluster a scenario is served (and recovered) on. *)
let cluster_for ?on_top_complete ?gating ~max_steps ~shards backend sc objects =
  Nt_shard.Cluster.create ~policy:sc.policy ~inform_policy:sc.inform_policy
    ~abort_prob:sc.abort_prob ~max_steps ?gating ?on_top_complete ~shards
    ~seed:sc.sched_seed objects (factory_of backend)

type recorded = {
  rc_wal : string;
  rc_offsets : int list;
  rc_snapshot : string option;
  rc_report : serve_report;
  rc_closure_len : int;
}

type sharded_report = {
  sh_report : serve_report;
  sh_shards : int;
  sh_cross : int;
  sh_local : int;
  sh_spine_checks : int;
  sh_spine_vetoes : int;
  sh_spine_edges : int;
}

(* The one serving harness, over a [shards]-way cluster.  At one shard
   the drive draws no shard index and stops at the engine's quiescent
   step, so a seed keeps its one-engine schedule; [log] (one shard
   only) goes through a log session, snapshotting at [snapshot_at]. *)
let serve ?(max_steps = 200_000) ?(drop_prob = 0.0) ?gating ?snapshot_at
    ~log ~shards ~seed backend sc =
  let objects, progs, plan = physical backend sc in
  (* The outcome hook is installed at cluster-creation time, before the
     session exists — hence the forward reference. *)
  let session = ref None in
  let cl =
    cluster_for ?gating ~max_steps ~shards backend sc objects
      ~on_top_complete:(fun txn oc ->
        Option.iter (fun s -> Nt_shard.Durable.Session.note_outcome s txn oc) !session)
  in
  let buf = Buffer.create 4096 in
  if log then
    session :=
      Some
        (Nt_shard.Durable.Session.create ~meta:(meta_of backend sc objects) cl
           (Nt_net.Wal.Writer.create ~fsync_batch:0 ~base_seq:0 ~on_sync:ignore
              (Nt_net.Wal.buffer_sink buf)));
  let rt = Nt_shard.Cluster.router cl in
  let snapshot = ref None in
  let dropped =
    drive ~seed ~drop_prob
      ~submit:(fun prog ->
        rejected "serve"
          (match !session with
          | Some s -> Nt_shard.Durable.Session.submit s ~client:"check" prog
          | None -> Nt_shard.Cluster.submit cl prog))
      ~step:(fun rng ->
        Nt_shard.Cluster.step_shard cl (if shards = 1 then 0 else Rng.int rng shards))
      ~kill:(fun g ->
        match !session with
        | Some s -> Nt_shard.Durable.Session.kill s g
        | None -> Nt_shard.Cluster.kill cl g)
      ~truncated:(fun _ -> Nt_shard.Cluster.truncated cl)
      ~idle:(fun last ->
        if shards = 1 then last = `Quiescent
        else Nt_shard.Cluster.quiescent cl && Nt_shard.Router.pending rt = 0)
      ~tick:(fun () ->
        match (!session, snapshot_at) with
        | Some s, Some n
          when !snapshot = None
               && Nt_net.Wal.Writer.appended (Nt_shard.Durable.Session.writer s) >= n ->
            snapshot := Some (Nt_shard.Durable.Session.snapshot s)
        | _ -> ())
      progs
  in
  Option.iter Nt_shard.Durable.Session.flush !session;
  let finished = Nt_shard.Cluster.finish cl in
  let cross = Nt_shard.Router.cross_count rt in
  let sp = Nt_shard.Cluster.spine cl in
  let report =
    {
      (* One-copy is also only claimed when every replicated program
         stayed whole on one shard: a split program's merged forest node
         is a [Par] of pieces, so the plan's position map no longer
         describes it. *)
      sh_report =
        served backend ~plan ~whole:(cross = 0)
          ~submitted:(Nt_shard.Router.submitted rt) ~dropped
          (List.init shards (fun s ->
               Nt_shard.Shard_engine.engine (Nt_shard.Cluster.engine cl s)))
          finished;
      sh_shards = shards;
      sh_cross = cross;
      sh_local = Nt_shard.Router.local_count rt;
      sh_spine_checks = Nt_shard.Spine.checks sp;
      sh_spine_vetoes = Nt_shard.Spine.vetoes sp;
      sh_spine_edges = Nt_shard.Spine.edge_count sp;
    }
  in
  (report, buf, !snapshot, !session)

let record ?max_steps ?drop_prob ?snapshot_at ~seed backend sc =
  let report, buf, snapshot, session =
    serve ?max_steps ?drop_prob ?snapshot_at ~log:true ~shards:1 ~seed backend sc
  in
  let image = Buffer.contents buf in
  let offsets =
    match Nt_net.Wal.scan ~magic:Nt_net.Wal.wal_magic image with
    | Ok s -> s.Nt_net.Wal.sc_offsets
    | Error e -> invalid_arg ("Check.record: scan of own log: " ^ e)
  in
  {
    rc_wal = image;
    rc_offsets = offsets;
    rc_snapshot = snapshot;
    rc_report = report.sh_report;
    rc_closure_len =
      Option.fold ~none:0 ~some:Nt_shard.Durable.Session.closure_length session;
  }

let serve_sharded ?max_steps ?drop_prob ?gating ~shards ~seed backend sc =
  let report, _, _, _ =
    serve ?max_steps ?drop_prob ?gating ~log:false ~shards ~seed backend sc
  in
  report

(* ----- crash injection ----- *)

type crash_report = {
  c_boundaries : int;
  c_recoveries : int;
  c_outcomes_checked : int;
  c_snapshot_recoveries : int;
  c_trace : Trace.t;
  c_failure : (string * failure) option;
}

let crash_seed_of sc = sc.sched_seed lxor 0x2C5A11

(* Two recoveries agree when their engines are observationally equal:
   same submission forest, same call count, same counters, same
   monitor graph. *)
let engines_agree a b =
  let render cl =
    let eng = Nt_shard.Shard_engine.engine (Nt_shard.Cluster.engine cl 0) in
    let g = Monitor.graph (Nt_net.Admission.monitor (Nt_net.Engine.admission eng)) in
    let name = Txn_id.to_string in
    ( ( List.map Program_io.program_to_string (Nt_net.Engine.forest eng),
        Nt_net.Engine.step_calls eng,
        Nt_net.Engine.submitted eng,
        Nt_net.Engine.committed_top eng,
        Nt_net.Engine.aborted_top eng,
        Nt_net.Engine.vetoed eng ),
      List.sort compare (List.map name (Graph.nodes g)),
      List.sort compare (List.map (fun (u, v) -> (name u, name v)) (Graph.edges g)) )
  in
  if render a = render b then Ok () else Error "recovered engines disagree"

let flip_bit img pos =
  let b = Bytes.of_string img in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
  Bytes.to_string b

let crash ?(max_steps = 200_000) ?(drop_prob = 0.15) ?snapshot_at ?seed
    backend sc =
  let seed = match seed with Some s -> s | None -> crash_seed_of sc in
  let rc = record ~max_steps ~drop_prob ?snapshot_at ~seed backend sc in
  let image = rc.rc_wal in
  let len = String.length image in
  let objects, _, _ = physical backend sc in
  let meta = meta_of backend sc objects in
  let recoveries = ref 0 and outcomes = ref 0 and snaps = ref 0 in
  let failure = ref None in
  let fail where f = if !failure = None then failure := Some (where, f) in
  let faild where msg = fail where (Durability msg) in
  (* Recover one log image (plus, optionally, a snapshot image) into a
     fresh one-shard cluster through the server's own recovery plan,
     replaying in small turns so long [Steps] runs are split mid-way as
     a server splits them. *)
  let recover ?snapshot log =
    match Nt_net.Wal.Recovery.plan ~meta ~log ~snapshot with
    | Error { Nt_net.Wal.Recovery.why; _ } -> Error why
    | Ok plan ->
        let cl = cluster_for ~max_steps ~shards:1 backend sc objects in
        Result.map
          (fun n ->
            outcomes := !outcomes + n;
            (cl, plan))
          (Nt_shard.Durable.run ~burst:7 cl plan)
  in
  (* Judge a recovered cluster as a complete run: resume (drain to
     quiescence — the remaining pre-crash submissions never arrive)
     and apply the four oracles.  One-copy is not claimed for
     recovered [Replication] runs: the crash orphans in-flight
     quorums by construction. *)
  let judge_recovered where cl =
    ignore (Nt_shard.Cluster.drain cl);
    let r, forest, schema = Nt_shard.Cluster.finish cl in
    match verdict backend ~plan:None ~quorums_completed:false schema r forest with
    | Some f -> fail where f
    | None -> ()
  in
  let recover_and_judge ~where ?expect_valid img =
    incr recoveries;
    match recover img with
    | Error e -> faild where e
    | Ok (cl, plan) ->
        (match expect_valid with
        | Some v when plan.Nt_net.Wal.Recovery.valid <> v ->
            faild where
              (Printf.sprintf "scan kept %d valid bytes, expected %d"
                 plan.Nt_net.Wal.Recovery.valid v)
        | _ -> ());
        judge_recovered where cl
  in
  (match rc.rc_report.s_failure with
  | Some f -> fail "pre-crash run" f
  | None -> ());
  let boundaries = Array.of_list (rc.rc_offsets @ [ len ]) in
  let n = Array.length boundaries in
  (* Pre-header cuts: a crash during file creation. *)
  recover_and_judge ~where:"empty file" "";
  if len >= 8 then
    recover_and_judge ~where:"torn file header" (String.sub image 0 8);
  Array.iteri
    (fun i b ->
      if !failure = None then begin
        (* A kill exactly at a record boundary: the scan must accept
           the whole prefix as clean. *)
        recover_and_judge
          ~where:(Printf.sprintf "clean cut at record %d (byte %d)" i b)
          ~expect_valid:(max b 16)
          (String.sub image 0 b);
        (* A kill mid-record: the torn frame must be diagnosed and
           the prefix up to the boundary kept. *)
        (if b < len then
           let frame = (if i + 1 < n then boundaries.(i + 1) else len) - b in
           let k = 1 + (((i * 7) + 3) mod max 1 (frame - 1)) in
           recover_and_judge
             ~where:
               (Printf.sprintf "torn cut %d bytes into record %d (byte %d)" k
                  i (b + k))
             ~expect_valid:b
             (String.sub image 0 (b + k)));
        (* A corrupted sector: flip a bit mid-record; the checksum
           must stop the scan at the preceding boundary. *)
        if b < len && i mod 3 = 0 then begin
          let frame = (if i + 1 < n then boundaries.(i + 1) else len) - b in
          recover_and_judge
            ~where:
              (Printf.sprintf "bit flip inside record %d (byte %d)" i
                 (b + (frame / 2)))
            ~expect_valid:b
            (flip_bit image (b + (frame / 2)))
        end
      end)
    boundaries;
  (* Snapshot paths: snapshot + tail must agree with the full-log
     replay, and a corrupted snapshot must be detected (recovery then
     falls back to the full log, exercised above). *)
  (match rc.rc_snapshot with
  | Some simg when !failure = None -> (
      (match recover ~snapshot:simg image with
      | Error e -> faild "snapshot + tail recovery" e
      | Ok (_, plan) when not plan.Nt_net.Wal.Recovery.snapshot_trusted ->
          faild "snapshot + tail recovery" "intact snapshot not trusted"
      | Ok (cl_snap, _) -> (
          incr snaps;
          incr recoveries;
          match recover image with
          | Error e -> faild "full-log recovery (snapshot comparison)" e
          | Ok (cl_full, _) -> (
              match engines_agree cl_snap cl_full with
              | Error e -> faild "snapshot-vs-full-log" e
              | Ok () -> judge_recovered "snapshot + tail recovery" cl_snap)));
      (* Torn-write injection on the rotation path: the snapshot is
         written tmp + fsync + rename, so a crash mid-rotation leaves
         either a truncated tmp image (the rename never happened) or a
         corrupted sector.  The plan must refuse to trust every damaged
         image and fall back to the previous window — here, the full
         log, which must still recover and pass the four oracles. *)
      let slen = String.length simg in
      let check_damaged where img =
        if !failure = None then begin
          incr recoveries;
          match recover ~snapshot:img image with
          | Error e -> faild (where ^ ": full-log fallback") e
          | Ok (_, plan) when plan.Nt_net.Wal.Recovery.snapshot_trusted ->
              faild where "damaged snapshot trusted"
          | Ok (cl, _) -> judge_recovered (where ^ ": full-log fallback") cl
        end
      in
      List.iter
        (fun k ->
          if k >= 0 && k < slen then
            check_damaged
              (Printf.sprintf "snapshot torn at byte %d" k)
              (String.sub simg 0 k))
        [ 0; 8; slen / 4; slen / 2; slen - 1 ];
      List.iter
        (fun pos ->
          if pos >= 0 && pos < slen then
            check_damaged
              (Printf.sprintf "snapshot bit flip at byte %d" pos)
              (flip_bit simg pos))
        [ 0; slen / 2; slen - 1 ])
  | _ -> ());
  {
    c_boundaries = n;
    c_recoveries = !recoveries;
    c_outcomes_checked = !outcomes;
    c_snapshot_recoveries = !snaps;
    c_trace = rc.rc_report.s_trace;
    c_failure = !failure;
  }

let crash_outcome rep =
  {
    trace = rep.c_trace;
    truncated = false;
    failure =
      (match rep.c_failure with
      | None -> None
      | Some (_, (Durability _ as f)) -> Some f
      | Some (where, f) ->
          Some (Durability (Format.asprintf "%s: %a" where pp_failure f)));
  }

(* ----- SG oracle equivalence ----- *)

type sg_agreement = {
  checker_acyclic : bool;  (* O(1) incremental verdict on Sg.build *)
  monitor_acyclic : bool;  (* online incremental detector *)
  scratch_acyclic : bool;  (* from-scratch three-color DFS *)
  cycle_alarms : int;
  inappropriate_alarms : int;
}

(* Run the SG acyclicity oracle three ways over one behavior: the
   batch checker (incremental verdict over [Sg.build]), the online
   monitor (incremental detection per feed), and the pre-incremental
   reference ([Graph.find_cycle_scratch]).  The three must agree —
   this is the cross-implementation oracle the differential tests
   (check, essn, shard) and bench E21 pin; no ntcheck path calls it. *)
let sg_agreement (schema : Schema.t) trace =
  let beta = Trace.serial trace in
  let g = Sg.build Sg.Operation_level schema beta in
  let m = Nt_sg.Monitor.create schema in
  let alarms = Nt_sg.Monitor.feed_trace m trace in
  let cycle_alarms, inappropriate_alarms =
    List.fold_left
      (fun (c, i) (_, a) ->
        match a with
        | Nt_sg.Monitor.Cycle _ -> (c + 1, i)
        | Nt_sg.Monitor.Inappropriate _ -> (c, i + 1))
      (0, 0) alarms
  in
  {
    checker_acyclic = Graph.is_acyclic g;
    monitor_acyclic = cycle_alarms = 0;
    scratch_acyclic = Graph.find_cycle_scratch g = None;
    cycle_alarms;
    inappropriate_alarms;
  }

let sg_agrees a =
  a.checker_acyclic = a.monitor_acyclic
  && a.checker_acyclic = a.scratch_acyclic

(* ----- campaigns ----- *)

type report = {
  runs : int;
  passed : int;
  truncations : int;
  failures : (int * scenario * failure) list;
}

(* The campaign loop: [runs] scenarios split off one master [Rng], each
   judged by [subject]; counters go under [prefix] ([check] or
   [check.crash]). *)
let sweep ~obs ~prefix ?grammar ?shape ~stop_at_first ~subject backend ~seed
    ~runs =
  let master = Rng.create seed in
  let metric name = prefix ^ "." ^ name in
  let bump name =
    if Obs.enabled obs then
      Metrics.incr (Metrics.counter (Obs.metrics obs) (metric name))
  in
  let passed = ref 0 and truncations = ref 0 and failures = ref [] in
  let executed = ref 0 in
  (try
     for i = 0 to runs - 1 do
       let rng = Rng.split master in
       let sc = gen_scenario ?grammar ?shape backend rng in
       incr executed;
       bump "runs";
       let o = subject sc in
       if o.truncated then incr truncations;
       match o.failure with
       | None ->
           incr passed;
           bump "pass"
       | Some f ->
           bump "fail";
           bump ("fail." ^ failure_tag f);
           Obs.instant obs (metric ("fail." ^ failure_tag f));
           failures := (i, sc, f) :: !failures;
           if stop_at_first then raise Exit
     done
   with Exit -> ());
  (* Final counter samples so a streamed trace (ntprof) carries the
     campaign totals, not just the in-process registry. *)
  if Obs.enabled obs then begin
    let sample name =
      Obs.counter_sample obs (metric name)
        (Metrics.counter_value (Metrics.counter (Obs.metrics obs) (metric name)))
    in
    sample "runs";
    sample "pass";
    if !failures <> [] then sample "fail"
  end;
  {
    runs = !executed;
    passed = !passed;
    truncations = !truncations;
    failures = List.rev !failures;
  }

let campaign ?(obs = Obs.null) ?max_steps ?grammar ?shape
    ?(stop_at_first = true) backend ~seed ~runs =
  sweep ~obs ~prefix:"check" ?grammar ?shape ~stop_at_first
    ~subject:(run_scenario ~obs ?max_steps backend)
    backend ~seed ~runs

let crash_campaign ?(obs = Obs.null) ?max_steps ?grammar ?shape ?drop_prob
    ?(snapshot_at = 8) ?(stop_at_first = true) backend ~seed ~runs =
  sweep ~obs ~prefix:"check.crash" ?grammar ?shape ~stop_at_first
    ~subject:(fun sc ->
      crash_outcome (crash ?max_steps ?drop_prob ~snapshot_at backend sc))
    backend ~seed ~runs
