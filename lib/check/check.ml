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

let failure_tag = function
  | Ill_formed _ -> "ill-formed"
  | Inappropriate _ -> "returns"
  | Sg_cycle _ -> "sg-cycle"
  | Not_correct _ -> "not-correct"
  | Differential _ -> "differential"
  | One_copy _ -> "one-copy"
  | Durability _ -> "durability"
  | Essn_rejected _ -> "essn"

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

let replication_config =
  { Nt_replication.Replication.n_replicas = 3; read_quorum = 2; write_quorum = 2 }

let run_scenario ?(obs = Obs.null) ?(max_steps = 200_000) backend sc =
  match backend with
  | Replication ->
      let plan =
        Nt_replication.Replication.replicate replication_config
          ~objects:(List.map fst sc.objects) sc.forest
      in
      let schema = plan.Nt_replication.Replication.physical_schema in
      let forest = plan.Nt_replication.Replication.physical_forest in
      let r =
        Runtime.run ~policy:sc.policy ~inform_policy:sc.inform_policy
          ~abort_prob:sc.abort_prob ~max_steps ~obs ~seed:sc.sched_seed schema
          (factory_of backend) forest
      in
      {
        trace = r.Runtime.trace;
        truncated = r.Runtime.stats.truncated;
        failure =
          verdict Replication ~plan:(Some plan)
            ~quorums_completed:
              (r.Runtime.stats.deadlock_aborts = 0
              && r.Runtime.stats.injected_aborts = 0)
            schema r forest;
      }
  | _ ->
      let schema = schema_of_scenario sc in
      let r =
        Runtime.run ~policy:sc.policy ~inform_policy:sc.inform_policy
          ~abort_prob:sc.abort_prob ~max_steps ~obs ~seed:sc.sched_seed schema
          (factory_of backend) sc.forest
      in
      if r.Runtime.stats.truncated then
        { trace = r.Runtime.trace; truncated = true; failure = None }
      else
        {
          trace = r.Runtime.trace;
          truncated = false;
          failure = judge backend schema r sc.forest;
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

(* The physical configuration a backend serves: [Replication]
   replicates the whole logical forest up front (version numbers are
   globally generation-ordered across the forest), then serves the
   physical programs one at a time — submission order preserves forest
   positions, so the plan's [logical_of] maps the served trace back
   exactly. *)
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

let policy_name = function
  | Runtime.Random_step -> "random-step"
  | Runtime.Bsp_rounds -> "bsp-rounds"

let inform_name = function Runtime.Eager -> "eager" | Runtime.Lazy -> "lazy"

let meta_of backend sc objects =
  Nt_net.Wal.Meta
    {
      seed = sc.sched_seed;
      backend = backend_name backend;
      policy = policy_name sc.policy;
      inform = inform_name sc.inform_policy;
      abort_prob = sc.abort_prob;
      objects =
        List.map
          (fun (x, dt) -> (Obj_id.name x, Program_io.dtype_decl dt))
          objects;
    }

type recorded = {
  rc_wal : string;
  rc_offsets : int list;
  rc_snapshot : string option;
  rc_report : serve_report;
  rc_closure_len : int;
}

let record ?(obs = Obs.null) ?(max_steps = 200_000) ?(drop_prob = 0.0)
    ?(admission = true) ?(fsync_batch = 0) ?snapshot_at ~seed backend sc =
  let factory = factory_of backend in
  let objects, progs, plan = physical backend sc in
  let buf = Buffer.create 4096 in
  let w =
    Nt_net.Wal.Writer.create ~fsync_batch ~base_seq:0 ~on_sync:ignore
      (Nt_net.Wal.buffer_sink buf)
  in
  Nt_net.Wal.Writer.append w (meta_of backend sc objects);
  (* The outcome hook is installed at engine-creation time, before the
     engine value exists — hence the forward reference. *)
  let eng_ref = ref None in
  let on_top_complete txn oc =
    match !eng_ref with
    | None -> ()
    | Some eng ->
        let outcome =
          match (oc, Nt_net.Engine.state eng txn) with
          | `Committed, Nt_net.Engine.Committed v ->
              Nt_net.Wal.Committed (Value.to_string v)
          | `Aborted, Nt_net.Engine.Aborted veto ->
              Nt_net.Wal.Aborted
                (Option.map (fun v -> v.Nt_net.Admission.witness) veto)
          | `Committed, _ -> Nt_net.Wal.Committed "?"
          | `Aborted, _ -> Nt_net.Wal.Aborted None
        in
        Nt_net.Wal.Writer.note_outcome w ~txn outcome
  in
  let eng =
    Nt_net.Engine.create ~policy:sc.policy ~inform_policy:sc.inform_policy
      ~abort_prob:sc.abort_prob ~max_steps ~obs ~admission ~on_top_complete
      ~seed:sc.sched_seed objects factory
  in
  eng_ref := Some eng;
  let rng = Rng.create seed in
  let pending = ref progs in
  let pending_steps = ref 0 in
  (* Cut before every Submit/Kill record: the covering [Steps] record,
     then any outcomes those steps produced — so every intact log
     prefix reproduces exactly the state its audit records claim. *)
  (* The in-memory replay closure a live server would keep between
     snapshots, maintained incrementally so its growth can be pinned:
     however long the run, it holds at most [2 * (submits + kills) + 1]
     records, not one per idle [Steps] cut. *)
  let closure = Nt_net.Wal.Closure.create () in
  let cut () =
    Nt_net.Wal.Closure.push closure (Nt_net.Wal.Steps !pending_steps);
    Nt_net.Wal.Writer.log_steps w !pending_steps;
    pending_steps := 0
  in
  let snapshot = ref None in
  let maybe_snapshot () =
    match snapshot_at with
    | Some n
      when !snapshot = None && Nt_net.Wal.Writer.appended w >= n ->
        cut ();
        let scanned =
          match
            Nt_net.Wal.scan ~magic:Nt_net.Wal.wal_magic (Buffer.contents buf)
          with
          | Ok s -> s
          | Error e -> invalid_arg ("Check.record: scan of own log: " ^ e)
        in
        let g =
          Monitor.graph (Nt_net.Admission.monitor (Nt_net.Engine.admission eng))
        in
        snapshot :=
          Some
            (Nt_net.Wal.encode_snapshot
               {
                 Nt_net.Wal.sn_next_seq = Nt_net.Wal.Writer.next_seq w;
                 sn_meta = meta_of backend sc objects;
                 sn_events = Nt_net.Wal.compact scanned.Nt_net.Wal.sc_records;
                 sn_sg = Nt_net.Wal.sg_state_of_graph g;
                 sn_counts =
                   Nt_net.Wal.Counts
                     {
                       submitted = Nt_net.Engine.submitted eng;
                       committed = Nt_net.Engine.committed_top eng;
                       aborted = Nt_net.Engine.aborted_top eng;
                       vetoed = Nt_net.Engine.vetoed eng;
                     };
               })
    | _ -> ()
  in
  let drops = ref [] in
  let dropped = ref 0 in
  let last = ref `Progress in
  let continue = ref true in
  while !continue do
    (match !pending with
    | prog :: rest when !last = `Quiescent || Rng.int rng 3 = 0 ->
        pending := rest;
        cut ();
        let r =
          Nt_net.Wal.Submit
            {
              req = None;
              client = "check";
              program = Program_io.program_to_string prog;
            }
        in
        Nt_net.Wal.Closure.push closure r;
        Nt_net.Wal.Writer.append w r;
        (match Nt_net.Engine.submit eng prog with
        | Ok txn ->
            if drop_prob > 0.0 && Rng.float rng 1.0 < drop_prob then
              drops := (txn, ref (1 + Rng.int rng 8)) :: !drops
        | Error e ->
            invalid_arg ("Check.serve: generated program rejected: " ^ e))
    | _ -> ());
    last := Nt_net.Engine.step eng;
    incr pending_steps;
    drops :=
      List.filter
        (fun (txn, left) ->
          decr left;
          if !left <= 0 then begin
            cut ();
            Nt_net.Wal.Closure.push closure (Nt_net.Wal.Kill { txn });
            Nt_net.Wal.Writer.append w (Nt_net.Wal.Kill { txn });
            (match Nt_net.Engine.kill eng txn with
            | `Aborted | `Doomed -> incr dropped
            | `Already_complete | `Unknown -> ());
            false
          end
          else true)
        !drops;
    maybe_snapshot ();
    match !last with
    | `Truncated -> continue := false
    | `Quiescent -> if !pending = [] then continue := false
    | `Progress -> ()
  done;
  cut ();
  Nt_net.Wal.Writer.flush w;
  let r = Nt_net.Engine.finish eng in
  let forest = Nt_net.Engine.forest eng in
  let schema = Nt_net.Engine.schema eng in
  let truncated = r.Runtime.stats.truncated in
  let failure =
    verdict backend ~plan
      ~quorums_completed:
        (r.Runtime.stats.deadlock_aborts = 0
        && r.Runtime.stats.injected_aborts = 0
        && Nt_net.Engine.orphan_aborts eng = 0
        && Nt_net.Engine.vetoed eng = 0)
      schema r forest
  in
  let report =
    {
      s_trace = r.Runtime.trace;
      s_submitted = Nt_net.Engine.submitted eng;
      s_committed = r.Runtime.committed_top;
      s_aborted = r.Runtime.aborted_top;
      s_vetoed = Nt_net.Engine.vetoed eng;
      s_dropped = !dropped;
      s_orphans = Nt_net.Engine.orphan_aborts eng;
      s_alarms = Nt_net.Engine.alarms eng;
      s_cycle_alarms = Nt_net.Engine.cycle_alarms eng;
      s_truncated = truncated;
      s_failure = failure;
    }
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
    rc_snapshot = !snapshot;
    rc_report = report;
    rc_closure_len = Nt_net.Wal.Closure.length closure;
  }

let serve ?obs ?max_steps ?drop_prob ?admission ~seed backend sc =
  (record ?obs ?max_steps ?drop_prob ?admission ~seed backend sc).rc_report

(* ----- sharded serving harness ----- *)

type sharded_report = {
  sh_report : serve_report;
  sh_shards : int;
  sh_cross : int;
  sh_local : int;
  sh_spine_checks : int;
  sh_spine_vetoes : int;
  sh_spine_edges : int;
}

let serve_sharded ?(max_steps = 200_000) ?(drop_prob = 0.0) ?(gating = true)
    ~shards ~seed backend sc =
  let factory = factory_of backend in
  let objects, progs, plan = physical backend sc in
  (* The default partition key strips replica suffixes, so a logical
     object's replicas are co-sharded: quorum writes stay shard-local
     unless the logical program itself crosses shards. *)
  let cl =
    Nt_shard.Cluster.create ~policy:sc.policy ~inform_policy:sc.inform_policy
      ~abort_prob:sc.abort_prob ~max_steps ~gating ~shards ~seed:sc.sched_seed
      objects factory
  in
  let rt = Nt_shard.Cluster.router cl in
  let rng = Rng.create seed in
  let pending = ref progs in
  let drops = ref [] in
  let dropped = ref 0 in
  let last = ref `Progress in
  let continue = ref true in
  while !continue do
    (match !pending with
    | prog :: rest when !last = `Quiescent || Rng.int rng 3 = 0 ->
        pending := rest;
        (match Nt_shard.Cluster.submit cl prog with
        | Ok g ->
            if drop_prob > 0.0 && Rng.float rng 1.0 < drop_prob then
              drops := (g, ref (1 + Rng.int rng 8)) :: !drops
        | Error e ->
            invalid_arg
              ("Check.serve_sharded: generated program rejected: " ^ e))
    | _ -> ());
    last := Nt_shard.Cluster.step_shard cl (Rng.int rng shards);
    drops :=
      List.filter
        (fun (g, left) ->
          decr left;
          if !left <= 0 then begin
            Nt_shard.Cluster.kill cl g;
            incr dropped;
            false
          end
          else true)
        !drops;
    if Nt_shard.Cluster.truncated cl then continue := false
    else if
      !pending = []
      && Nt_shard.Cluster.quiescent cl
      && Nt_shard.Router.pending rt = []
    then continue := false
  done;
  let r, forest, schema = Nt_shard.Cluster.finish cl in
  let truncated = r.Runtime.stats.truncated in
  let cross = Nt_shard.Router.cross_count rt in
  let engine_of s = Nt_shard.Shard_engine.engine (Nt_shard.Cluster.engine cl s) in
  let sum f =
    let acc = ref 0 in
    for s = 0 to shards - 1 do
      acc := !acc + f (engine_of s)
    done;
    !acc
  in
  let orphans = sum Nt_net.Engine.orphan_aborts in
  let alarms = sum Nt_net.Engine.alarms in
  let cycle_alarms = sum Nt_net.Engine.cycle_alarms in
  (* One-copy is also only claimed when every replicated program stayed
     whole on one shard: a split program's merged forest node is a
     [Par] of pieces, so the plan's position map no longer describes
     it. *)
  let failure =
    verdict backend ~plan
      ~quorums_completed:
        (cross = 0
        && r.Runtime.stats.deadlock_aborts = 0
        && r.Runtime.stats.injected_aborts = 0
        && orphans = 0
        && Nt_shard.Cluster.vetoed cl = 0)
      schema r forest
  in
  let sp = Nt_shard.Cluster.spine cl in
  {
    sh_report =
      {
        s_trace = r.Runtime.trace;
        s_submitted = Nt_shard.Router.submitted rt;
        s_committed = r.Runtime.committed_top;
        s_aborted = r.Runtime.aborted_top;
        s_vetoed = Nt_shard.Cluster.vetoed cl;
        s_dropped = !dropped;
        s_orphans = orphans;
        s_alarms = alarms;
        s_cycle_alarms = cycle_alarms;
        s_truncated = truncated;
        s_failure = failure;
      };
    sh_shards = shards;
    sh_cross = cross;
    sh_local = Nt_shard.Router.local_count rt;
    sh_spine_checks = Nt_shard.Spine.checks sp;
    sh_spine_vetoes = Nt_shard.Spine.vetoes sp;
    sh_spine_edges = Nt_shard.Spine.edge_count sp;
  }

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

(* Recover one damaged log image into a fresh engine: scan (tolerating
   a torn tail), refuse a foreign [Meta], replay the intact event
   prefix, then demand prefix closure — every audited outcome in the
   prefix reproduced exactly — before resuming (drain) and judging the
   completed behavior with the same four oracles as any served run.
   Returns the replayed engine so callers can compare recoveries. *)
let recover_image ?(max_steps = 200_000) ?(admission = true) ~expect_meta
    ~counts backend sc img =
  let ( let* ) = Result.bind in
  let* scanned = Nt_net.Wal.scan ~magic:Nt_net.Wal.wal_magic img in
  let* rp =
    Nt_net.Wal.replayable_of_records ~base_seq:scanned.Nt_net.Wal.sc_base_seq
      ~skip_below:0 scanned.Nt_net.Wal.sc_records
  in
  let* () =
    match rp.Nt_net.Wal.rp_meta with
    | Some (m, _) ->
        if m = expect_meta then Ok ()
        else Error "meta mismatch: log belongs to a different configuration"
    | None ->
        if rp.Nt_net.Wal.rp_events = [] then Ok ()
        else Error "events without a meta record"
  in
  let objects, _, _ = physical backend sc in
  let eng =
    Nt_net.Engine.create ~policy:sc.policy ~inform_policy:sc.inform_policy
      ~abort_prob:sc.abort_prob ~max_steps ~admission ~seed:sc.sched_seed
      objects (factory_of backend)
  in
  let* _ = Nt_net.Engine.recover eng rp.Nt_net.Wal.rp_events in
  let* checked =
    Nt_net.Wal.check_outcomes (Nt_net.Engine.state eng)
      rp.Nt_net.Wal.rp_outcomes
  in
  counts := !counts + checked;
  Ok (eng, scanned)

(* Recover via snapshot + log tail: replay the snapshot's compacted
   events, cross-check its materialized SG and counters against the
   replayed state, then replay the tail ([skip_below] the snapshot's
   coverage) with the no-freshness-check chunked entry point. *)
let recover_snapshot ?(max_steps = 200_000) ?(admission = true) ~expect_meta
    ~counts backend sc simg img =
  let ( let* ) = Result.bind in
  let* sn = Nt_net.Wal.decode_snapshot simg in
  let* () =
    if sn.Nt_net.Wal.sn_meta = expect_meta then Ok ()
    else Error "snapshot meta mismatch"
  in
  let* rp_snap =
    Nt_net.Wal.replayable_of_records ~base_seq:0 ~skip_below:0
      sn.Nt_net.Wal.sn_events
  in
  let objects, _, _ = physical backend sc in
  let eng =
    Nt_net.Engine.create ~policy:sc.policy ~inform_policy:sc.inform_policy
      ~abort_prob:sc.abort_prob ~max_steps ~admission ~seed:sc.sched_seed
      objects (factory_of backend)
  in
  let* _ = Nt_net.Engine.recover eng rp_snap.Nt_net.Wal.rp_events in
  let g () =
    Monitor.graph (Nt_net.Admission.monitor (Nt_net.Engine.admission eng))
  in
  let* () = Nt_net.Wal.check_sg_state sn.Nt_net.Wal.sn_sg (g ()) in
  let* () =
    match sn.Nt_net.Wal.sn_counts with
    | Nt_net.Wal.Counts { submitted; committed; aborted; vetoed } ->
        if
          submitted = Nt_net.Engine.submitted eng
          && committed = Nt_net.Engine.committed_top eng
          && aborted = Nt_net.Engine.aborted_top eng
          && vetoed = Nt_net.Engine.vetoed eng
        then Ok ()
        else Error "snapshot counters not reproduced by replay"
    | _ -> Error "snapshot without a counts record"
  in
  let* scanned = Nt_net.Wal.scan ~magic:Nt_net.Wal.wal_magic img in
  let* rp_tail =
    Nt_net.Wal.replayable_of_records ~base_seq:scanned.Nt_net.Wal.sc_base_seq
      ~skip_below:sn.Nt_net.Wal.sn_next_seq scanned.Nt_net.Wal.sc_records
  in
  let* _ = Nt_net.Engine.replay eng rp_tail.Nt_net.Wal.rp_events in
  let* checked =
    Nt_net.Wal.check_outcomes (Nt_net.Engine.state eng)
      rp_tail.Nt_net.Wal.rp_outcomes
  in
  counts := !counts + checked;
  Ok eng

(* Two recoveries agree when the engines are observationally equal:
   same submission forest, same call count, same counters, same
   monitor graph. *)
let engines_agree a b =
  let render eng =
    ( List.map Program_io.program_to_string (Nt_net.Engine.forest eng),
      Nt_net.Engine.step_calls eng,
      Nt_net.Engine.submitted eng,
      Nt_net.Engine.committed_top eng,
      Nt_net.Engine.aborted_top eng,
      Nt_net.Engine.vetoed eng )
  in
  if render a <> render b then Error "recovered engines disagree"
  else
    let g eng =
      Monitor.graph (Nt_net.Admission.monitor (Nt_net.Engine.admission eng))
    in
    Nt_net.Wal.check_sg_state (Nt_net.Wal.sg_state_of_graph (g a)) (g b)

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
  let expect_meta = meta_of backend sc objects in
  let recoveries = ref 0 and outcomes = ref 0 and snaps = ref 0 in
  let failure = ref None in
  let fail where f = if !failure = None then failure := Some (where, f) in
  let faild where msg = fail where (Durability msg) in
  (* Judge a recovered engine as a complete run: resume (drain to
     quiescence — the remaining pre-crash submissions never arrive)
     and apply the four oracles.  One-copy is not claimed for
     recovered [Replication] runs: the crash orphans in-flight
     quorums by construction. *)
  let judge_recovered where eng =
    ignore (Nt_net.Engine.drain eng);
    let r = Nt_net.Engine.finish eng in
    if not r.Runtime.stats.truncated then begin
      let judged_as = match backend with Replication -> Undo | b -> b in
      match
        judge judged_as (Nt_net.Engine.schema eng) r (Nt_net.Engine.forest eng)
      with
      | Some f -> fail where f
      | None -> ()
    end
  in
  let recover_and_judge ~where ?expect_valid img =
    incr recoveries;
    match
      recover_image ~max_steps ~expect_meta ~counts:outcomes backend sc img
    with
    | Error e -> faild where e
    | Ok (eng, scanned) -> (
        (match expect_valid with
        | Some v when scanned.Nt_net.Wal.sc_valid <> v ->
            faild where
              (Printf.sprintf "scan kept %d valid bytes, expected %d"
                 scanned.Nt_net.Wal.sc_valid v)
        | _ -> ());
        judge_recovered where eng)
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
      (match
         recover_snapshot ~max_steps ~expect_meta ~counts:outcomes backend sc
           simg image
       with
      | Error e -> faild "snapshot + tail recovery" e
      | Ok eng_snap -> (
          incr snaps;
          incr recoveries;
          match
            recover_image ~max_steps ~expect_meta ~counts:outcomes backend sc
              image
          with
          | Error e -> faild "full-log recovery (snapshot comparison)" e
          | Ok (eng_full, _) -> (
              match engines_agree eng_snap eng_full with
              | Error e -> faild "snapshot-vs-full-log" e
              | Ok () -> judge_recovered "snapshot + tail recovery" eng_snap)));
      (* Torn-write injection on the rotation path: the snapshot is
         written tmp + fsync + rename, so a crash mid-rotation leaves
         either a truncated tmp image (the rename never happened) or a
         corrupted sector.  Every damaged image must be rejected by
         [decode_snapshot], after which recovery falls back to the
         previous window — here, the full log, which must still
         recover and pass the four oracles. *)
      let slen = String.length simg in
      let check_damaged where img =
        if !failure = None then
          match Nt_net.Wal.decode_snapshot img with
          | Ok _ -> faild where "damaged snapshot decoded successfully"
          | Error _ -> (
              incr recoveries;
              match
                recover_image ~max_steps ~expect_meta ~counts:outcomes
                  backend sc image
              with
              | Error e -> faild (where ^ ": full-log fallback") e
              | Ok (eng, _) ->
                  judge_recovered (where ^ ": full-log fallback") eng)
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
   this is the cross-implementation oracle the differential tests and
   ntcheck sweeps pin. *)
let sg_agreement ?mode (schema : Schema.t) trace =
  let mode = match mode with Some m -> m | None -> Sg.Operation_level in
  let beta = Trace.serial trace in
  let g = Sg.build mode schema beta in
  let m = Nt_sg.Monitor.create ~mode schema in
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

let campaign ?(obs = Obs.null) ?max_steps ?grammar ?shape
    ?(stop_at_first = true) backend ~seed ~runs =
  let master = Rng.create seed in
  let bump name =
    if Obs.enabled obs then Metrics.incr (Metrics.counter (Obs.metrics obs) name)
  in
  let passed = ref 0 and truncations = ref 0 and failures = ref [] in
  let executed = ref 0 in
  (try
     for i = 0 to runs - 1 do
       let rng = Rng.split master in
       let sc = gen_scenario ?grammar ?shape backend rng in
       incr executed;
       bump "check.runs";
       let o = run_scenario ~obs ?max_steps backend sc in
       if o.truncated then incr truncations;
       match o.failure with
       | None ->
           incr passed;
           bump "check.pass"
       | Some f ->
           bump "check.fail";
           bump ("check.fail." ^ failure_tag f);
           Obs.instant obs ("check.fail." ^ failure_tag f);
           failures := (i, sc, f) :: !failures;
           if stop_at_first then raise Exit
     done
   with Exit -> ());
  (* Final counter samples so a streamed trace (ntprof) carries the
     campaign totals, not just the in-process registry. *)
  if Obs.enabled obs then begin
    let sample name =
      Obs.counter_sample obs name
        (Metrics.counter_value (Metrics.counter (Obs.metrics obs) name))
    in
    sample "check.runs";
    sample "check.pass";
    if !failures <> [] then sample "check.fail"
  end;
  {
    runs = !executed;
    passed = !passed;
    truncations = !truncations;
    failures = List.rev !failures;
  }

let crash_campaign ?(obs = Obs.null) ?max_steps ?grammar ?shape ?drop_prob
    ?(snapshot_at = 8) ?(stop_at_first = true) backend ~seed ~runs =
  let master = Rng.create seed in
  let bump name =
    if Obs.enabled obs then Metrics.incr (Metrics.counter (Obs.metrics obs) name)
  in
  let passed = ref 0 and truncations = ref 0 and failures = ref [] in
  let executed = ref 0 in
  (try
     for i = 0 to runs - 1 do
       let rng = Rng.split master in
       let sc = gen_scenario ?grammar ?shape backend rng in
       incr executed;
       bump "check.crash.runs";
       let rep = crash ?max_steps ?drop_prob ~snapshot_at backend sc in
       let o = crash_outcome rep in
       if o.truncated then incr truncations;
       match o.failure with
       | None ->
           incr passed;
           bump "check.crash.pass"
       | Some f ->
           bump "check.crash.fail";
           bump ("check.crash.fail." ^ failure_tag f);
           Obs.instant obs ("check.crash.fail." ^ failure_tag f);
           failures := (i, sc, f) :: !failures;
           if stop_at_first then raise Exit
     done
   with Exit -> ());
  {
    runs = !executed;
    passed = !passed;
    truncations = !truncations;
    failures = List.rev !failures;
  }
