(* The experiment harness: one table per experiment E1-E8 of DESIGN.md
   (the paper, a theory paper, has no tables or figures of its own; see
   EXPERIMENTS.md for the mapping from each experiment to the paper
   claim it exercises), plus bechamel micro-benchmarks of the core
   operations.

   Run all:        dune exec bench/main.exe
   Run a subset:   dune exec bench/main.exe -- e3 e5 micro *)

open Core

let seeds n = List.init n (fun i -> (i * 101) + 3)

let run ?(abort_prob = 0.0) ~seed schema factory forest =
  Runtime.run ~policy:Runtime.Bsp_rounds ~abort_prob ~seed schema factory
    forest

let fi = float_of_int

(* CPU milliseconds spent in [f ()], with its result.  Process CPU
   time ([Sys.time]) ignores other processes' load; entries that need
   the wall clock (fsync waits, campaigns longer than its ~10 ms tick)
   read [Unix.gettimeofday] themselves. *)
let cpu_ms f =
  let t0 = Sys.time () in
  let x = f () in
  (x, (Sys.time () -. t0) *. 1000.0)

(* Interleaved best-of-[n]: a single sample of a ~20ms run swings by
   10-20% with scheduler and frequency noise, and timing configurations
   in separate blocks lets that drift masquerade as overhead.
   Alternating samples and keeping each side's best bounds every run by
   the same quiet-machine floor.  Each thunk reports its own elapsed ms
   (on whichever clock suits it), so per-run setup stays untimed. *)
let best_of n thunks =
  let best = Array.make (Array.length thunks) infinity in
  for _ = 1 to n do
    Array.iteri
      (fun i k ->
        let dt = k () in
        if dt < best.(i) then best.(i) <- dt)
      thunks
  done;
  best

(* The open-loop serving drive e17-e19 time: one engine step per
   submission ([on_submit] sees each accepted name before its step,
   [after_step i] runs after the [i]-th program's), then drain to
   quiescence.  The caller settles with [Engine.finish]. *)
let serve_open_loop ?(on_submit = ignore) ?(after_step = ignore) eng forest =
  List.iteri
    (fun i p ->
      (match Engine.submit eng p with
      | Ok txn -> on_submit txn
      | Error e -> failwith e);
      ignore (Engine.step eng);
      after_step i)
    forest;
  match Engine.drain eng with
  | `Quiescent -> ()
  | _ -> failwith "engine did not quiesce"

(* Every experiment prints its table as it finishes; with [--json FILE]
   the same tables are also collected and dumped as one JSON array at
   exit, so plots and dashboards need not scrape the text output. *)
let emitted : Table.t list ref = ref []

let report t =
  emitted := t :: !emitted;
  Table.print t

(* ------------------------------------------------------------------ *)
(* E1: concurrency of Moss' locking vs the serial scheduler.           *)

let e1 () =
  let t =
    Table.create ~title:"E1: Moss locking vs serial scheduler (registers)"
      ~columns:
        [ "n_top"; "serial_events"; "moss_rounds"; "speedup"; "committed";
          "correct" ]
  in
  List.iter
    (fun n_top ->
      let profile =
        { Gen.default with n_top; depth = 2; fanout = 3; n_objects = 8 }
      in
      let serial_events = ref [] and rounds = ref [] and committed = ref [] in
      let all_correct = ref true in
      List.iter
        (fun seed ->
          let forest, schema = Gen.forest_and_schema Gen.registers ~seed profile in
          let st = Serial_exec.run schema forest in
          serial_events := fi (Trace.length st) :: !serial_events;
          let r = run ~seed schema Moss_object.factory forest in
          rounds := fi r.Runtime.stats.rounds :: !rounds;
          committed := fi r.Runtime.committed_top :: !committed;
          if not (Checker.serially_correct schema r.Runtime.trace) then
            all_correct := false)
        (seeds 5);
      let se = Stats.mean !serial_events and ro = Stats.mean !rounds in
      Table.add_row t
        [
          Table.cell_i n_top;
          Table.cell_f se;
          Table.cell_f ro;
          Table.cell_f (Stats.ratio se ro);
          Table.cell_f (Stats.mean !committed);
          string_of_bool !all_correct;
        ])
    [ 4; 8; 16; 32; 64 ];
  report t

(* ------------------------------------------------------------------ *)
(* E2: blocking and aborts under contention, locking vs undo logging.  *)

let e2 () =
  let t =
    Table.create
      ~title:"E2: contention behavior (hot counters; undo vs r/w locking)"
      ~columns:
        [ "theta"; "objects"; "undo_blocked"; "undo_dlk"; "moss_blocked";
          "moss_dlk" ]
  in
  List.iter
    (fun theta ->
      List.iter
        (fun n_counters ->
          let ub = ref [] and ud = ref [] and mb = ref [] and md = ref [] in
          List.iter
            (fun seed ->
              let forest, schema =
                Scenario.hotspot_counter ~n_txns:16 ~n_counters ~theta ~seed
              in
              let r = run ~seed schema Undo_object.factory forest in
              ub := fi r.Runtime.stats.blocked_attempts :: !ub;
              ud := fi r.Runtime.stats.deadlock_aborts :: !ud;
              let forest, schema =
                Scenario.rw_equivalent_counter ~n_txns:16 ~n_counters ~theta
                  ~seed
              in
              let r = run ~seed schema Moss_object.factory forest in
              mb := fi r.Runtime.stats.blocked_attempts :: !mb;
              md := fi r.Runtime.stats.deadlock_aborts :: !md)
            (seeds 5);
          Table.add_row t
            [
              Table.cell_f theta;
              Table.cell_i n_counters;
              Table.cell_f (Stats.mean !ub);
              Table.cell_f (Stats.mean !ud);
              Table.cell_f (Stats.mean !mb);
              Table.cell_f (Stats.mean !md);
            ])
        [ 1; 4; 16 ])
    [ 0.0; 0.5; 0.9 ];
  report t

(* ------------------------------------------------------------------ *)
(* E3: type-specific commutativity: throughput of the same logical     *)
(* workload as counters (undo) vs read/write registers (locking).      *)

let e3 () =
  let t =
    Table.create
      ~title:"E3: commuting increments (undo) vs read-modify-write (locking)"
      ~columns:
        [ "n_txns"; "undo_rounds"; "moss_rounds"; "undo_tput"; "moss_tput";
          "undo/moss" ]
  in
  List.iter
    (fun n_txns ->
      let ur = ref [] and mr = ref [] and ut = ref [] and mt = ref [] in
      List.iter
        (fun seed ->
          let forest, schema =
            Scenario.hotspot_counter ~n_txns ~n_counters:1 ~theta:0.0 ~seed
          in
          let r = run ~seed schema Undo_object.factory forest in
          ur := fi r.Runtime.stats.rounds :: !ur;
          ut :=
            Stats.ratio (fi r.Runtime.committed_top) (fi r.Runtime.stats.rounds)
            :: !ut;
          let forest, schema =
            Scenario.rw_equivalent_counter ~n_txns ~n_counters:1 ~theta:0.0
              ~seed
          in
          let r = run ~seed schema Moss_object.factory forest in
          mr := fi r.Runtime.stats.rounds :: !mr;
          mt :=
            Stats.ratio (fi r.Runtime.committed_top) (fi r.Runtime.stats.rounds)
            :: !mt)
        (seeds 5);
      Table.add_row t
        [
          Table.cell_i n_txns;
          Table.cell_f (Stats.mean !ur);
          Table.cell_f (Stats.mean !mr);
          Table.cell_f (Stats.mean !ut);
          Table.cell_f (Stats.mean !mt);
          Table.cell_f (Stats.ratio (Stats.mean !ut) (Stats.mean !mt));
        ])
    [ 4; 8; 16; 32 ];
  report t

(* ------------------------------------------------------------------ *)
(* E4: agreement of the nested construction with the classical flat    *)
(* conflict graph on depth-one workloads.                              *)

let e4 () =
  let t =
    Table.create
      ~title:"E4: nested SG vs classical conflict graph (flat workloads)"
      ~columns:
        [ "protocol"; "runs"; "both_accept"; "both_reject"; "nested_only_rej";
          "classical_only_rej" ]
  in
  let experiment name factory n =
    let ba = ref 0 and br = ref 0 and nr = ref 0 and cr = ref 0 in
    for seed = 1 to n do
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed
          { Gen.default with n_top = 8; depth = 1; n_objects = 2;
            read_ratio = 0.4 }
      in
      let r = run ~seed schema factory forest in
      let nested = Checker.serially_correct schema r.Runtime.trace in
      let classical =
        Flat_sg.is_serializable (History.of_trace schema r.Runtime.trace)
      in
      match (nested, classical) with
      | true, true -> incr ba
      | false, false -> incr br
      | false, true -> incr nr
      | true, false -> incr cr
    done;
    Table.add_row t
      [
        name; Table.cell_i n; Table.cell_i !ba; Table.cell_i !br;
        Table.cell_i !nr; Table.cell_i !cr;
      ]
  in
  experiment "moss" Moss_object.factory 40;
  experiment "no_control" Broken.no_control 40;
  report t

(* ------------------------------------------------------------------ *)
(* E5: cost of the construction as traces grow.                        *)

let e5 () =
  let t =
    Table.create ~title:"E5: checker cost vs trace length"
      ~columns:
        [ "events"; "sg_build_ms"; "verdict_ms"; "monitor_ms"; "sg_edges";
          "correct" ]
  in
  List.iter
    (fun n_top ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed:11
          { Gen.default with n_top; depth = 2; n_objects = 8 }
      in
      let r = run ~seed:11 schema Moss_object.factory forest in
      let beta = Trace.serial r.Runtime.trace in
      let g, t_build =
        cpu_ms (fun () -> Sg.build Sg.Access_level schema beta)
      in
      let v, t_verdict =
        cpu_ms (fun () -> Checker.check schema r.Runtime.trace)
      in
      let alarms, t_monitor =
        cpu_ms (fun () ->
            let m = Monitor.create schema in
            Monitor.feed_trace m r.Runtime.trace)
      in
      Table.add_row t
        [
          Table.cell_i (Trace.length r.Runtime.trace);
          Table.cell_f t_build;
          Table.cell_f t_verdict;
          Table.cell_f t_monitor;
          Table.cell_i (Graph.n_edges g);
          string_of_bool (v.Checker.serially_correct && alarms = []);
        ])
    [ 4; 8; 16; 32; 64; 128 ];
  report t

(* ------------------------------------------------------------------ *)
(* E6: insensitivity to tree shape.                                    *)

let e6 () =
  let t =
    Table.create ~title:"E6: nesting depth/fanout sweep (Moss, registers)"
      ~columns:
        [ "depth"; "fanout"; "accesses"; "rounds"; "dlk_aborts"; "correct" ]
  in
  List.iter
    (fun depth ->
      List.iter
        (fun fanout ->
          let acc = ref [] and ro = ref [] and dl = ref [] in
          let all_correct = ref true in
          List.iter
            (fun seed ->
              let forest, schema =
                Gen.forest_and_schema Gen.registers ~seed
                  { Gen.default with n_top = 6; depth; fanout; n_objects = 4 }
              in
              let n_acc =
                List.fold_left
                  (fun n p -> n + List.length (Program.accesses p))
                  0 forest
              in
              acc := fi n_acc :: !acc;
              let r = run ~seed schema Moss_object.factory forest in
              ro := fi r.Runtime.stats.rounds :: !ro;
              dl := fi r.Runtime.stats.deadlock_aborts :: !dl;
              if not (Checker.serially_correct schema r.Runtime.trace) then
                all_correct := false)
            (seeds 4);
          Table.add_row t
            [
              Table.cell_i depth;
              Table.cell_i fanout;
              Table.cell_f (Stats.mean !acc);
              Table.cell_f (Stats.mean !ro);
              Table.cell_f (Stats.mean !dl);
              string_of_bool !all_correct;
            ])
        [ 1; 2; 4 ])
    [ 1; 2; 3; 4 ];
  report t

(* ------------------------------------------------------------------ *)
(* E7: discriminating power: detection of broken protocols.            *)

let e7 () =
  let t =
    Table.create ~title:"E7: detection rate of broken protocols"
      ~columns:[ "protocol"; "contention"; "aborts"; "rejected"; "of" ]
  in
  let case name factory ~hot ~abort_prob =
    let n = 30 in
    let rejected = ref 0 in
    for seed = 1 to n do
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed
          { Gen.default with n_top = 8; depth = 1;
            n_objects = (if hot then 1 else 8); read_ratio = 0.4 }
      in
      let r = run ~abort_prob ~seed schema factory forest in
      if not (Checker.serially_correct schema r.Runtime.trace) then
        incr rejected
    done;
    Table.add_row t
      [
        name;
        (if hot then "high" else "low");
        (if abort_prob > 0.0 then "yes" else "no");
        Table.cell_i !rejected;
        Table.cell_i n;
      ]
  in
  case "no_control" Broken.no_control ~hot:true ~abort_prob:0.0;
  case "no_control" Broken.no_control ~hot:false ~abort_prob:0.0;
  case "no_control" Broken.no_control ~hot:true ~abort_prob:0.1;
  case "unsafe_read" Broken.unsafe_read ~hot:true ~abort_prob:0.1;
  case "unsafe_read" Broken.unsafe_read ~hot:true ~abort_prob:0.0;
  case "no_undo" Broken.no_undo ~hot:true ~abort_prob:0.1;
  case "moss (control)" Moss_object.factory ~hot:true ~abort_prob:0.1;
  report t

(* ------------------------------------------------------------------ *)
(* E8: sufficiency, not necessity: access-level cycles on behaviors    *)
(* whose operation-level graph is acyclic and provably correct.        *)

let e8 () =
  let t =
    Table.create
      ~title:
        "E8: Section-4 (access-level) vs Section-6 (operation-level) graphs \
         on same-value-write workloads under undo logging"
      ~columns:
        [ "runs"; "acc_cyclic"; "op_cyclic"; "acc_cyc&op_acyc";
          "op_correct" ]
  in
  let n = 40 in
  let acc_cyc = ref 0 and op_cyc = ref 0 and gap = ref 0 and ok = ref 0 in
  for seed = 1 to n do
    (* All writes store the same value: distinct writers commute at the
       operation level but conflict at the access level. *)
    let rng = Rng.create seed in
    let x = Obj_id.make "x" in
    let forest =
      List.init 8 (fun _ ->
          Program.seq
            (List.init
               (1 + Rng.int rng 2)
               (fun _ ->
                 if Rng.int rng 4 = 0 then Program.access x Datatype.Read
                 else Program.access x (Datatype.Write (Value.Int 1)))))
    in
    let schema =
      Program.schema_of ~objects:[ (x, Register.make ~init:(Value.Int 1) ()) ]
        forest
    in
    let r = run ~seed schema Undo_object.factory forest in
    let beta = Trace.serial r.Runtime.trace in
    let g_acc = Sg.build Sg.Access_level schema beta in
    let g_op = Sg.build Sg.Operation_level schema beta in
    let ca = not (Graph.is_acyclic g_acc) in
    let co = not (Graph.is_acyclic g_op) in
    if ca then incr acc_cyc;
    if co then incr op_cyc;
    if ca && not co then incr gap;
    if Checker.serially_correct ~mode:Sg.Operation_level schema r.Runtime.trace
    then incr ok
  done;
  Table.add_row t
    [
      Table.cell_i n; Table.cell_i !acc_cyc; Table.cell_i !op_cyc;
      Table.cell_i !gap; Table.cell_i !ok;
    ];
  report t


(* ------------------------------------------------------------------ *)
(* E9: the boundary of the SG technique: multiversion timestamp        *)
(* behaviors are certified by Theorem 2 with the pseudotime order,     *)
(* while their serialization graphs can be cyclic and their returns    *)
(* violate the update-in-place hypothesis.                             *)

let e9 () =
  let t =
    Table.create
      ~title:
        "E9: MVTS vs the SG technique (Theorem 2 with pseudotime order)"
      ~columns:
        [ "runs"; "thm2_certified"; "sg_cyclic"; "not_appropriate";
          "thm8_applicable" ]
  in
  let n = 30 in
  let certified = ref 0 and cyclic = ref 0 and inappropriate = ref 0
  and thm8 = ref 0 in
  for seed = 1 to n do
    let forest, schema =
      Gen.forest_and_schema Gen.registers ~seed
        { Gen.default with n_top = 6; depth = 2; n_objects = 2 }
    in
    let r = run ~seed schema Mvts_object.factory forest in
    let beta = Trace.serial r.Runtime.trace in
    let order = Sibling_order.index_order beta in
    if Theorem2.holds schema order r.Runtime.trace then incr certified;
    let g = Sg.build Sg.Access_level schema beta in
    let acyclic = Graph.is_acyclic g in
    if not acyclic then incr cyclic;
    let appr = Return_values.appropriate_general schema beta in
    if not appr then incr inappropriate;
    if acyclic && appr then incr thm8
  done;
  Table.add_row t
    [
      Table.cell_i n; Table.cell_i !certified; Table.cell_i !cyclic;
      Table.cell_i !inappropriate; Table.cell_i !thm8;
    ];
  report t


(* ------------------------------------------------------------------ *)
(* E10: the three correct completion-order protocols side by side on   *)
(* every data-type family (M1_X only where the schema is read/write).  *)

let e10 () =
  let t =
    Table.create
      ~title:"E10: protocol comparison (BSP rounds / blocked / victim aborts)"
      ~columns:
        [ "workload"; "protocol"; "rounds"; "blocked"; "dlk_aborts";
          "committed"; "correct" ]
  in
  let protocols =
    [
      ("moss", Some Moss_object.factory);
      ("commlock", Some Commlock_object.factory);
      ("undo", Some Undo_object.factory);
    ]
  in
  let workloads =
    [
      ("registers", Gen.registers, true);
      ("counters", Gen.counters, false);
      ("mixed", Gen.mixed, false);
    ]
  in
  List.iter
    (fun (wname, gen, rw_ok) ->
      List.iter
        (fun (pname, factory) ->
          match factory with
          | Some factory when rw_ok || pname <> "moss" ->
              let ro = ref [] and bl = ref [] and dl = ref [] and co = ref [] in
              let all_correct = ref true in
              List.iter
                (fun seed ->
                  let forest, schema =
                    Gen.forest_and_schema gen ~seed
                      { Gen.default with n_top = 10; depth = 2; n_objects = 3 }
                  in
                  let r = run ~seed schema factory forest in
                  ro := fi r.Runtime.stats.rounds :: !ro;
                  bl := fi r.Runtime.stats.blocked_attempts :: !bl;
                  dl := fi r.Runtime.stats.deadlock_aborts :: !dl;
                  co := fi r.Runtime.committed_top :: !co;
                  if not (Checker.serially_correct schema r.Runtime.trace) then
                    all_correct := false)
                (seeds 5);
              Table.add_row t
                [
                  wname; pname;
                  Table.cell_f (Stats.mean !ro);
                  Table.cell_f (Stats.mean !bl);
                  Table.cell_f (Stats.mean !dl);
                  Table.cell_f (Stats.mean !co);
                  string_of_bool !all_correct;
                ]
          | _ -> ())
        protocols)
    workloads;
  report t


(* ------------------------------------------------------------------ *)
(* E11: quorum replication — one-copy correctness vs quorum choice     *)
(* (the paper's companion application [6], built on the framework).    *)

let e11 () =
  let t =
    Table.create
      ~title:
        "E11: quorum replication over 3 replicas (undo logging underneath)"
      ~columns:
        [ "read_q"; "write_q"; "intersecting"; "physical_ok"; "one_copy_ok";
          "of"; "events" ]
  in
  let lx = Obj_id.make "LX" and ly = Obj_id.make "LY" in
  let logical_forest seed n_txns =
    let rng = Rng.create seed in
    List.init n_txns (fun _ ->
        Program.seq
          (List.init
             (1 + Rng.int rng 3)
             (fun _ ->
               let x = if Rng.bool rng then lx else ly in
               if Rng.bool rng then Program.access x Datatype.Read
               else
                 Program.access x
                   (Datatype.Write (Value.Int (1 + Rng.int rng 9))))))
  in
  List.iter
    (fun (r, w) ->
      let config =
        { Replication.n_replicas = 3; read_quorum = r; write_quorum = w }
      in
      let n = 20 in
      let phys_ok = ref 0 and one_copy = ref 0 and events = ref [] in
      for seed = 1 to n do
        let plan =
          Replication.replicate config ~objects:[ lx; ly ]
            (logical_forest seed 6)
        in
        let res =
          Runtime.run ~policy:Runtime.Bsp_rounds ~top_comb:Program.Seq ~seed
            plan.Replication.physical_schema Undo_object.factory
            plan.Replication.physical_forest
        in
        if
          Checker.serially_correct plan.Replication.physical_schema
            res.Runtime.trace
        then incr phys_ok;
        (match Replication.check_one_copy plan res.Runtime.trace with
        | Ok () -> incr one_copy
        | Error _ -> ());
        events := fi res.Runtime.stats.actions :: !events
      done;
      Table.add_row t
        [
          Table.cell_i r; Table.cell_i w;
          string_of_bool (Replication.intersecting config);
          Table.cell_i !phys_ok; Table.cell_i !one_copy; Table.cell_i n;
          Table.cell_f (Stats.mean !events);
        ])
    [ (1, 3); (2, 2); (3, 1); (1, 1); (2, 1); (1, 2) ];
  report t


(* ------------------------------------------------------------------ *)
(* E12: ablation — sensitivity to completion-information latency.      *)
(* Lazy informs are delivered only when nothing else can move; every   *)
(* visibility- or inheritance-based protocol pays, and the cost shows  *)
(* where each protocol consults INFORM_COMMITs.                        *)

let e12 () =
  let t =
    Table.create
      ~title:"E12: eager vs lazy INFORM delivery (registers, BSP rounds)"
      ~columns:
        [ "protocol"; "informs"; "rounds"; "blocked"; "dlk_aborts"; "correct" ]
  in
  let case pname factory inform_policy iname =
    let ro = ref [] and bl = ref [] and dl = ref [] in
    let all_correct = ref true in
    List.iter
      (fun seed ->
        let forest, schema =
          Gen.forest_and_schema Gen.registers ~seed
            { Gen.default with n_top = 8; depth = 2; n_objects = 2 }
        in
        let r =
          Runtime.run ~policy:Runtime.Bsp_rounds ~inform_policy ~seed schema
            factory forest
        in
        ro := fi r.Runtime.stats.rounds :: !ro;
        bl := fi r.Runtime.stats.blocked_attempts :: !bl;
        dl := fi r.Runtime.stats.deadlock_aborts :: !dl;
        let ok =
          if pname = "mvts" then
            (* Multiversion serializes by pseudotime: Theorem 2. *)
            Theorem2.holds schema
              (Sibling_order.index_order (Trace.serial r.Runtime.trace))
              r.Runtime.trace
          else Checker.serially_correct schema r.Runtime.trace
        in
        if not ok then all_correct := false)
      (seeds 5);
    Table.add_row t
      [
        pname; iname;
        Table.cell_f (Stats.mean !ro);
        Table.cell_f (Stats.mean !bl);
        Table.cell_f (Stats.mean !dl);
        string_of_bool !all_correct;
      ]
  in
  List.iter
    (fun (pname, factory) ->
      case pname factory Runtime.Eager "eager";
      case pname factory Runtime.Lazy "lazy")
    [
      ("moss", Moss_object.factory);
      ("commlock", Commlock_object.factory);
      ("undo", Undo_object.factory);
      ("mvts", Mvts_object.factory);
    ];
  report t

(* ------------------------------------------------------------------ *)
(* obs: overhead of the observability layer.  Every run above uses the *)
(* default disabled recorder; this entry prices the alternatives by    *)
(* timing the same E1-style Moss campaign un-instrumented, with an     *)
(* enabled recorder draining to the null sink (metrics only), and with *)
(* full span events into an in-memory sink.                            *)

let obs () =
  let profile =
    { Gen.default with n_top = 32; depth = 2; fanout = 3; n_objects = 8 }
  in
  let cells =
    List.map
      (fun seed -> (seed, Gen.forest_and_schema Gen.registers ~seed profile))
      (seeds 4)
  in
  let campaign recorder =
    List.iter
      (fun (seed, (forest, schema)) ->
        ignore
          (Runtime.run ~policy:Runtime.Bsp_rounds ~obs:recorder ~seed schema
             Moss_object.factory forest))
      cells
  in
  (* Sys.time ticks at ~10 ms, far too coarse for these campaigns; use
     the wall clock, interleave the configurations within each rep, and
     judge overhead by the median of per-rep ratios against the same
     rep's baseline — pairing cancels machine-load drift, the median
     drops bursty outliers. *)
  let configs =
    [|
      (fun () -> campaign Obs.null);
      (fun () -> campaign (Obs.create ()));
      (fun () ->
        let sink, _events = Obs_sink.memory () in
        let recorder = Obs.create ~sink () in
        campaign recorder;
        Obs.close recorder);
    |]
  in
  let n_configs = Array.length configs in
  let reps = 60 in
  let samples = Array.make_matrix n_configs reps 0.0 in
  Array.iter (fun f -> f ()) configs;
  (* warm-up *)
  for r = 0 to reps - 1 do
    Array.iteri
      (fun i f ->
        (* Settle the previous sample's garbage outside the timed
           window, or each config pays for its predecessor's heap. *)
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        f ();
        samples.(i).(r) <- Unix.gettimeofday () -. t0)
      configs
  done;
  let median a =
    let b = Array.copy a in
    Array.sort compare b;
    b.(Array.length b / 2)
  in
  let ms i = median samples.(i) *. 1000.0 in
  let overhead i =
    let ratios =
      Array.init reps (fun r -> samples.(i).(r) /. samples.(0).(r))
    in
    (median ratios -. 1.0) *. 100.0
  in
  let t =
    Table.create
      ~title:
        "obs: recorder overhead on E1-style Moss runs (median of 60 paired \
         reps)"
      ~columns:[ "configuration"; "ms"; "overhead_pct" ]
  in
  let row name i =
    Table.add_row t [ name; Table.cell_f (ms i); Table.cell_f (overhead i) ]
  in
  row "uninstrumented (Obs.null)" 0;
  row "metrics only (null sink)" 1;
  row "full spans (memory sink)" 2;
  report t

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the core operations.                   *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  (* A fixed mid-size behavior to measure against. *)
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:21
      { Gen.default with n_top = 16; depth = 2; n_objects = 4 }
  in
  let r = run ~seed:21 schema Moss_object.factory forest in
  let beta = Trace.serial r.Runtime.trace in
  let tests =
    [
      Test.make ~name:"visible(beta,T0)"
        (Staged.stage (fun () -> Trace.visible beta ~to_:Txn_id.root));
      Test.make ~name:"clean(beta)" (Staged.stage (fun () -> Trace.clean beta));
      Test.make ~name:"conflict(beta)"
        (Staged.stage (fun () ->
             Conflict.relation Conflict.Access_level schema beta));
      Test.make ~name:"precedes(beta)"
        (Staged.stage (fun () -> Precedes.relation beta));
      Test.make ~name:"SG(beta)"
        (Staged.stage (fun () -> Sg.build Sg.Access_level schema beta));
      Test.make ~name:"full Theorem-8 verdict"
        (Staged.stage (fun () -> Checker.check schema r.Runtime.trace));
      Test.make ~name:"moss run (16 txns)"
        (Staged.stage (fun () ->
             run ~seed:21 schema Moss_object.factory forest));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let t =
    Table.create ~title:"micro: core operations (bechamel, monotonic clock)"
      ~columns:[ "operation"; "ns/run"; "r^2" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> e
        | _ -> Float.nan
      in
      let r2 = Option.value ~default:Float.nan (Analyze.OLS.r_square ols) in
      rows := (name, est, r2) :: !rows)
    results;
  List.iter
    (fun (name, est, r2) ->
      Table.add_row t [ name; Printf.sprintf "%.0f" est; Table.cell_f r2 ])
    (List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows);
  report t

(* ------------------------------------------------------------------ *)
(* E16: monitor cost, incremental vs recompute-per-edge detection.     *)

(* The online monitor routes every SG insertion through the
   Pearce-Kelly incremental detector ([Graph.add_edge_checked]).  This
   experiment isolates that choice: the same edge sequence is replayed
   (a) through the incremental detector and (b) through the
   pre-incremental regime — insert, then decide acyclicity with a
   from-scratch DFS ([Graph.find_cycle_scratch]), the O(E) work the
   old core repeated per edge.  [monitor_ms] is the full online
   monitor over the trace (visibility + replay + detection);
   [reorder_ops] counts how often an insertion actually disturbed the
   maintained order. *)
let e16 () =
  let t =
    Table.create ~title:"E16: monitor detection, incremental vs recompute"
      ~columns:
        [ "events"; "sg_edges"; "monitor_ms"; "inc_ms"; "scratch_ms";
          "reorder_ops" ]
  in
  List.iter
    (fun n_top ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed:11
          { Gen.default with n_top; depth = 2; n_objects = 8 }
      in
      let r = run ~seed:11 schema Moss_object.factory forest in
      let m, t_monitor =
        cpu_ms (fun () ->
            let m = Monitor.create ~hold:(fun _ -> true) schema in
            ignore (Monitor.feed_trace m r.Runtime.trace);
            m)
      in
      let edges = Graph.edges (Monitor.graph m) in
      let g_inc, t_inc =
        cpu_ms (fun () ->
            let g = Graph.create () in
            List.iter
              (fun (a, b) -> ignore (Graph.add_edge_checked g a b ()))
              edges;
            g)
      in
      let _, t_scratch =
        cpu_ms (fun () ->
            let g = Graph.create () in
            List.iter
              (fun (a, b) ->
                Graph.add_edge g a b ();
                ignore (Graph.find_cycle_scratch g))
              edges)
      in
      Table.add_row t
        [
          Table.cell_i (Trace.length r.Runtime.trace);
          Table.cell_i (List.length edges);
          Table.cell_f t_monitor;
          Table.cell_f t_inc;
          Table.cell_f t_scratch;
          Table.cell_i (Graph.reorders g_inc);
        ])
    [ 4; 8; 16; 32; 64; 128 ];
  report t

(* ------------------------------------------------------------------ *)
(* E17: serving overhead — open-loop Engine vs closed-loop Runtime,    *)
(* and the wire codec's round-trip cost.                               *)

(* The same forest is executed three ways: the closed-loop
   [Runtime.run] baseline, the open-loop [Engine] with the admission
   gate off (isolating the stepper + always-on monitor), and the
   Engine with the gate on (adding the commit-time speculation).
   [wire_us] is one full client round trip through the codec —
   encode a Submit, reassemble it through a Reader, decode it, then
   the same for the State response — measured standalone. *)
let e17 () =
  let t =
    Table.create ~title:"E17: serving overhead (engine and wire)"
      ~columns:
        [ "n_top"; "actions"; "run_ms"; "engine_ms"; "gated_ms"; "vetoes";
          "wire_us" ]
  in
  let wire_us =
    let submit =
      Wire.Submit
        {
          program = "(seq (access r0 read) (access r1 (write 42)))";
          req = Some "bench-1";
        }
    in
    let state =
      Wire.State
        {
          txn = Txn_id.of_path [ 3 ];
          state = Wire.Committed "[(true, ok)]";
          req = Some "bench-1";
        }
    in
    let n = 20_000 in
    let _, ms =
      cpu_ms (fun () ->
          for _ = 1 to n do
            let r = Wire.Reader.create () in
            Wire.Reader.feed r (Wire.encode_request submit);
            (match Wire.Reader.next r with
            | Ok (Some p) -> ignore (Wire.decode_request p)
            | _ -> assert false);
            Wire.Reader.feed r (Wire.encode_response state);
            match Wire.Reader.next r with
            | Ok (Some p) -> ignore (Wire.decode_response p)
            | _ -> assert false
          done)
    in
    ms *. 1000.0 /. fi n
  in
  List.iter
    (fun n_top ->
      let rng = Rng.create 11 in
      let forest, objects =
        Gen.registers rng { Gen.default with n_top; depth = 2; n_objects = 8 }
      in
      let schema = Program.schema_of ~objects forest in
      let r, t_run =
        cpu_ms (fun () -> run ~seed:11 schema Moss_object.factory forest)
      in
      let open_loop ~admission () =
        let eng =
          Engine.create ~policy:Runtime.Bsp_rounds ~admission ~seed:11 objects
            Moss_object.factory
        in
        serve_open_loop eng forest;
        ignore (Engine.finish eng);
        eng
      in
      let _, t_engine = cpu_ms (open_loop ~admission:false) in
      let gated, t_gated = cpu_ms (open_loop ~admission:true) in
      Table.add_row t
        [
          Table.cell_i n_top;
          Table.cell_i r.Runtime.stats.actions;
          Table.cell_f t_run;
          Table.cell_f t_engine;
          Table.cell_f t_gated;
          Table.cell_i (Engine.vetoed gated);
          Table.cell_f wire_us;
        ])
    [ 8; 16; 32; 64 ];
  report t

(* ------------------------------------------------------------------ *)
(* E18: telemetry overhead and window fidelity.                        *)

(* The e17 open-loop engine run in three serving configurations:
   [bare_ms] with no recorder at all (e17's own engine columns),
   [plain_ms] with the metrics-only recorder ntserved has always run
   (the PR-5 serving baseline), and [telem_ms] with the full telemetry
   stack live on top of that — the completion hook observing
   latencies, the hub ranking hot objects off [runtime.refused.*]
   counter deltas (no event stream), and a Telemetry frame cut +
   encoded every 8 submissions (a busy subscriber).  [overhead_pct] is
   telem against plain — what this PR adds to a serving engine — and
   the acceptance bar is 3% at the largest size.  The per-8-submission
   cadence is ~1000x harsher than the 1s production interval, so at
   the small sizes (sub-2ms runs) the fixed ~50us cost of a frame cut
   dominates the percentage; the absolute cost is the same.  Window fidelity: the p99 of the
   latency histogram merged back out of the cut frames must land
   within one power-of-two bucket of the p99 of the cumulative
   histogram fed by the same hook ([bucket_dist] — this is what
   [ntload --subscribe] checks over a real socket). *)
let e18 () =
  let t =
    Table.create ~title:"E18: telemetry overhead and window fidelity"
      ~columns:
        [ "n_top"; "bare_ms"; "plain_ms"; "telem_ms"; "overhead_pct";
          "frames"; "frame_bytes"; "p99_cum_us"; "p99_win_us";
          "bucket_dist" ]
  in
  (* Registry and hub construction on the telemetry side stay outside
     the timed region, as engine construction does on the other two. *)
  let timed_serve eng forest =
    snd
      (cpu_ms (fun () ->
           serve_open_loop eng forest;
           ignore (Engine.finish eng)))
  in
  List.iter
    (fun n_top ->
      let rng = Rng.create 11 in
      let forest, objects =
        Gen.registers rng { Gen.default with n_top; depth = 2; n_objects = 8 }
      in
      let frames = ref [] and frame_bytes = ref 0 in
      let last_metrics = ref (Metrics.create ()) in
      let best =
        best_of 7
          [|
            (fun () ->
              let eng =
                Engine.create ~policy:Runtime.Bsp_rounds ~admission:true
                  ~seed:11 objects Moss_object.factory
              in
              timed_serve eng forest);
            (fun () ->
              let eng =
                Engine.create ~policy:Runtime.Bsp_rounds ~admission:true
                  ~obs:(Obs.create ~metrics:(Metrics.create ()) ())
                  ~seed:11 objects Moss_object.factory
              in
              timed_serve eng forest);
            (fun () ->
              let metrics = Metrics.create () in
              last_metrics := metrics;
              let hub = Telemetry.Hub.create ~interval_s:1.0 metrics in
              frames := [];
              frame_bytes := 0;
              let obs = Obs.create ~metrics () in
              let submit_at = Hashtbl.create 256 in
              let eng =
                Engine.create ~policy:Runtime.Bsp_rounds ~admission:true ~obs
                  ~on_top_complete:(fun u _ ->
                    match Hashtbl.find_opt submit_at (Txn_id.to_string u) with
                    | None -> ()
                    | Some t0 ->
                        Telemetry.Hub.observe_latency hub
                          (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
                  ~seed:11 objects Moss_object.factory
              in
              let cut () =
                let f =
                  Telemetry.Hub.cut hub
                    ~counts:(Engine.stats eng)
                    ~alarms:(Engine.alarms eng)
                    ~conns:1 ~subscribers:1 ~now:0.0
                in
                frames := f :: !frames;
                frame_bytes :=
                  !frame_bytes
                  + String.length (Wire.encode_response (Wire.Telemetry f))
              in
              snd
                (cpu_ms (fun () ->
                     serve_open_loop eng forest
                       ~on_submit:(fun txn ->
                         Hashtbl.replace submit_at (Txn_id.to_string txn)
                           (Unix.gettimeofday ()))
                       ~after_step:(fun i -> if (i + 1) mod 8 = 0 then cut ());
                     cut ();
                     ignore (Engine.finish eng))));
          |]
      in
      let t_bare, t_plain, t_telem = (best.(0), best.(1), best.(2)) in
      (* merge the windowed histograms back out of the frames *)
      let buckets = Array.make 64 0 in
      let count = ref 0 and maxv = ref 0 in
      List.iter
        (fun (f : Wire.telemetry) ->
          let h = f.Wire.w_latency in
          count := !count + h.Wire.h_count;
          if h.Wire.h_max > !maxv then maxv := h.Wire.h_max;
          List.iter
            (fun (i, n) -> buckets.(i) <- buckets.(i) + n)
            h.Wire.h_buckets)
        !frames;
      let p99_win = Metrics.quantile buckets ~count:!count ~max:!maxv 0.99 in
      let cum =
        Metrics.histogram_stats
          (Metrics.histogram !last_metrics "served.latency_us")
      in
      Table.add_row t
        [
          Table.cell_i n_top;
          Table.cell_f t_bare;
          Table.cell_f t_plain;
          Table.cell_f t_telem;
          Table.cell_f ((t_telem -. t_plain) /. t_plain *. 100.0);
          Table.cell_i (List.length !frames);
          Table.cell_i !frame_bytes;
          Table.cell_i cum.Metrics.p99;
          Table.cell_i p99_win;
          Table.cell_i
            (abs (Metrics.bucket_of p99_win - Metrics.bucket_of cum.Metrics.p99));
        ])
    [ 8; 16; 32; 64 ];
  report t

(* ------------------------------------------------------------------ *)
(* E19: stage-tracing overhead.                                        *)

(* The e18 telemetry configuration run twice: [base_ms] is the PR-6
   serving baseline (metrics recorder + hub, completion hook observing
   e2e latencies), [traced_ms] adds everything the flight recorder
   costs per request: the engine's stage_times bookkeeping (a clock
   read per submit / scheduler-create / gate consultation /
   completion), seven per-stage hub observations, and seven ring
   records — the same per-request span count ntserved produces.  The
   same interleaved best-of-7 discipline as e18, and the same bar:
   [overhead_pct] (traced against base) must stay under 3% at the
   largest size.  [dump_ms] prices one full-ring JSONL dump (the
   anomaly path — off the per-request path entirely); [ring_spans] is
   what the dump carried. *)
let e19 () =
  let t =
    Table.create ~title:"E19: stage-tracing overhead (flight recorder)"
      ~columns:
        [ "n_top"; "base_ms"; "traced_ms"; "overhead_pct"; "ring_spans";
          "dump_ms"; "dump_bytes" ]
  in
  let timed f = snd (cpu_ms f) in
  List.iter
    (fun n_top ->
      let rng = Rng.create 13 in
      let forest, objects =
        Gen.registers rng { Gen.default with n_top; depth = 2; n_objects = 8 }
      in
      let ring = ref None and dump_ms = ref 0.0 and dump_bytes = ref 0 in
      let base () =
        let metrics = Metrics.create () in
        let hub = Telemetry.Hub.create ~interval_s:1.0 metrics in
        let obs = Obs.create ~metrics () in
        let submit_at = Hashtbl.create 256 in
        let eng =
          Engine.create ~policy:Runtime.Bsp_rounds ~admission:true ~obs
            ~on_top_complete:(fun u _ ->
              match Hashtbl.find_opt submit_at (Txn_id.to_string u) with
              | None -> ()
              | Some t0 ->
                  Telemetry.Hub.observe_latency hub
                    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)))
            ~seed:13 objects Moss_object.factory
        in
        timed (fun () ->
            serve_open_loop eng forest ~on_submit:(fun txn ->
                Hashtbl.replace submit_at (Txn_id.to_string txn)
                  (Unix.gettimeofday ()));
            ignore (Engine.finish eng))
      in
      let traced () =
        let metrics = Metrics.create () in
        let hub = Telemetry.Hub.create ~interval_s:1.0 metrics in
        let obs = Obs.create ~metrics () in
        let submit_at = Hashtbl.create 256 in
        let recorder = Stage.Recorder.create ~capacity:4096 in
        ring := Some recorder;
        let bench_t0 = Unix.gettimeofday () in
        let clock () = Unix.gettimeofday () -. bench_t0 in
        let span stage t0 t1 =
          let sp =
            {
              Stage.sp_stage = stage;
              sp_req = Some "bench";
              sp_txn = None;
              sp_conn = 1;
              sp_t0 = t0;
              sp_t1 = t1;
            }
          in
          Telemetry.Hub.observe_stage hub stage (Stage.dur_us sp);
          Stage.Recorder.record recorder sp
        in
        let eng_cell = ref None in
        let eng =
          Engine.create ~policy:Runtime.Bsp_rounds ~admission:true ~obs ~clock
            ~on_top_complete:(fun u _ ->
              (match Hashtbl.find_opt submit_at (Txn_id.to_string u) with
              | None -> ()
              | Some t0 ->
                  Telemetry.Hub.observe_latency hub
                    (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6)));
              match Option.get !eng_cell with
              | eng -> (
                  match Engine.stage_times eng u with
                  | None -> ()
                  | Some st ->
                      span "execute" st.Engine.st_start st.Engine.st_complete;
                      span "gate"
                        (st.Engine.st_complete -. st.Engine.st_gate)
                        st.Engine.st_complete))
            ~seed:13 objects Moss_object.factory
        in
        eng_cell := Some eng;
        timed (fun () ->
            List.iter
              (fun p ->
                (* the five spans ntserved records around a submission
                   (read/decode before, validate/admit at, reply after) *)
                let t_r0 = clock () in
                let t_r1 = clock () in
                span "read" t_r0 t_r1;
                span "decode" t_r1 (clock ());
                let t_v0 = clock () in
                (match Engine.submit eng p with
                | Ok txn ->
                    Hashtbl.replace submit_at (Txn_id.to_string txn)
                      (Unix.gettimeofday ())
                | Error e -> failwith e);
                let t_v1 = clock () in
                span "validate" t_v0 t_v1;
                span "admit" t_v0 t_v1;
                ignore (Engine.step eng);
                span "reply" t_v1 (clock ()))
              forest;
            (match Engine.drain eng with
            | `Quiescent -> ()
            | _ -> failwith "engine did not quiesce");
            ignore (Engine.finish eng))
      in
      let best = best_of 7 [| base; traced |] in
      let t_base, t_traced = (best.(0), best.(1)) in
      (match !ring with
      | None -> ()
      | Some recorder ->
          let oc_path = Filename.temp_file "e19" ".jsonl" in
          dump_ms :=
            timed (fun () ->
                let oc = open_out oc_path in
                ignore
                  (Stage.Recorder.dump_jsonl recorder ~reason:"bench" ~now:0.0
                     oc);
                close_out oc);
          dump_bytes := (Unix.stat oc_path).Unix.st_size;
          Sys.remove oc_path);
      Table.add_row t
        [
          Table.cell_i n_top;
          Table.cell_f t_base;
          Table.cell_f t_traced;
          Table.cell_f ((t_traced -. t_base) /. t_base *. 100.0);
          Table.cell_i
            (match !ring with
            | Some r -> Stage.Recorder.size r
            | None -> 0);
          Table.cell_f !dump_ms;
          Table.cell_i !dump_bytes;
        ])
    [ 8; 16; 32; 64 ];
  report t

(* The price of durability, and what group commit buys back.  Each
   size first serves its workload once through a buffer-sink writer
   following ntserved's logging discipline — a Submit record before
   every submission, coalesced Steps after every engine turn,
   buffered Outcomes behind them — so the record stream (mix, sizes,
   outcome placement) is exactly what a durable serve appends.  The
   timed subject is then the log path alone: appending that fixed
   stream to a real file under each sync policy.  [unbatched_ms] is
   [--fsync-batch 1] (a sync per record, the durability ceiling);
   [batched_ms] is [--fsync-batch 64].  Engine compute is identical
   across policies, so it is kept out of the measurement rather than
   letting it dilute the number group commit is meant to move.  The
   batch bounds the window of acknowledged-but-volatile records at 64,
   and the speedup at n_top = 64 is the headline number CI asserts
   (>= 5x on disk-backed storage).  Interleaved best-of-5: fsync
   times are noisy, batching's effect is not. *)
let e20 () =
  let t =
    Table.create ~title:"E20: WAL group commit (fsync batching)"
      ~columns:
        [ "n_top"; "records"; "kbytes"; "unbatched_ms"; "unbatched_syncs";
          "batched_ms"; "batched_syncs"; "speedup" ]
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    f ();
    (Unix.gettimeofday () -. t0) *. 1000.0
  in
  let write_all fd s =
    let rec go off =
      if off < String.length s then
        go (off + Unix.write_substring fd s off (String.length s - off))
    in
    go 0
  in
  List.iter
    (fun n_top ->
      let rng = Rng.create 29 in
      let forest, objects =
        Gen.registers rng { Gen.default with n_top; depth = 2; n_objects = 8 }
      in
      (* serve once through a buffer sink: the stream a durable serve
         of this workload appends, in order *)
      let stream =
        let buf = Buffer.create 4096 in
        let w =
          Wal.Writer.create ~base_seq:0 ~on_sync:ignore (Wal.buffer_sink buf)
        in
        let eng =
          Engine.create ~policy:Runtime.Bsp_rounds ~admission:true
            ~on_top_complete:(fun u outcome ->
              Wal.Writer.note_outcome w ~txn:u
                (match outcome with
                | `Committed -> Wal.Committed "bench"
                | `Aborted -> Wal.Aborted None))
            ~seed:29 objects Moss_object.factory
        in
        let last = ref (Engine.step_calls eng) in
        let cut () =
          let n = Engine.step_calls eng - !last in
          last := !last + n;
          Wal.Writer.log_steps w n
        in
        List.iter
          (fun p ->
            Wal.Writer.append w
              (Wal.Submit
                 {
                   req = None;
                   client = "bench";
                   program = Program_io.program_to_string p;
                 });
            (match Engine.submit eng p with
            | Ok _ -> ()
            | Error e -> failwith e);
            ignore (Engine.step eng);
            cut ())
          forest;
        (match Engine.drain eng with
        | `Quiescent -> ()
        | _ -> failwith "engine did not quiesce");
        cut ();
        Wal.Writer.flush w;
        ignore (Engine.finish eng);
        match Wal.scan ~magic:Wal.wal_magic (Buffer.contents buf) with
        | Ok sc when sc.Wal.sc_tail = Wal.Clean -> sc.Wal.sc_records
        | Ok _ -> failwith "recorded stream has a torn tail"
        | Error e -> failwith e
      in
      let records = ref 0 and bytes = ref 0 in
      (* append the fixed stream to a real file under one sync policy *)
      let run fsync_batch =
        let path = Filename.temp_file "e20" ".wal" in
        let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let sink =
          { Wal.write = write_all fd; sync = (fun () -> Unix.fsync fd) }
        in
        let w =
          Wal.Writer.create ~fsync_batch ~base_seq:0 ~on_sync:ignore sink
        in
        let ms =
          timed (fun () ->
              List.iter (Wal.Writer.append w) stream;
              Wal.Writer.flush w)
        in
        records := Wal.Writer.appended w;
        bytes := Wal.Writer.bytes_written w;
        let syncs = Wal.Writer.syncs w in
        Unix.close fd;
        Sys.remove path;
        (ms, syncs)
      in
      (* a policy's sync count is a function of the fixed stream, so
         every sample reports the same one *)
      let s1 = ref 0 and s64 = ref 0 in
      let sample batch syncs () =
        let ms, n = run batch in
        syncs := n;
        ms
      in
      let best = best_of 5 [| sample 1 s1; sample 64 s64 |] in
      let t1, t64 = (best.(0), best.(1)) and s1, s64 = (!s1, !s64) in
      Table.add_row t
        [
          Table.cell_i n_top;
          Table.cell_i !records;
          Table.cell_f (float_of_int !bytes /. 1024.0);
          Table.cell_f t1;
          Table.cell_i s1;
          Table.cell_f t64;
          Table.cell_i s64;
          Table.cell_f (t1 /. t64);
        ])
    [ 8; 16; 32; 64 ];
  report t

(* ------------------------------------------------------------------ *)
(* E21: detection rates of the weak-isolation adversaries, per oracle. *)

(* 200-run sweeps per backend x grammar.  Each completed run is judged
   independently by every oracle: the serial-correctness checker, the
   three SG cycle detectors (via [Check.sg_agreement]), and the ESSN
   refined criterion.  [essn_only] counts ESSN rejections whose SG is
   acyclic with zero monitor alarms — the anomaly class cycle alarms
   alone cannot see (stale snapshot reads whose edges all point one
   way).  Undo and mvts ride along as controls: every oracle must
   accept all 200 of their runs (the CI job fails on any verified-
   backend false positive). *)
let e21 () =
  let t =
    Table.create
      ~title:"E21: weak-isolation detection rates (200 runs, per oracle)"
      ~columns:
        [ "backend"; "grammar"; "runs"; "not_correct"; "sg_cyclic"; "alarmed";
          "essn_rej"; "essn_only" ]
  in
  List.iter
    (fun (backend, grammar) ->
      let master = Rng.create 97 in
      let n = ref 0 and not_correct = ref 0 and cyclic = ref 0 in
      let alarmed = ref 0 and essn_rej = ref 0 and essn_only = ref 0 in
      for _ = 1 to 200 do
        let rng = Rng.split master in
        let sc = Check.gen_scenario ?grammar backend rng in
        let o = Check.run_scenario backend sc in
        if not o.Check.truncated then begin
          incr n;
          let schema =
            match backend with
            | Check.Replication ->
                let plan =
                  Replication.replicate Check.replication_config
                    ~objects:(List.map fst sc.Check.objects)
                    sc.Check.forest
                in
                plan.Replication.physical_schema
            | _ -> Check.schema_of_scenario sc
          in
          if not (Checker.serially_correct schema o.Check.trace) then
            incr not_correct;
          let a = Check.sg_agreement schema o.Check.trace in
          if not a.Check.checker_acyclic then incr cyclic;
          if a.Check.cycle_alarms > 0 then incr alarmed;
          let v = Essn.check schema o.Check.trace in
          if not v.Essn.essn_ok then begin
            incr essn_rej;
            if a.Check.checker_acyclic && a.Check.cycle_alarms = 0 then
              incr essn_only
          end
        end
      done;
      Table.add_row t
        [
          Check.backend_name backend;
          (match grammar with
          | Some g -> Check.grammar_name g
          | None -> "default");
          Table.cell_i !n;
          Table.cell_i !not_correct;
          Table.cell_i !cyclic;
          Table.cell_i !alarmed;
          Table.cell_i !essn_rej;
          Table.cell_i !essn_only;
        ])
    [
      (Check.Moss, Some Check.Smallbank);
      (Check.Commlock, Some Check.Smallbank);
      (Check.Undo, Some Check.Smallbank);
      (Check.Replication, Some Check.Smallbank);
      (Check.Mvts, Some Check.Smallbank);
      (Check.Causal_only, Some Check.Smallbank);
      (Check.Prefix_consistent, Some Check.Smallbank);
      (Check.Snapshot_read, Some Check.Smallbank);
      (Check.Causal_only, None);
      (Check.Prefix_consistent, None);
      (Check.Snapshot_read, None);
    ];
  report t

(* ------------------------------------------------------------------ *)
(* E22: sharded serving speedup on a shard-local smallbank.            *)

(* The live [Shard_service] — one engine per domain — against itself at
   one shard, on a workload built to be embarrassingly parallel:
   accounts are grouped by the 4-shard partition's own placement, and
   every transfer draws all its accounts from one group, so the router
   classifies every program single-shard and the spine's cross-shard
   gate never runs.  What is measured is therefore the parallelism of
   the engines themselves plus the router/mailbox dispatch overhead.
   [speedup] is wall-clock (not CPU) ratio of the 1-shard run to the
   4-shard run, best of two runs each; [cores] is the runtime's
   recommended domain count — on a single-core box the 4-shard row
   degrades to time-slicing and the speedup column reports overhead,
   which is why the acceptance bar (>= 2x at 4 shards) is gated on
   [cores >= 4] in CI. *)
let e22 () =
  let t =
    Table.create ~title:"E22: sharded serving speedup (shard-local smallbank)"
      ~columns:
        [ "shards"; "cores"; "parallel"; "n_prog"; "cross"; "wall_ms";
          "txn_per_s"; "speedup" ]
  in
  let n_objects = 64 and n_prog = 200 and shards = 4 in
  let objects =
    List.init n_objects (fun i -> (Obj_id.indexed "acct" i, Register.make ()))
  in
  (* group accounts by their 4-shard home (same default key as the
     service's own partition, so the grouping below is its placement) *)
  let part = Partition.create ~shards objects in
  let groups = Array.make shards [||] in
  for s = 0 to shards - 1 do
    groups.(s) <-
      Array.of_list
        (List.filter_map
           (fun (x, _) ->
             if Partition.shard_of part x = s then Some x else None)
           objects)
  done;
  let rng = Rng.create 7 in
  let progs =
    List.init n_prog (fun i ->
        let g = groups.(i mod shards) in
        let pick () = g.(Rng.int rng (Array.length g)) in
        let a = pick () and b = pick () and c = pick () and d = pick () in
        Program.seq
          [
            Program.par
              [
                Program.access a Datatype.Read;
                Program.access b Datatype.Read;
              ];
            Program.par
              [
                Program.access a (Datatype.Write (Value.Int i));
                Program.access b (Datatype.Write (Value.Int (i + 1)));
              ];
            Program.par
              [
                Program.access c Datatype.Read;
                Program.access d Datatype.Read;
              ];
          ])
  in
  (* Open loop with a bounded in-flight window: an unbounded flood
     would park thousands of live transactions in each engine and
     measure the scheduler's occupancy pathology instead of the
     dispatch path. *)
  let run_once n =
    let window = 16 * n in
    let svc =
      Shard_service.start ~shards:n ~seed:11 objects
        (Check.factory_of Check.Undo)
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun p ->
        while Shard_service.pending svc >= window do
          Unix.sleepf 0.0001
        done;
        match Shard_service.submit svc p with
        | Ok _ -> ()
        | Error e -> failwith e)
      progs;
    while Shard_service.pending svc > 0 do
      Unix.sleepf 0.0002
    done;
    let wall = (Unix.gettimeofday () -. t0) *. 1000.0 in
    let cross = Shard_router.cross_count (Shard_service.router svc) in
    Shard_service.stop svc;
    let r, _, _ = Shard_service.finish svc in
    if r.Runtime.committed_top + r.Runtime.aborted_top <> n_prog then
      failwith "e22: not all submissions completed";
    (wall, cross)
  in
  let best n =
    let w1, c1 = run_once n in
    let w2, _ = run_once n in
    (Float.min w1 w2, c1)
  in
  let base, _ = best 1 in
  let multi, cross = best shards in
  if cross <> 0 then failwith "e22: workload was meant to be shard-local";
  let cores = Domain_compat.recommended_worker_count () in
  let row n wall speedup =
    Table.add_row t
      [
        Table.cell_i n;
        Table.cell_i cores;
        string_of_bool Domain_compat.parallelism_available;
        Table.cell_i n_prog;
        Table.cell_i cross;
        Table.cell_f wall;
        Table.cell_f (fi n_prog /. (wall /. 1000.0));
        Table.cell_f speedup;
      ]
  in
  row 1 base 1.0;
  row shards multi (base /. multi);
  report t

(* ------------------------------------------------------------------ *)

let all =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11); ("e12", e12);
    ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20);
    ("e21", e21); ("e22", e22);
    ("obs", obs);
    ("micro", micro);
  ]

let () =
  let json_out = ref None in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--json" :: path :: rest ->
        json_out := Some path;
        parse acc rest
    | [ "--json" ] ->
        Format.eprintf "--json requires a file argument@.";
        exit 2
    | name :: rest -> parse (name :: acc) rest
  in
  let requested =
    match parse [] (List.tl (Array.to_list Sys.argv)) with
    | [] -> List.map fst all
    | names -> names
  in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f ->
          f ();
          print_newline ()
      | None ->
          Format.eprintf "unknown experiment %S (have: %s)@." name
            (String.concat ", " (List.map fst all));
          exit 2)
    requested;
  match !json_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Obs_json.output oc (Obs_json.Arr (List.rev_map Table.to_json !emitted));
      output_char oc '\n';
      close_out oc;
      Format.printf "wrote %d table(s) to %s@." (List.length !emitted) path
