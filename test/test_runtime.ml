open Core
open Util

let t_quiescence_and_counts () =
  (* Contention-free workload (disjoint objects): exact counts hold. *)
  let z0 = Obj_id.make "z" in
  let forest =
    [
      Program.seq
        [ Program.access x0 Datatype.Read; Program.access x0 (Datatype.Write (Value.Int 1)) ];
      Program.seq [ Program.access y0 Datatype.Read ];
      Program.seq
        [ Program.access z0 (Datatype.Write (Value.Int 3)); Program.access z0 Datatype.Read ];
    ]
  in
  let schema =
    Program.schema_of
      ~objects:
        [ (x0, Register.make ()); (y0, Register.make ()); (z0, Register.make ()) ]
      forest
  in
  let r = run_protocol ~seed:1 schema Moss_object.factory forest in
  check_bool "not truncated" false r.Runtime.stats.truncated;
  check_int "all top committed" 3 r.Runtime.committed_top;
  check_int "none aborted" 0 r.Runtime.aborted_top;
  check_int "no deadlock aborts" 0 r.Runtime.stats.deadlock_aborts;
  check_int "trace length = actions" r.Runtime.stats.actions
    (Trace.length r.Runtime.trace);
  (* Every access response appears exactly once. *)
  let responses =
    Array.to_list r.Runtime.trace
    |> List.filter (fun a ->
           match a with
           | Action.Request_commit (t, _) -> System_type.is_access schema.Schema.sys t
           | _ -> false)
  in
  check_int "five accesses" 5 (List.length responses)

let t_determinism () =
  let forest, schema = rw_pair () in
  let r1 = run_protocol ~seed:7 schema Moss_object.factory forest in
  let r2 = run_protocol ~seed:7 schema Moss_object.factory forest in
  check_bool "same seed, same trace" true
    (Trace.to_list r1.Runtime.trace = Trace.to_list r2.Runtime.trace);
  let r3 = run_protocol ~seed:8 schema Moss_object.factory forest in
  check_bool "different seed, different trace (very likely)" true
    (Trace.to_list r1.Runtime.trace <> Trace.to_list r3.Runtime.trace)

let t_bsp_fewer_rounds () =
  (* BSP rounds exploit concurrency: rounds are far fewer than actions. *)
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:3
      { Gen.default with n_top = 8; depth = 1; n_objects = 8; read_ratio = 1.0 }
  in
  let r = run_protocol ~policy:Runtime.Bsp_rounds ~seed:3 schema Moss_object.factory forest in
  check_bool "rounds < actions / 2" true
    (r.Runtime.stats.rounds * 2 < r.Runtime.stats.actions);
  check_bool "still correct" true (Checker.serially_correct schema r.Runtime.trace)

let t_deadlock_broken () =
  (* Two transactions that write x,y in opposite orders under Moss can
     deadlock; the runtime must always terminate, aborting victims as
     needed, and stay serially correct. *)
  let forest =
    [
      Program.seq
        [
          Program.access x0 (Datatype.Write (Value.Int 1));
          Program.access y0 (Datatype.Write (Value.Int 1));
        ];
      Program.seq
        [
          Program.access y0 (Datatype.Write (Value.Int 2));
          Program.access x0 (Datatype.Write (Value.Int 2));
        ];
    ]
  in
  let schema =
    Program.schema_of
      ~objects:[ (x0, Register.make ()); (y0, Register.make ()) ]
      forest
  in
  let saw_deadlock = ref false and saw_cycle = ref false in
  for seed = 1 to 40 do
    let r = run_protocol ~seed schema Moss_object.factory forest in
    check_bool "terminates" false r.Runtime.stats.truncated;
    if r.Runtime.stats.deadlock_aborts > 0 then saw_deadlock := true;
    if r.Runtime.stats.deadlock_cycles > 0 then saw_cycle := true;
    check_bool "cycles bounded by aborts" true
      (r.Runtime.stats.deadlock_cycles <= r.Runtime.stats.deadlock_aborts);
    check_bool "correct despite deadlock handling" true
      (Checker.serially_correct schema r.Runtime.trace)
  done;
  check_bool "deadlock actually exercised" true !saw_deadlock;
  check_bool "waits-for cycle actually detected" true !saw_cycle

let t_abort_injection () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:5
      { Gen.default with n_top = 6; depth = 2 }
  in
  let r = run_protocol ~abort_prob:0.2 ~seed:5 schema Moss_object.factory forest in
  check_bool "aborts injected" true (r.Runtime.stats.injected_aborts > 0);
  check_bool "wf" true (Simple_db.is_well_formed schema.Schema.sys r.Runtime.trace);
  check_bool "correct" true (Checker.serially_correct schema r.Runtime.trace)

let t_top_seq_mode () =
  (* Sequential top level: T0 requests children one at a time; the
     precedes relation then totally orders top-level transactions. *)
  let forest, schema = rw_pair () in
  let r =
    Runtime.run ~top_comb:Program.Seq ~seed:2 schema Moss_object.factory forest
  in
  let beta = Trace.serial r.Runtime.trace in
  let rel = Precedes.relation beta in
  check_bool "precedes edge exists" true
    (List.exists
       (fun (a, b) -> Txn_id.equal a (txn [ 0 ]) && Txn_id.equal b (txn [ 1 ]))
       rel);
  check_bool "correct" true (Checker.serially_correct schema r.Runtime.trace)

let t_max_steps_truncation () =
  let forest, schema = rw_pair () in
  let r = Runtime.run ~max_steps:5 ~seed:1 schema Moss_object.factory forest in
  check_bool "truncated" true r.Runtime.stats.truncated

let t_undo_no_deadlock_on_counters () =
  (* Increment-only counter workloads never block under undo logging. *)
  let forest, schema =
    Scenario.hotspot_counter ~n_txns:8 ~n_counters:1 ~theta:0.0 ~seed:4
  in
  let r = run_protocol ~seed:4 schema Undo_object.factory forest in
  check_int "no blocking" 0 r.Runtime.stats.blocked_attempts;
  check_int "no deadlock aborts" 0 r.Runtime.stats.deadlock_aborts;
  check_bool "correct" true (Checker.serially_correct schema r.Runtime.trace)

(* The wake-up contract: an object's answer to an access can change
   only at that object's own next create, successful respond or inform,
   so the runtime parks a refused access until then.  Writers of one
   shared register only ever wait for each other and cannot deadlock:
   each must commit, and no stall may be broken by a victim abort.  A
   missing wake-up would leave a writer parked with nothing left to
   fire, which the runtime resolves as a deadlock.  The writers are
   top-level accesses: a nested writer's lock can also be stranded by
   its parent's inform arriving before its own (informs are delivered
   once, in any order), which no wake-up can repair. *)
let t_pure_waits_commit () =
  let k = 6 in
  let forest =
    List.init k (fun i -> Program.access x0 (Datatype.Write (Value.Int i)))
  in
  let schema = Program.schema_of ~objects:[ (x0, Register.make ()) ] forest in
  let waited = ref 0 in
  List.iter
    (fun (name, factory) ->
      List.iter
        (fun (pname, policy) ->
          for seed = 1 to 8 do
            let r = run_protocol ~policy ~seed schema factory forest in
            let what = Printf.sprintf "%s/%s/seed %d" name pname seed in
            check_int (what ^ ": all committed") k r.Runtime.committed_top;
            check_int (what ^ ": no deadlock aborts") 0
              r.Runtime.stats.deadlock_aborts;
            waited := !waited + r.Runtime.stats.blocked_attempts
          done)
        [ ("random", Runtime.Random_step); ("bsp", Runtime.Bsp_rounds) ])
    [
      ("moss", Moss_object.factory);
      ("commlock", Commlock_object.factory);
      ("undo", Undo_object.factory);
      ("mvts", Mvts_object.factory);
    ];
  check_bool "writers waited" true (!waited > 0)

(* [top_state] and [abort_txn] answer for children of T0 only: the
   runtime keeps no index of deeper names once they report. *)
let t_top_level_names_only () =
  let forest, schema = rw_pair () in
  let rt = Runtime.make ~seed:3 schema Moss_object.factory forest in
  let rec settle () =
    match Runtime.step rt with `Progress -> settle () | _ -> ()
  in
  settle ();
  check_bool "reported top keeps its fate" true
    (match Runtime.top_state rt (txn [ 0 ]) with
    | `Committed _ | `Aborted -> true
    | `Unknown | `Running -> false);
  check_bool "complete top is not abortable" false
    (Runtime.abort_txn rt (txn [ 0 ]));
  check_bool "never attached" true
    (Runtime.top_state rt (txn [ 9 ]) = `Unknown);
  List.iter
    (fun u ->
      Alcotest.check_raises "top_state: not a top"
        (Invalid_argument
           ("Runtime: " ^ Txn_id.to_string u ^ " is not a top-level name"))
        (fun () -> ignore (Runtime.top_state rt u));
      Alcotest.check_raises "abort_txn: not a top"
        (Invalid_argument
           ("Runtime: " ^ Txn_id.to_string u ^ " is not a top-level name"))
        (fun () -> ignore (Runtime.abort_txn rt u)))
    [ Txn_id.root; txn [ 0; 0 ] ]

let suite =
  ( "runtime",
    [
      Alcotest.test_case "quiescence and counts" `Quick t_quiescence_and_counts;
      Alcotest.test_case "top-level names only" `Quick t_top_level_names_only;
      Alcotest.test_case "determinism by seed" `Quick t_determinism;
      Alcotest.test_case "bsp rounds exploit concurrency" `Quick t_bsp_fewer_rounds;
      Alcotest.test_case "deadlock broken" `Quick t_deadlock_broken;
      Alcotest.test_case "abort injection" `Quick t_abort_injection;
      Alcotest.test_case "sequential top level" `Quick t_top_seq_mode;
      Alcotest.test_case "max steps truncation" `Quick t_max_steps_truncation;
      Alcotest.test_case "undo never blocks on commuting ops" `Quick
        t_undo_no_deadlock_on_counters;
      Alcotest.test_case "pure waits commit everything" `Quick
        t_pure_waits_commit;
    ] )
