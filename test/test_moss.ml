open Core
open Util

let t1 = txn [ 0 ]
let a1 = txn [ 0; 0 ]
let t2 = txn [ 1 ]
let a2 = txn [ 1; 0 ]

let init () = Moss_object.initial (Value.Int 0)

let t_initial () =
  let s = init () in
  check_bool "T0 holds write lock" true
    (Txn_id.Map.mem Txn_id.root s.Moss_object.write_lockholders);
  Alcotest.check txn_testable "least is T0" Txn_id.root
    (Moss_object.least_write_lockholder s)

let t_read_then_write_conflict () =
  let s = init () in
  let s = Moss_object.create s a1 in
  let s = Moss_object.create s a2 in
  (* a1 reads: fine, gets initial value. *)
  let s, v =
    match Moss_object.request_commit s a1 `Read with
    | Some r -> r
    | None -> Alcotest.fail "read should fire"
  in
  Alcotest.check value_testable "read initial" (Value.Int 0) v;
  (* a2 writes: blocked by a1's read lock (a1 is no ancestor of a2). *)
  check_bool "write blocked" true
    (Moss_object.request_commit s a2 (`Write (Value.Int 9)) = None);
  Alcotest.(check (list txn_testable)) "blocker is a1" [ a1 ]
    (List.map fst (Moss_object.blockers_kinded s a2 (`Write (Value.Int 9))));
  (* After a1 and t1 commit (informs), the lock moves to T0 and a2 can
     write. *)
  let s = Moss_object.inform_commit s a1 in
  let s = Moss_object.inform_commit s t1 in
  (match Moss_object.request_commit s a2 (`Write (Value.Int 9)) with
  | Some (s', v) ->
      Alcotest.check value_testable "write ack" Value.Ok v;
      Alcotest.check txn_testable "least holder is writer" a2
        (Moss_object.least_write_lockholder s')
  | None -> Alcotest.fail "write should fire after informs")

let t_write_read_visibility () =
  (* a1 writes 7; a2 may read only after the lock is hoisted above it,
     and then it reads 7 from the hoisted version. *)
  let s = init () in
  let s = Moss_object.create s a1 in
  let s, _ = Option.get (Moss_object.request_commit s a1 (`Write (Value.Int 7))) in
  let s = Moss_object.create s a2 in
  check_bool "read blocked by writer" true
    (Moss_object.request_commit s a2 `Read = None);
  let s = Moss_object.inform_commit s a1 in
  check_bool "still blocked (t1 live)" true
    (Moss_object.request_commit s a2 `Read = None);
  let s = Moss_object.inform_commit s t1 in
  match Moss_object.request_commit s a2 `Read with
  | Some (_, v) -> Alcotest.check value_testable "reads committed write" (Value.Int 7) v
  | None -> Alcotest.fail "read should fire"

let t_abort_discards () =
  let s = init () in
  let s = Moss_object.create s a1 in
  let s, _ = Option.get (Moss_object.request_commit s a1 (`Write (Value.Int 7))) in
  (* Abort t1: descendants' locks vanish; value is restored to T0's. *)
  let s = Moss_object.inform_abort s t1 in
  check_bool "lock gone" false (Txn_id.Map.mem a1 s.Moss_object.write_lockholders);
  let s = Moss_object.create s a2 in
  match Moss_object.request_commit s a2 `Read with
  | Some (_, v) -> Alcotest.check value_testable "reads initial" (Value.Int 0) v
  | None -> Alcotest.fail "read should fire after abort"

let t_sibling_sees_committed_sibling_write () =
  (* Two sibling accesses under t1: the second may read the first's
     write as soon as the first's lock is hoisted to their common
     parent — no top-level commit needed.  This is the intra-transaction
     visibility that makes nesting useful. *)
  let w = txn [ 0; 0 ] and r = txn [ 0; 1 ] in
  let s = init () in
  let s = Moss_object.create s w in
  let s, _ = Option.get (Moss_object.request_commit s w (`Write (Value.Int 3))) in
  let s = Moss_object.create s r in
  check_bool "sibling blocked before hoist" true
    (Moss_object.request_commit s r `Read = None);
  let s = Moss_object.inform_commit s w in
  match Moss_object.request_commit s r `Read with
  | Some (_, v) ->
      Alcotest.check value_testable "sibling sees hoisted version"
        (Value.Int 3) v
  | None -> Alcotest.fail "sibling read should fire after hoist"

let t_no_duplicate_response () =
  let s = init () in
  let s = Moss_object.create s a1 in
  let s, _ = Option.get (Moss_object.request_commit s a1 `Read) in
  check_bool "no second response" true (Moss_object.request_commit s a1 `Read = None)

let t_uncreated_never_responds () =
  check_bool "uncreated blocked" true
    (Moss_object.request_commit (init ()) a1 `Read = None)

(* Lemma invariants over generated executions (per sampled prefix). *)
let t_lemmas_on_generated () =
  List.iter
    (fun seed ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed
          { Gen.default with n_top = 5; depth = 2; n_objects = 2 }
      in
      let r = run_protocol ~abort_prob:0.05 ~seed schema Moss_object.factory forest in
      List.iter
        (fun x ->
          let proj = Moss_invariants.project schema x r.Runtime.trace in
          (match Moss_invariants.replay schema x proj with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "replay failed: %s" e);
          List.iter
            (fun prefix ->
              check_bool "lemma 9" true (Moss_invariants.lemma9 schema x prefix);
              check_bool "lemma 10" true (Moss_invariants.lemma10 schema x prefix);
              check_bool "lemma 12/13" true
                (Moss_invariants.lemma12_13 schema x prefix))
            (sampled_prefixes ~stride:5 proj))
        schema.Schema.objects)
    (List.init 8 (fun i -> i + 1))

(* Lemma 14 consequences: every visible read in a Moss execution is
   current and safe in serial(beta). *)
let t_reads_current_safe () =
  List.iter
    (fun seed ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed
          { Gen.default with n_top = 6; depth = 2; n_objects = 2; theta = 0.8 }
      in
      let r = run_protocol ~abort_prob:0.05 ~seed schema Moss_object.factory forest in
      check_bool "lemma 6 conditions" true
        (Return_values.lemma6_conditions schema (Trace.serial r.Runtime.trace)))
    (List.init 8 (fun i -> i + 50))

let suite =
  ( "moss",
    [
      Alcotest.test_case "initial state" `Quick t_initial;
      Alcotest.test_case "read blocks conflicting write" `Quick
        t_read_then_write_conflict;
      Alcotest.test_case "write/read visibility" `Quick t_write_read_visibility;
      Alcotest.test_case "abort discards locks" `Quick t_abort_discards;
      Alcotest.test_case "sibling sees committed sibling write" `Quick
        t_sibling_sees_committed_sibling_write;
      Alcotest.test_case "no duplicate response" `Quick t_no_duplicate_response;
      Alcotest.test_case "uncreated never responds" `Quick
        t_uncreated_never_responds;
      Alcotest.test_case "lemmas 9/10/12/13 on generated" `Slow
        t_lemmas_on_generated;
      Alcotest.test_case "reads current and safe (Lemma 14)" `Slow
        t_reads_current_safe;
    ] )
