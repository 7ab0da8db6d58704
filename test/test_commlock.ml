open Core
open Util

let t1 = txn [ 0 ]
let a1 = txn [ 0; 0 ]
let a2 = txn [ 1; 0 ]
let reg = Register.make ()
let ctr = Counter.make ()
let acct = Bank_account.make ~init:10 ()

let t_register_reduces_to_moss () =
  (* Read/read shared, read/write conflicting. *)
  let s = Commlock_object.initial in
  let s = Commlock_object.create s a1 in
  let s = Commlock_object.create s a2 in
  let s, v = Option.get (Commlock_object.request_commit reg s a1 Datatype.Read) in
  Alcotest.check value_testable "read init" (Value.Int 0) v;
  (match Commlock_object.request_commit reg s a2 Datatype.Read with
  | Some (s', _) -> (
      (* Now a write by a third party is blocked by both read locks. *)
      let a3 = txn [ 2; 0 ] in
      let s' = Commlock_object.create s' a3 in
      match
        Commlock_object.request_commit reg s' a3 (Datatype.Write (Value.Int 1))
      with
      | Some _ -> Alcotest.fail "write through read locks"
      | None ->
          check_int "two blockers" 2
            (List.length
               (Commlock_object.blockers_kinded reg s' a3
                  (Datatype.Write (Value.Int 1)))))
  | None -> Alcotest.fail "shared reads should both fire")

let t_refines_moss_on_same_value_writes () =
  (* M_X admits concurrent writes of the same datum; M1_X would not. *)
  let s = Commlock_object.initial in
  let s = Commlock_object.create s a1 in
  let s = Commlock_object.create s a2 in
  let w = Datatype.Write (Value.Int 5) in
  let s, _ = Option.get (Commlock_object.request_commit reg s a1 w) in
  match Commlock_object.request_commit reg s a2 w with
  | Some _ -> ()
  | None -> Alcotest.fail "same-value writes commute and should interleave"

let t_counter_increments_interleave () =
  let s = Commlock_object.initial in
  let s = Commlock_object.create s a1 in
  let s = Commlock_object.create s a2 in
  let s, _ = Option.get (Commlock_object.request_commit ctr s a1 (Datatype.Incr 2)) in
  (match Commlock_object.request_commit ctr s a2 (Datatype.Incr 3) with
  | Some (s', _) -> (
      (* A Get from a third party is blocked by both updates... *)
      let a3 = txn [ 2; 0 ] in
      let s' = Commlock_object.create s' a3 in
      match Commlock_object.request_commit ctr s' a3 Datatype.Get with
      | Some _ -> Alcotest.fail "get through update locks"
      | None -> ())
  | None -> Alcotest.fail "increments should interleave")

let t_ancestor_entries_visible () =
  (* A sibling can read after the first sibling's entry is promoted to
     the common parent. *)
  let w = txn [ 0; 0 ] and r = txn [ 0; 1 ] in
  let s = Commlock_object.initial in
  let s = Commlock_object.create s w in
  let s, _ =
    Option.get (Commlock_object.request_commit ctr s w (Datatype.Incr 4))
  in
  let s = Commlock_object.create s r in
  check_bool "blocked before promote" true
    (Commlock_object.request_commit ctr s r Datatype.Get = None);
  let s = Commlock_object.inform_commit ctr s w in
  match Commlock_object.request_commit ctr s r Datatype.Get with
  | Some (_, v) -> Alcotest.check value_testable "sees promoted" (Value.Int 4) v
  | None -> Alcotest.fail "should fire after promote"

let t_abort_discards () =
  let s = Commlock_object.initial in
  let s = Commlock_object.create s a1 in
  let s, _ = Option.get (Commlock_object.request_commit acct s a1 (Datatype.Deposit 5)) in
  let s = Commlock_object.inform_abort acct s t1 in
  check_int "purged" 0 (List.length s.Commlock_object.log);
  let s = Commlock_object.create s a2 in
  match Commlock_object.request_commit acct s a2 Datatype.Balance with
  | Some (_, v) -> Alcotest.check value_testable "back to init" (Value.Int 10) v
  | None -> Alcotest.fail "balance should fire on empty log"

(* Only an entry held by [T0] is folded: one promoted to its top, whose
   commit this object has not heard, still conflicts with another top's
   access, and the top's abort still discards it. *)
let t_fold_waits_for_t0 () =
  let s = Commlock_object.create Commlock_object.initial a1 in
  let s, _ = Option.get (Commlock_object.request_commit ctr s a1 (Datatype.Incr 2)) in
  let s = Commlock_object.inform_commit ctr s a1 in
  check_int "held by the top, still live" 1 (List.length s.Commlock_object.log);
  let s = Commlock_object.create s a2 in
  check_bool "get still blocked" true
    (Commlock_object.request_commit ctr s a2 Datatype.Get = None);
  Alcotest.(check (list txn_testable)) "holder" [ t1 ]
    (List.map fst (Commlock_object.blockers_kinded ctr s a2 Datatype.Get));
  (let s = Commlock_object.inform_abort ctr s t1 in
   match Commlock_object.request_commit ctr s a2 Datatype.Get with
   | Some (_, v) -> Alcotest.check value_testable "discarded" (Value.Int 0) v
   | None -> Alcotest.fail "get should fire after the discard");
  let s = Commlock_object.inform_commit ctr s t1 in
  check_int "T0-held entry folded" 0 (List.length s.Commlock_object.log);
  check_bool "into the base" true (s.Commlock_object.base = Some (Value.Int 2));
  match Commlock_object.request_commit ctr s a2 Datatype.Get with
  | Some (_, v) -> Alcotest.check value_testable "base replayed" (Value.Int 2) v
  | None -> Alcotest.fail "get should fire once the top committed"

(* Model checking: Theorem 19 on generated executions over every data
   type, with aborts. *)
let t_serially_correct () =
  List.iter
    (fun (gen, name) ->
      List.iter
        (fun seed ->
          let forest, schema =
            Gen.forest_and_schema gen ~seed
              { Gen.default with n_top = 5; depth = 2; n_objects = 4 }
          in
          let r =
            run_protocol ~abort_prob:0.05 ~seed schema Commlock_object.factory
              forest
          in
          check_bool (name ^ " wf") true
            (Simple_db.is_well_formed schema.Schema.sys r.Runtime.trace);
          if not (Checker.serially_correct schema r.Runtime.trace) then
            Alcotest.failf "%s seed %d: commlock verdict failed" name seed)
        (List.init 8 (fun i -> i + 1)))
    [ (Gen.registers, "registers"); (Gen.counters, "counters"); (Gen.mixed, "mixed") ]

(* Refinement: every response M1_X admits, M_X admits too (with the
   same value), on register schemas — replay Moss-produced projected
   traces through M_X. *)
let t_refinement_of_m1x () =
  List.iter
    (fun seed ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed
          { Gen.default with n_top = 5; depth = 2; n_objects = 2 }
      in
      let r = run_protocol ~seed schema Moss_object.factory forest in
      List.iter
        (fun x ->
          let proj = Moss_invariants.project schema x r.Runtime.trace in
          let dt = schema.Schema.dtype_of x in
          let n = Trace.length proj in
          let rec go s i =
            if i >= n then ()
            else
              match Trace.get proj i with
              | Action.Create t -> go (Commlock_object.create s t) (i + 1)
              | Action.Inform_commit (_, t) ->
                  go (Commlock_object.inform_commit dt s t) (i + 1)
              | Action.Inform_abort (_, t) ->
                  go (Commlock_object.inform_abort dt s t) (i + 1)
              | Action.Request_commit (t, v) -> (
                  match
                    Commlock_object.request_commit dt s t (schema.Schema.op_of t)
                  with
                  | Some (s', v') ->
                      if not (Value.equal v v') then
                        Alcotest.failf "value mismatch at %d" i;
                      go s' (i + 1)
                  | None -> Alcotest.failf "M_X refused a Moss-legal response at %d" i)
              | _ -> go s (i + 1)
          in
          go Commlock_object.initial 0)
        schema.Schema.objects)
    (List.init 6 (fun i -> i + 11))


(* The paper's lock-visible vs locally-visible distinction (Section
   6.3): lock promotion is a *stepwise* walk up the tree, so informs
   that arrive out of leaf-to-root order strand the lock below the
   committed frontier; undo logging's visibility is a *set* condition
   and does not care about order.  Both remain correct — the locking
   object just loses permissiveness. *)
let t_inform_order_sensitivity () =
  let w = txn [ 0; 0 ] and outsider = txn [ 1; 0 ] in
  (* Commlock: inform parent BEFORE child; the entry stays held at the
     access and never reaches an ancestor of the outsider. *)
  let s = Commlock_object.initial in
  let s = Commlock_object.create s w in
  let s, _ = Option.get (Commlock_object.request_commit ctr s w (Datatype.Incr 1)) in
  let s = Commlock_object.inform_commit ctr s t1 (* parent first *) in
  let s = Commlock_object.inform_commit ctr s w (* child second *) in
  let s = Commlock_object.create s outsider in
  check_bool "commlock stranded below the frontier" true
    (Commlock_object.request_commit ctr s outsider Datatype.Get = None);
  (* Undo logging under the same inform order proceeds. *)
  let u = Undo_object.initial in
  let u = Undo_object.create u w in
  let u, _ = Option.get (Undo_object.request_commit ctr u w (Datatype.Incr 1)) in
  let u = Undo_object.inform_commit ctr u t1 in
  let u = Undo_object.inform_commit ctr u w in
  let u = Undo_object.create u outsider in
  match Undo_object.request_commit ctr u outsider Datatype.Get with
  | Some (_, v) ->
      Alcotest.check value_testable "undo unaffected by order" (Value.Int 1) v
  | None -> Alcotest.fail "undo should not be order-sensitive"

let suite =
  ( "commlock",
    [
      Alcotest.test_case "register locking" `Quick t_register_reduces_to_moss;
      Alcotest.test_case "same-value writes refine Moss" `Quick
        t_refines_moss_on_same_value_writes;
      Alcotest.test_case "counter increments interleave" `Quick
        t_counter_increments_interleave;
      Alcotest.test_case "promotion makes entries visible" `Quick
        t_ancestor_entries_visible;
      Alcotest.test_case "abort discards" `Quick t_abort_discards;
      Alcotest.test_case "fold waits for T0" `Quick t_fold_waits_for_t0;
      Alcotest.test_case "serially correct (Thm 19)" `Slow t_serially_correct;
      Alcotest.test_case "refines M1_X on registers" `Slow t_refinement_of_m1x;
      Alcotest.test_case "inform-order sensitivity (lock- vs locally-visible)"
        `Quick t_inform_order_sensitivity;
    ] )
