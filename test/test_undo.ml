open Core
open Util

let t1 = txn [ 0 ]
let a1 = txn [ 0; 0 ]
let t2 = txn [ 1 ]
let a2 = txn [ 1; 0 ]
let ctr = Counter.make ()
let acct = Bank_account.make ~init:10 ()

let t_commuting_ops_interleave () =
  (* Two increments from different top-level transactions can both
     respond with neither committed: increments commute. *)
  let s = Undo_object.initial in
  let s = Undo_object.create s a1 in
  let s = Undo_object.create s a2 in
  let s, v =
    Option.get (Undo_object.request_commit ctr s a1 (Datatype.Incr 2))
  in
  Alcotest.check value_testable "ack" Value.Ok v;
  match Undo_object.request_commit ctr s a2 (Datatype.Incr 3) with
  | Some (s', _) -> check_int "log holds both" 2 (List.length s'.Undo_object.log)
  | None -> Alcotest.fail "commuting increment should fire"

let t_conflicting_blocked_until_visible () =
  (* A Get conflicts with an uncommitted sibling's Incr: blocked until
     the writer's chain is known committed. *)
  let s = Undo_object.initial in
  let s = Undo_object.create s a1 in
  let s = Undo_object.create s a2 in
  let s, _ = Option.get (Undo_object.request_commit ctr s a1 (Datatype.Incr 2)) in
  check_bool "get blocked" true (Undo_object.request_commit ctr s a2 Datatype.Get = None);
  Alcotest.(check (list txn_testable)) "blocker" [ a1 ]
    (List.map fst (Undo_object.blockers_kinded ctr s a2 Datatype.Get));
  let s = Undo_object.inform_commit ctr s a1 in
  check_bool "still blocked (t1 uncommitted)" true
    (Undo_object.request_commit ctr s a2 Datatype.Get = None);
  let s = Undo_object.inform_commit ctr s t1 in
  match Undo_object.request_commit ctr s a2 Datatype.Get with
  | Some (_, v) -> Alcotest.check value_testable "get sees increment" (Value.Int 2) v
  | None -> Alcotest.fail "get should fire once writer visible"

let t_undo_on_abort () =
  let s = Undo_object.initial in
  let s = Undo_object.create s a1 in
  let s, _ = Option.get (Undo_object.request_commit ctr s a1 (Datatype.Incr 5)) in
  let s = Undo_object.inform_abort ctr s t1 in
  check_int "log purged" 0 (List.length s.Undo_object.log);
  let s = Undo_object.create s a2 in
  match Undo_object.request_commit ctr s a2 Datatype.Get with
  | Some (_, v) -> Alcotest.check value_testable "abort undone" (Value.Int 0) v
  | None -> Alcotest.fail "get should fire after undo"

let t_own_descendant_ops_visible () =
  (* Operations of one's own ancestors' completed children do not block:
     sibling accesses under the same parent conflict until the first is
     committed, but an access never conflicts with entries from its own
     ancestor chain. *)
  let w = txn [ 0; 0 ] and r = txn [ 0; 1 ] in
  let s = Undo_object.initial in
  let s = Undo_object.create s w in
  let s, _ = Option.get (Undo_object.request_commit ctr s w (Datatype.Incr 1)) in
  let s = Undo_object.create s r in
  check_bool "sibling get blocked pre-commit" true
    (Undo_object.request_commit ctr s r Datatype.Get = None);
  let s = Undo_object.inform_commit ctr s w in
  (* ancestors(w) - ancestors(r) = {w}, now committed. *)
  match Undo_object.request_commit ctr s r Datatype.Get with
  | Some (_, v) -> Alcotest.check value_testable "sees sibling" (Value.Int 1) v
  | None -> Alcotest.fail "should fire after sibling commit"

let t_withdraw_commutativity_in_action () =
  (* Two successful withdrawals interleave; a balance is blocked. *)
  let s = Undo_object.initial in
  let s = Undo_object.create s a1 in
  let s = Undo_object.create s a2 in
  let s, v = Option.get (Undo_object.request_commit acct s a1 (Datatype.Withdraw 3)) in
  Alcotest.check value_testable "first ok" (Value.Bool true) v;
  (match Undo_object.request_commit acct s a2 (Datatype.Withdraw 4) with
  | Some (_, v) -> Alcotest.check value_testable "second ok" (Value.Bool true) v
  | None -> Alcotest.fail "successful withdrawals commute");
  let b = txn [ 2; 0 ] in
  let s = Undo_object.create s b in
  check_bool "balance blocked" true
    (Undo_object.request_commit acct s b Datatype.Balance = None)

let t_failed_withdraw_conflicts_with_success () =
  (* A withdrawal that would fail conflicts with the pending successful
     one (mixed outcomes do not commute): blocked, not failed. *)
  let s = Undo_object.initial in
  let s = Undo_object.create s a1 in
  let s = Undo_object.create s a2 in
  let s, _ = Option.get (Undo_object.request_commit acct s a1 (Datatype.Withdraw 8)) in
  check_bool "would-fail withdrawal blocked" true
    (Undo_object.request_commit acct s a2 (Datatype.Withdraw 5) = None)

let t_locally_visible () =
  let s = Undo_object.initial in
  check_bool "self visible" true (Undo_object.locally_visible s ~to_:a1 a1);
  check_bool "sibling not visible" false (Undo_object.locally_visible s ~to_:a2 a1);
  let s = Undo_object.inform_commit ctr s a1 in
  let s = Undo_object.inform_commit ctr s t1 in
  check_bool "visible after chain commits" true
    (Undo_object.locally_visible s ~to_:a2 a1)

(* The fold predicate is "every non-root ancestor committed", not "the
   access committed": an entry whose access and intermediate parent are
   committed, under a top that is not, stays in the live suffix — it
   still blocks a conflicting access of another top, and the top's
   abort still undoes it. *)
let t_fold_waits_for_the_top () =
  let p = txn [ 0; 0 ] and a = txn [ 0; 0; 0 ] in
  let s = Undo_object.create Undo_object.initial a in
  let s, _ = Option.get (Undo_object.request_commit ctr s a (Datatype.Incr 2)) in
  let s = Undo_object.inform_commit ctr s a in
  let s = Undo_object.inform_commit ctr s p in
  check_int "entry still live" 1 (List.length s.Undo_object.log);
  let s = Undo_object.create s a2 in
  check_bool "get still blocked" true
    (Undo_object.request_commit ctr s a2 Datatype.Get = None);
  Alcotest.(check (list txn_testable)) "blocker" [ a ]
    (List.map fst (Undo_object.blockers_kinded ctr s a2 Datatype.Get));
  (let s = Undo_object.inform_abort ctr s t1 in
   check_int "abort undoes it" 0 (List.length s.Undo_object.log);
   match Undo_object.request_commit ctr s a2 Datatype.Get with
   | Some (_, v) -> Alcotest.check value_testable "undone" (Value.Int 0) v
   | None -> Alcotest.fail "get should fire after the undo");
  let s = Undo_object.inform_commit ctr s t1 in
  check_int "settled entry folded" 0 (List.length s.Undo_object.log);
  check_bool "into the base" true (s.Undo_object.base = Some (Value.Int 2));
  match Undo_object.request_commit ctr s a2 Datatype.Get with
  | Some (_, v) -> Alcotest.check value_testable "base replayed" (Value.Int 2) v
  | None -> Alcotest.fail "get should fire once the top committed"

(* Lemma 20 over base ⊕ suffix is exactly as strict as over the whole
   log: a base that is not the folded prefix's final state fails it. *)
let t_lemma20_catches_a_corrupted_base () =
  let x = Obj_id.make "c" in
  let schema =
    Program.schema_of
      ~objects:[ (x, Counter.make ()) ]
      [ Program.seq [ Program.access x (Datatype.Incr 2) ] ]
  in
  let a = txn [ 0; 0 ] in
  let trace =
    Trace.of_list
      [
        Action.Create a;
        Action.Request_commit (a, Value.Ok);
        Action.Inform_commit (x, a);
        Action.Inform_commit (x, t1);
      ]
  in
  check_bool "lemma 20 holds" true (Undo_invariants.lemma20 schema x trace);
  match Undo_invariants.replay schema x trace with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "folded" true (s.Undo_object.base = Some (Value.Int 2));
      check_bool "corrupted base fails" false
        (Undo_invariants.lemma20_of schema x trace
           { s with Undo_object.base = Some (Value.Int 3) });
      check_bool "dropped base fails" false
        (Undo_invariants.lemma20_of schema x trace
           { s with Undo_object.base = None })

(* Lemma invariants over generated executions. *)
let t_lemmas_on_generated () =
  List.iter
    (fun seed ->
      let forest, schema =
        Gen.forest_and_schema Gen.mixed ~seed
          { Gen.default with n_top = 5; depth = 2; n_objects = 4 }
      in
      let r = run_protocol ~abort_prob:0.06 ~seed schema Undo_object.factory forest in
      List.iter
        (fun x ->
          let proj = Undo_invariants.project schema x r.Runtime.trace in
          (match Undo_invariants.replay schema x proj with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "replay failed: %s" e);
          (* Victim sample sets for Lemma 21: live top-level txns. *)
          let samples = [ [ t1 ]; [ t2 ]; [ t1; t2 ] ] in
          List.iter
            (fun prefix ->
              check_bool "lemma 20" true (Undo_invariants.lemma20 schema x prefix);
              check_bool "lemma 21" true
                (Undo_invariants.lemma21 schema x prefix ~samples);
              check_bool "lemma 22" true (Undo_invariants.lemma22 schema x prefix))
            (sampled_prefixes ~stride:6 proj))
        schema.Schema.objects)
    (List.init 8 (fun i -> i + 1))

(* Logs drain at quiescence.  A closed loop of 16 clients serves 2 000
   programs through the engine, then drains; each object's projection
   is replayed through the object's own state functions.  An entry is
   open while its object still has to keep it: for [U_X] while some
   non-root ancestor of its access is not known committed there, for
   commutativity locking while its lock is not inherited up to [T0];
   an abort informed there ends it.  At every prefix the live suffix
   holds every open entry and starts at one: every older entry is
   folded, whatever its top.  At the end the [U_X] suffix is empty,
   where the whole log would hold every operation not undone.  A
   commutativity lock strands below [T0] when its holder's commit is
   informed before the lock reaches it (informs arrive in any order;
   see [inform-order sensitivity] in [test_commlock]), and a stranded
   entry still conflicts, so it is the only kind left open there. *)
let serve_closed_loop ~seed objects factory program =
  let actions = ref [] in
  let eng =
    Engine.create ~seed
      ~on_action:(fun a -> actions := a :: !actions)
      objects factory
  in
  let rng = Rng.create seed in
  let clients = 16 and total = 2000 in
  let rec loop () =
    while Engine.live_top eng < clients && Engine.submitted eng < total do
      match Engine.submit eng (program rng) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    done;
    match Engine.step eng with
    | `Progress -> loop ()
    | `Quiescent -> if Engine.submitted eng < total then loop ()
    | `Truncated -> Alcotest.fail "truncated"
  in
  loop ();
  check_int "every top completed" total
    (Engine.committed_top eng + Engine.aborted_top eng);
  (Engine.schema eng, Trace.of_list (List.rev !actions))

(* Replay [proj] with [step], checking the suffix against the open
   entries.  Each open entry is an access with its current lock holder;
   [still_open ~committed] tells whether it is open given the commits
   informed so far, and [key] is what [suffix] lists per entry.
   Returns the final state, the entries still open and the commits
   informed. *)
let check_drains name ~step ~suffix ~key ~still_open initial proj =
  let committed = ref Txn_id.Set.empty and open_ = ref [] in
  let final =
    Array.fold_left
      (fun s a ->
        let s = step s a in
        (match a with
        | Action.Request_commit (t, _) -> open_ := !open_ @ [ (t, ref t) ]
        | Action.Inform_commit (_, u) ->
            committed := Txn_id.Set.add u !committed;
            List.iter
              (fun (_, h) -> if Txn_id.equal !h u then h := Txn_id.parent_exn u)
              !open_
        | Action.Inform_abort (_, u) ->
            open_ :=
              List.filter (fun (t, _) -> not (Txn_id.is_descendant t u)) !open_
        | _ -> ());
        open_ :=
          List.filter
            (fun (t, h) -> still_open ~committed:!committed t !h)
            !open_;
        let keys = List.map (fun (t, h) -> key t !h) !open_ in
        let rec remove k = function
          | [] -> Alcotest.failf "%s: open %a folded" name Txn_id.pp k
          | k' :: l -> if Txn_id.equal k k' then l else k' :: remove k l
        in
        let live = suffix s in
        ignore (List.fold_left (fun l k -> remove k l) live keys);
        (match live with
        | k :: _ when not (List.exists (Txn_id.equal k) keys) ->
            Alcotest.failf "%s: suffix starts at settled %a" name Txn_id.pp k
        | _ -> ());
        s)
      initial proj
  in
  (final, !open_, !committed)

let t_logs_drain () =
  let registers =
    List.init 8 (fun i -> (Obj_id.indexed "acct" i, Register.make ()))
  in
  let accounts = Array.of_list (List.map fst registers) in
  let schema, trace =
    serve_closed_loop ~seed:7 registers Undo_object.factory (fun rng ->
        Gen.smallbank_txn ~theta:0.9 rng accounts)
  in
  List.iter
    (fun x ->
      let dt = schema.Schema.dtype_of x in
      let proj = Undo_invariants.project schema x trace in
      let step s = function
        | Action.Create t -> Undo_object.create s t
        | Action.Inform_commit (_, t) -> Undo_object.inform_commit dt s t
        | Action.Inform_abort (_, t) -> Undo_object.inform_abort dt s t
        | Action.Request_commit (t, v) -> (
            match Undo_object.request_commit dt s t (schema.Schema.op_of t) with
            | Some (s', v') when Value.equal v v' -> s'
            | _ -> Alcotest.failf "undo refused %a" Txn_id.pp t)
        | a -> Alcotest.failf "foreign action %a" Action.pp a
      in
      let final, _, _ =
        check_drains (Obj_id.name x) ~step
          ~suffix:(fun s -> List.map (fun e -> e.Undo_object.txn) s.Undo_object.log)
          ~key:(fun t _ -> t)
          ~still_open:(fun ~committed t _ ->
            List.exists
              (fun u -> not (Txn_id.is_root u || Txn_id.Set.mem u committed))
              (Txn_id.ancestors t))
          Undo_object.initial proj
      in
      check_int "suffix empty at the end" 0 (List.length final.Undo_object.log);
      match Undo_invariants.replay schema x proj with
      | Ok s ->
          check_bool "replay reaches the same base" true
            (s.Undo_object.base = final.Undo_object.base)
      | Error e -> Alcotest.fail e)
    schema.Schema.objects;
  let counters =
    List.init 8 (fun i -> (Obj_id.indexed "ctr" i, Counter.make ()))
  in
  let ctrs = Array.of_list (List.map fst counters) in
  let schema, trace =
    serve_closed_loop ~seed:7 counters Commlock_object.factory (fun rng ->
        let ctr () = ctrs.(Rng.zipf rng ~n:(Array.length ctrs) ~theta:0.9) in
        let incr () = Program.access (ctr ()) (Datatype.Incr (1 + Rng.int rng 4))
        and get () = Program.access (ctr ()) Datatype.Get in
        match Rng.int rng 3 with
        | 0 -> Program.par [ get (); get () ]
        | 1 -> Program.seq [ incr (); get () ]
        | _ -> Program.seq [ Program.par [ incr (); incr () ]; get () ])
  in
  List.iter
    (fun x ->
      let dt = schema.Schema.dtype_of x in
      let step s = function
        | Action.Create t -> Commlock_object.create s t
        | Action.Inform_commit (_, t) -> Commlock_object.inform_commit dt s t
        | Action.Inform_abort (_, t) -> Commlock_object.inform_abort dt s t
        | Action.Request_commit (t, v) -> (
            match
              Commlock_object.request_commit dt s t (schema.Schema.op_of t)
            with
            | Some (s', v') when Value.equal v v' -> s'
            | _ -> Alcotest.failf "commlock refused %a" Txn_id.pp t)
        | a -> Alcotest.failf "foreign action %a" Action.pp a
      in
      let _, left, committed =
        check_drains (Obj_id.name x) ~step
          ~suffix:(fun s ->
            List.map (fun e -> e.Commlock_object.holder) s.Commlock_object.log)
          ~key:(fun _ h -> h)
          ~still_open:(fun ~committed:_ _ h -> not (Txn_id.is_root h))
          Commlock_object.initial
          (Undo_invariants.project schema x trace)
      in
      List.iter
        (fun (t, h) ->
          if not (Txn_id.Set.mem !h committed) then
            Alcotest.failf "%s: %a open at the end, held by %a" (Obj_id.name x)
              Txn_id.pp t Txn_id.pp !h)
        left)
    schema.Schema.objects

let suite =
  ( "undo",
    [
      Alcotest.test_case "commuting ops interleave" `Quick
        t_commuting_ops_interleave;
      Alcotest.test_case "conflicting blocked until visible" `Quick
        t_conflicting_blocked_until_visible;
      Alcotest.test_case "undo on abort" `Quick t_undo_on_abort;
      Alcotest.test_case "sibling visibility" `Quick t_own_descendant_ops_visible;
      Alcotest.test_case "withdraw commutativity" `Quick
        t_withdraw_commutativity_in_action;
      Alcotest.test_case "mixed withdrawals block" `Quick
        t_failed_withdraw_conflicts_with_success;
      Alcotest.test_case "locally visible" `Quick t_locally_visible;
      Alcotest.test_case "fold waits for the top" `Quick t_fold_waits_for_the_top;
      Alcotest.test_case "lemma 20 catches a corrupted base" `Quick
        t_lemma20_catches_a_corrupted_base;
      Alcotest.test_case "logs drain at quiescence" `Quick t_logs_drain;
      Alcotest.test_case "lemmas 20/21/22 on generated" `Slow
        t_lemmas_on_generated;
    ] )
