open Core
open Util

(* Feed [trace] to [m] like [Monitor.feed_trace], checking after every
   feed that the replay check, which keeps a folded base, alarms as a
   from-scratch replay would: [Inappropriate x] has fired iff the
   visible operation sequence of [x] replayed from the initial state
   has ever been illegal, and it fired at the first feed that made it
   so. *)
let feed_checked schema m trace =
  let fired = Obj_id.Tbl.create 8 and illegal = Obj_id.Tbl.create 8 in
  let alarms = ref [] in
  Array.iteri
    (fun i a ->
      List.iter
        (fun al ->
          alarms := (i, al) :: !alarms;
          match al with
          | Monitor.Inappropriate x ->
              if not (Obj_id.Tbl.mem fired x) then Obj_id.Tbl.add fired x i
          | Monitor.Cycle _ -> ())
        (Monitor.feed m a);
      List.iter
        (fun x ->
          if
            (not (Obj_id.Tbl.mem illegal x))
            && not
                 (Serial_spec.legal (schema.Schema.dtype_of x)
                    (List.map
                       (fun (u, v) -> (schema.Schema.op_of u, v))
                       (Monitor.visible_operations m x)))
          then Obj_id.Tbl.add illegal x i;
          let at tbl =
            match Obj_id.Tbl.find_opt tbl x with
            | Some j -> string_of_int j
            | None -> "-"
          in
          if at fired <> at illegal then
            Alcotest.failf "%s, event %d: alarm at %s, replay illegal at %s"
              (Obj_id.name x) i (at fired) (at illegal))
        schema.Schema.objects)
    trace;
  List.rev !alarms

(* The monitor must stay silent on every correct protocol's behavior
   (and its folded replay agree with a from-scratch one throughout). *)
let t_silent_on_correct () =
  List.iter
    (fun (factory, name, gen) ->
      List.iter
        (fun seed ->
          let forest, schema =
            Gen.forest_and_schema gen ~seed
              { Gen.default with n_top = 6; depth = 2; n_objects = 3 }
          in
          let r = run_protocol ~abort_prob:0.05 ~seed schema factory forest in
          let m = Monitor.create schema in
          let alarms = feed_checked schema m r.Runtime.trace in
          if alarms <> [] then
            Alcotest.failf "%s seed %d: unexpected alarms (%d)" name seed
              (List.length alarms);
          check_bool "not alarmed" false (Monitor.alarmed m))
        (List.init 6 (fun i -> i + 1)))
    [
      (Moss_object.factory, "moss", Gen.registers);
      (Undo_object.factory, "undo", Gen.mixed);
      (Commlock_object.factory, "commlock", Gen.counters);
    ]

(* The pairs (a, b) with a path a ~> b of one edge or more, as names. *)
let closure g =
  let adj = Txn_id.Tbl.create 16 in
  Graph.iter_edges g (fun a b ->
      Txn_id.Tbl.replace adj a
        (b :: Option.value ~default:[] (Txn_id.Tbl.find_opt adj a)));
  let from a =
    let seen = Txn_id.Tbl.create 16 in
    let rec go u =
      List.iter
        (fun v ->
          if not (Txn_id.Tbl.mem seen v) then begin
            Txn_id.Tbl.add seen v ();
            go v
          end)
        (Option.value ~default:[] (Txn_id.Tbl.find_opt adj u))
    in
    go a;
    Txn_id.Tbl.fold
      (fun b () acc -> (Txn_id.to_string a, Txn_id.to_string b) :: acc)
      seen []
  in
  List.sort compare (List.concat_map from (Graph.nodes g))

(* Agreement with the offline construction at end of trace, both at
   operation level (the only mode the monitor serves), by a monitor
   that keeps the whole history, as the offline graph does.  The monitor
   draws precedes edges from the frontier only, so its edges
   are a subset of the offline ones with the same reachability, hence
   the same acyclicity; and it alarms iff the offline graph is cyclic
   or returns are inappropriate.  At every feed its replay alarm is the
   one a from-scratch replay gives ([feed_checked]), no-undo's leaked
   aborts included.  The depth-3 inputs bring inner commits, inner
   aborts and their orphans, whose work only the top's commit may make
   visible. *)
let t_agrees_with_offline () =
  List.iter
    (fun (factory, abort_prob, depth) ->
      List.iter
        (fun seed ->
          let forest, schema =
            Gen.forest_and_schema Gen.registers ~seed
              { Gen.default with n_top = 7; depth; n_objects = 2;
                read_ratio = 0.4 }
          in
          let r = run_protocol ~abort_prob ~seed schema factory forest in
          let beta = Trace.serial r.Runtime.trace in
          let offline = Sg.build Sg.Operation_level schema beta in
          let m = Monitor.create ~keep_history:true schema in
          let alarms = feed_checked schema m r.Runtime.trace in
          let sorted_edges g =
            List.sort compare
              (List.map
                 (fun (a, b) -> (Txn_id.to_string a, Txn_id.to_string b))
                 (Graph.edges g))
          in
          let online = Monitor.graph m in
          let offline_edges = sorted_edges offline in
          check_bool "monitor edges within offline edges" true
            (List.for_all
               (fun e -> List.mem e offline_edges)
               (sorted_edges online));
          check_bool "same pairs reachable" true
            (closure offline = closure online);
          check_bool "same acyclicity" (Graph.is_acyclic offline)
            (Graph.is_acyclic online);
          (* The incremental visible-operation sequences agree with the
             offline definition at end of trace. *)
          let vis = Trace.visible beta ~to_:Txn_id.root in
          List.iter
            (fun x ->
              check_bool "visible ops agree" true
                (Trace.operations schema.Schema.sys vis x
                = Monitor.visible_operations m x))
            schema.Schema.objects;
          let offline_cyclic = not (Graph.is_acyclic offline) in
          let online_cycle =
            List.exists (fun (_, a) -> match a with Monitor.Cycle _ -> true | _ -> false) alarms
          in
          check_bool "cycle agreement" offline_cyclic online_cycle;
          (* Return-value monitoring is per-prefix, hence stricter than
             the end-of-trace check on broken protocols (a dirty read
             can be "legalized" by its writer committing later): the
             end-of-trace violation must be caught online, and every
             online alarm must be justified by its own prefix. *)
          let offline_inappropriate =
            not (Return_values.appropriate_general schema beta)
          in
          let online_inappropriate =
            List.exists
              (fun (_, a) -> match a with Monitor.Inappropriate _ -> true | _ -> false)
              alarms
          in
          if offline_inappropriate then
            check_bool "offline violation caught online" true online_inappropriate;
          List.iter
            (fun (i, a) ->
              match a with
              | Monitor.Inappropriate _ ->
                  check_bool "alarm justified by its prefix" false
                    (Return_values.appropriate_general schema
                       (Trace.serial (Trace.prefix r.Runtime.trace (i + 1))))
              | Monitor.Cycle _ -> ())
            alarms)
        (List.init 10 (fun i -> i + 1)))
    [ (Moss_object.factory, 0.05, 1); (Broken.no_control, 0.0, 1);
      (Broken.no_control, 0.1, 1); (Broken.unsafe_read, 0.1, 1);
      (Broken.no_undo, 0.1, 1); (Moss_object.factory, 0.1, 3);
      (Undo_object.factory, 0.1, 3); (Broken.no_control, 0.1, 3);
      (Broken.no_undo, 0.1, 3) ]

(* The alarm fires before the end: its index is a strict prefix
   position, and feeding only that prefix to the offline checker
   already shows the violation. *)
let t_early_detection () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:3
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.4 }
  in
  let i, trace =
    find_seed "no violating run found" (fun seed ->
        let r = run_protocol ~seed schema Broken.no_control forest in
        let m = Monitor.create schema in
        match Monitor.feed_trace m r.Runtime.trace with
        | [] -> None
        | (i, _) :: _ -> Some (i, r.Runtime.trace))
  in
  check_bool "alarm strictly inside trace" true (i < Trace.length trace);
  (* The offline verdict on the prefix ending at the alarm is already
     negative. *)
  let prefix = Trace.prefix trace (i + 1) in
  check_bool "offline agrees on prefix" false
    (Checker.serially_correct schema prefix)

let t_cycle_witness_is_a_cycle () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:1
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.3 }
  in
  let c, g =
    find_seed "no cycle found" (fun seed ->
        let r = run_protocol ~seed schema Broken.no_control forest in
        let m = Monitor.create schema in
        let cycles =
          List.filter_map
            (fun (_, a) -> match a with Monitor.Cycle c -> Some c | _ -> None)
            (Monitor.feed_trace m r.Runtime.trace)
        in
        match cycles with
        | [] -> None
        | c :: _ -> Some (c, Monitor.graph m))
  in
  let arr = Array.of_list c in
  Array.iteri
    (fun i a ->
      let b = arr.((i + 1) mod Array.length arr) in
      check_bool "cycle edge in graph" true (Graph.mem_edge g a b))
    arr

(* The cumulative counters must agree with what the monitor actually
   did: feeds = trace length, edges = the edge count of the graph a
   monitor keeping the whole history holds (the same counters but for
   what it retires), and the alarm tallies = the alarms returned by
   [feed]. *)
let t_counters () =
  List.iter
    (fun (factory, name) ->
      let forest, schema =
        Gen.forest_and_schema Gen.registers ~seed:5
          { Gen.default with n_top = 6; depth = 1; n_objects = 2;
            read_ratio = 0.4 }
      in
      let r = run_protocol ~seed:5 schema factory forest in
      let m = Monitor.create schema in
      let kept = Monitor.create ~keep_history:true schema in
      let cycles = ref 0 and inapps = ref 0 in
      Array.iter
        (fun a ->
          ignore (Monitor.feed kept a);
          List.iter
            (function
              | Monitor.Cycle _ -> incr cycles
              | Monitor.Inappropriate _ -> incr inapps)
            (Monitor.feed m a))
        r.Runtime.trace;
      let c = Monitor.counters m in
      check_bool (name ^ " same counters as keeping history") true
        (c = Monitor.counters kept);
      check_int (name ^ " feeds") (Trace.length r.Runtime.trace)
        c.Monitor.feeds;
      check_int (name ^ " edges") (Graph.n_edges (Monitor.graph kept))
        c.Monitor.edges;
      check_int (name ^ " cycle alarms") !cycles c.Monitor.cycle_alarms;
      check_int (name ^ " inappropriate alarms") !inapps
        c.Monitor.inappropriate_alarms;
      check_bool (name ^ " operations seen") true (c.Monitor.operations > 0);
      check_bool (name ^ " alarmed agrees") (!cycles + !inapps > 0)
        (Monitor.alarmed m))
    [ (Moss_object.factory, "moss"); (Broken.no_control, "broken") ]

(* The commit gate's speculation predicts the feed exactly.  Before
   each [Commit w] the test runs [Admission.gate]'s sequence:
   [prospective_commit_edges] names the edges the feed then adds (those
   the graph does not hold yet), each with the provenance the feed
   records; [edges_would_cycle] is [Some] exactly when the feed raises
   a [Cycle]; then the [Commit] is fed and applies the kept walk.  A
   second monitor that is never speculated on is fed the same actions
   in lockstep, and after every action both must report the same edges
   with the same witnesses, the same order, reorder count, alarms and
   visible operations.
   A second pass leaves every walk stale: it speculates each top-level
   commit at the first action after the previous one, so the [Commit]
   arrives after the actions in between were fed on top of its walk.
   Each run stops at its first cycle alarm, after which the graph holds
   a cycle and no longer gates anything. *)
let t_speculation_matches_feed () =
  let key (a, b) = (Txn_id.to_string a, Txn_id.to_string b) in
  let keys edges = List.sort compare (List.map key edges) in
  let prov p = Format.asprintf "%a" Monitor.pp_provenance p in
  let is_cycle = function Monitor.Cycle _ -> true | _ -> false in
  let cycles = ref 0 and predicted_edges = ref 0 and stale_commits = ref 0 in
  List.iter
    (fun (factory, name, gen) ->
      List.iter
        (fun ((seed, shape), stale) ->
          let forest, schema = Gen.forest_and_schema gen ~seed shape in
          let r = run_protocol ~abort_prob:0.05 ~seed schema factory forest in
          let trace = r.Runtime.trace in
          let n = Trace.length trace in
          let rec next_top_commit j =
            if j >= n then None
            else
              match trace.(j) with
              | Action.Commit w when Txn_id.depth w = 1 -> Some w
              | _ -> next_top_commit (j + 1)
          in
          let m = Monitor.create schema and plain = Monitor.create schema in
          let g = Monitor.graph m in
          let speculated = ref None in
          let rec go i =
            if i < n then begin
              let a = trace.(i) in
              let tag =
                Printf.sprintf "%s seed %d event %d%s" name seed i
                  (if stale then " (stale walks)" else "")
              in
              let alarms =
                match a with
                | Action.Commit w when not stale ->
                    let held = keys (Graph.edges g) in
                    let edges = Monitor.prospective_commit_edges m w in
                    let fresh =
                      List.filter
                        (fun (a, b, _) -> not (List.mem (key (a, b)) held))
                        edges
                    in
                    let verdict = Monitor.edges_would_cycle m edges in
                    let alarms = Monitor.feed m a in
                    let gained =
                      List.filter
                        (fun e -> not (List.mem e held))
                        (keys (Graph.edges g))
                    in
                    let predicted = List.map (fun (a, b, _) -> (a, b)) fresh in
                    check_bool (tag ^ ": gained edges = predicted") true
                      (gained = keys predicted);
                    List.iter
                      (fun (a, b, p) ->
                        check_bool (tag ^ ": predicted provenance") true
                          (Option.map prov (Graph.label g a b)
                          = Some (prov p)))
                      fresh;
                    check_bool (tag ^ ": verdict = cycle alarm")
                      (List.exists is_cycle alarms)
                      (verdict <> None);
                    predicted_edges := !predicted_edges + List.length fresh;
                    alarms
                | Action.Commit w ->
                    if Option.equal Txn_id.equal !speculated (Some w) then
                      incr stale_commits;
                    Monitor.feed m a
                | _ ->
                    let next = next_top_commit (i + 1) in
                    if stale && not (Option.equal Txn_id.equal next !speculated)
                    then begin
                      speculated := next;
                      Option.iter
                        (fun w -> ignore (Monitor.prospective_commit_edges m w))
                        next
                    end;
                    Monitor.feed m a
              in
              check_bool (tag ^ ": same alarms as unspeculated") true
                (alarms = Monitor.feed plain a);
              check_bool (tag ^ ": same edges, witnesses and order") true
                (monitor_report m = monitor_report plain);
              List.iter
                (fun x ->
                  check_bool (tag ^ ": same visible operations") true
                    (Monitor.visible_operations m x
                    = Monitor.visible_operations plain x))
                schema.Schema.objects;
              if List.exists is_cycle alarms then incr cycles else go (i + 1)
            end
          in
          go 0)
        (List.concat_map
           (fun seed ->
             List.concat_map
               (fun run -> [ (run, false); (run, true) ])
               [
                 ( seed,
                   { Gen.default with n_top = 6; depth = 2; n_objects = 2;
                     read_ratio = 0.4 } );
                 ( seed,
                   { Gen.default with n_top = 8; depth = 1; n_objects = 1;
                     read_ratio = 0.3 } );
               ])
           (List.init 8 (fun i -> i + 1))))
    [
      (Moss_object.factory, "moss", Gen.registers);
      (Undo_object.factory, "undo", Gen.mixed);
      (Broken.no_control, "no-control", Gen.registers);
    ];
  check_bool "some commit was predicted to add edges" true
    (!predicted_edges > 0);
  check_bool "some run reached a cycle alarm" true (!cycles > 0);
  check_bool "some commit was fed over a stale walk" true (!stale_commits > 0)

(* The witness order over the graph of a monitor keeping the whole
   history is a real Theorem-8 witness on alarm-free runs: defined, it
   orders the endpoints of every SG edge (all edges relate siblings),
   and it is suitable for T0. *)
let t_witness_order () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:9
      { Gen.default with n_top = 6; depth = 2; n_objects = 3 }
  in
  let r = run_protocol ~abort_prob:0.05 ~seed:9 schema Moss_object.factory forest in
  let m = Monitor.create ~keep_history:true schema in
  let alarms = Monitor.feed_trace m r.Runtime.trace in
  check_bool "no alarms" true (alarms = []);
  match Sg.witness_order (Monitor.graph m) with
  | None -> Alcotest.fail "alarm-free monitor has no witness order"
  | Some order ->
      Graph.iter_edges (Monitor.graph m) (fun a b ->
          check_bool "witness order respects every SG edge" true
            (Sibling_order.mem order a b));
      check_bool "witness order is suitable for T0" true
        (Suitability.is_suitable
           (Trace.serial r.Runtime.trace)
           ~to_:Txn_id.root order)

(* Once a cycle alarm fires, there is no witness order to read. *)
let t_witness_order_gone_on_cycle () =
  let forest, schema =
    Gen.forest_and_schema Gen.registers ~seed:1
      { Gen.default with n_top = 8; depth = 1; n_objects = 1; read_ratio = 0.3 }
  in
  let m =
    find_seed "no cycle found" (fun seed ->
        let r = run_protocol ~seed schema Broken.no_control forest in
        let m = Monitor.create schema in
        let cycles =
          List.filter
            (fun (_, a) -> match a with Monitor.Cycle _ -> true | _ -> false)
            (Monitor.feed_trace m r.Runtime.trace)
        in
        if cycles = [] then None else Some m)
  in
  check_bool "no witness order after a cycle" true
    (Sg.witness_order (Monitor.graph m) = None)

let t_counters_fresh () =
  let _, schema = Gen.forest_and_schema Gen.registers ~seed:1 Gen.default in
  let c = Monitor.counters (Monitor.create schema) in
  check_int "no feeds" 0 c.Monitor.feeds;
  check_int "no operations" 0 c.Monitor.operations;
  check_int "no edges" 0 c.Monitor.edges;
  check_int "no alarms" 0 (c.Monitor.cycle_alarms + c.Monitor.inappropriate_alarms)

(* A gated engine over 8 registers (Moss unless [factory] says
   otherwise), driven as a closed loop of 16 clients submitting
   SmallBank programs (hot unless [theta] says otherwise) until
   [programs] have completed; [each_step] runs after every step. *)
let smallbank_loop ?(each_step = ignore) ?(factory = Moss_object.factory)
    ?(theta = 0.9) ?max_steps ~on_action ~programs () =
  let objects =
    List.init 8 (fun i -> (Obj_id.indexed "acct" i, Register.make ()))
  in
  let accounts = Array.of_list (List.map fst objects) in
  let eng = Engine.create ?max_steps ~seed:7 ~on_action objects factory in
  let rng = Rng.create 7 in
  let rec loop () =
    while Engine.live_top eng < 16 && Engine.submitted eng < programs do
      match Engine.submit eng (Gen.smallbank_txn ~theta rng accounts) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e
    done;
    let st = Engine.step eng in
    each_step eng;
    match st with
    | `Progress -> loop ()
    | `Quiescent -> if Engine.submitted eng < programs then loop ()
    | `Truncated -> Alcotest.fail "truncated"
  in
  loop ();
  eng

(* Precedes as an interval order keeps the monitor's work linear in
   history.  A closed loop of 16 clients over 8 Moss registers inserts
   no more SG edges per top in its last tenth than 1.5x its second
   (all-history precedes edges made that ratio grow with the run; the
   first tenth is warm-up, its tops having few older ones to conflict
   with); T0's frontier never holds more tops than were open at once;
   and the request index holds open requests only. *)
let requested m = List.assoc "requested" (Monitor.census m)

let t_state_grows_linearly () =
  let total = 2000 in
  let open_requests = ref 0 and open_tops = ref 0 and most_open = ref 0 in
  let on_action = function
    | Action.Request_create u when not (Txn_id.is_root u) ->
        incr open_requests;
        if Txn_id.depth u = 1 then begin
          incr open_tops;
          most_open := max !most_open !open_tops
        end
    | (Action.Report_commit (u, _) | Action.Report_abort u)
      when not (Txn_id.is_root u) ->
        decr open_requests;
        if Txn_id.depth u = 1 then decr open_tops
    | _ -> ()
  in
  (* [edges_at.(k)]: the edges inserted by the last step with [k] tops
     completed (a step completes at most one: nothing is killed). *)
  let edges_at = Array.make (total + 1) 0 in
  let each_step eng =
    let m = Admission.monitor (Engine.admission eng) in
    let done_ = Engine.committed_top eng + Engine.aborted_top eng in
    edges_at.(done_) <- (Monitor.counters m).Monitor.edges;
    if Monitor.frontier_width m Txn_id.root > !most_open then
      Alcotest.failf "T0 frontier %d wider than the %d tops ever open at once"
        (Monitor.frontier_width m Txn_id.root)
        !most_open;
    if requested m > !open_requests then
      Alcotest.failf "request index holds %d, only %d requests open"
        (requested m) !open_requests
  in
  let eng = smallbank_loop ~each_step ~on_action ~programs:total () in
  let m = Admission.monitor (Engine.admission eng) in
  check_int "every top completed" total
    (Engine.committed_top eng + Engine.aborted_top eng);
  check_int "no request left open" 0 (requested m);
  let tenth = total / 10 in
  let second = edges_at.(2 * tenth) - edges_at.(tenth)
  and last = edges_at.(total) - edges_at.(total - tenth) in
  if 2 * last > 3 * second then
    Alcotest.failf "edges per top grew: %d in the second tenth, %d in the last"
      second last

(* Retirement bounds the monitor's state by what is open and recent.
   The closed loop runs 20 000 undo programs over 8 registers (16
   clients, uniform accounts, seed 7), and a sample every 499 steps
   reads the graph's reachable words (labels included) and the
   monitor's census.  Averaged over the whole run, each stays within
   1.2x of its average over the first 2 000 programs (a graph keeping
   the whole history grows about tenfold).  [aborted] is left out:
   it keeps every aborted transaction, a growth retirement does not
   touch.  And whenever no top is open, whether in this loop or the
   hot Moss one, everything has retired: the graph is empty and only
   [aborted], and records waiting for the fold, remain. *)
let t_state_bounded_by_open () =
  let quiet_ok = [ "aborted"; "tail" ] in
  let open_tops = ref 0 in
  let on_action = function
    | Action.Request_create u when Txn_id.depth u = 1 -> incr open_tops
    | (Action.Report_commit (u, _) | Action.Report_abort u)
      when Txn_id.depth u = 1 ->
        decr open_tops
    | _ -> ()
  in
  let quiet_steps = ref 0 in
  let check_quiet eng =
    if !open_tops = 0 then begin
      incr quiet_steps;
      List.iter
        (fun (k, v) ->
          if v <> 0 && not (List.mem k quiet_ok) then
            Alcotest.failf "no top open, yet %s holds %d" k v)
        (Monitor.census (Admission.monitor (Engine.admission eng)))
    end
  in
  let total = 20_000 and early = 2_000 in
  let sums = Hashtbl.create 16 in
  let add window k v =
    let n, s =
      Option.value ~default:(0, 0) (Hashtbl.find_opt sums (window, k))
    in
    Hashtbl.replace sums (window, k) (n + 1, s + v)
  in
  let steps = ref 0 in
  let each_step eng =
    check_quiet eng;
    incr steps;
    if !steps mod 499 = 0 then begin
      let m = Admission.monitor (Engine.admission eng) in
      let sample =
        ("graph words", Obj.reachable_words (Obj.repr (Monitor.graph m)))
        :: List.filter (fun (k, _) -> k <> "aborted") (Monitor.census m)
      in
      let done_ = Engine.committed_top eng + Engine.aborted_top eng in
      List.iter
        (fun (k, v) ->
          add `Run k v;
          if done_ < early then add `Early k v)
        sample
    end
  in
  ignore
    (smallbank_loop ~each_step ~on_action ~factory:Undo_object.factory
       ~theta:0.0 ~max_steps:max_int ~programs:total ());
  let mean window k =
    let n, s = Hashtbl.find sums (window, k) in
    float_of_int s /. float_of_int n
  in
  Hashtbl.iter
    (fun (window, k) _ ->
      if window = `Early && mean `Run k > 1.2 *. mean `Early k then
        Alcotest.failf
          "%s averages %.1f over %d programs, %.1f over the first %d" k
          (mean `Run k) total (mean `Early k) early)
    sums;
  check_bool "the graph was sampled" true (mean `Early "graph.nodes" > 0.);
  ignore
    (smallbank_loop ~each_step:check_quiet ~on_action ~programs:2000 ());
  check_bool "some step had no top open" true (!quiet_steps > 0)

(* Each access is resolved once.  A monitor resolves an access's
   object and operation from its name when it records the response,
   and the conflict scan and the replay read the record, never the
   schema.  A gated SmallBank closed loop of 300 programs is fed, with each top-level commit speculated first as
   the gate does, to a monitor whose schema counts its [op_of] calls
   and its system type's classifications: one [op_of] per access
   response and at most one classification per [Request_commit]. *)
let t_resolves_each_access_once () =
  let actions = ref [] in
  let eng =
    smallbank_loop
      ~on_action:(fun a -> actions := a :: !actions)
      ~programs:300 ()
  in
  let base = Engine.schema eng in
  let op_of_calls = ref 0 and classify_calls = ref 0 in
  let schema =
    {
      base with
      Schema.sys =
        System_type.make (fun u ->
            incr classify_calls;
            System_type.kind base.Schema.sys u);
      op_of =
        (fun u ->
          incr op_of_calls;
          base.Schema.op_of u);
    }
  in
  classify_calls := 0;
  let m = Monitor.create schema in
  let responses = ref 0 and request_commits = ref 0 in
  List.iter
    (fun a ->
      (match a with
      | Action.Request_commit (u, _) ->
          incr request_commits;
          if System_type.is_access base.Schema.sys u then incr responses
      | Action.Commit w when Txn_id.depth w = 1 ->
          ignore (Monitor.prospective_commit_edges m w)
      | _ -> ());
      ignore (Monitor.feed m a))
    (List.rev !actions);
  check_bool "the loop drew conflict edges" true
    ((Monitor.counters m).Monitor.edges > 0);
  check_int "one op_of per access response" !responses !op_of_calls;
  if !classify_calls > !request_commits then
    Alcotest.failf "%d classifications for %d Request_commit actions"
      !classify_calls !request_commits

(* A Pending record holds the fold back: [a1]'s read (recorded first)
   waits for its top while [a2]'s later write becomes visible and is
   replayed behind it.  When [T1] commits, the read becomes visible
   ahead of the write with a value no replay from the initial state
   gives, and that commit is flagged. *)
let t_pending_record_holds_the_fold () =
  let x = Obj_id.make "r" in
  let forest =
    [
      Program.seq [ Program.access x Datatype.Read ];
      Program.seq [ Program.access x (Datatype.Write (Value.Int 1)) ];
    ]
  in
  let schema = Program.schema_of ~objects:[ (x, Register.make ()) ] forest in
  let t1 = txn [ 0 ] and a1 = txn [ 0; 0 ] in
  let t2 = txn [ 1 ] and a2 = txn [ 1; 0 ] in
  let trace =
    trace_of
      [
        open_txn t1;
        leaf_txn a1 (Value.Int 1);
        open_txn t2;
        leaf_txn a2 Value.Ok;
        commit_txn t2 Value.Ok;
        commit_txn t1 Value.Ok;
      ]
  in
  let commit_t1 =
    let rec find i =
      if trace.(i) = Action.Commit t1 then i else find (i + 1)
    in
    find 0
  in
  Alcotest.(check (list int)) "flagged at T1's commit" [ commit_t1 ]
    (List.filter_map
       (fun (i, a) ->
         match a with Monitor.Inappropriate _ -> Some i | Monitor.Cycle _ -> None)
       (feed_checked schema (Monitor.create schema) trace))

(* Order tripwire.  A top's commit activates what was registered under
   it in the order the monitor first asked about each transaction, and
   that order fixes edge insertion order: the maintained order,
   [Graph.reorders] and which witness each edge keeps.  No verdict
   depends on it, so nothing else notices when it drifts.  The digests
   pin the edges with their witnesses, the order and the reorder count
   of a monitor keeping the whole history over fixed nested runs with
   aborts, three seeds per backend and shape.  A change that moves them
   on purpose re-pins them. *)
let pinned_orders =
  [
    ("moss", "default", "356cff20d94a21292cc6ada732973e4a");
    ("moss", "lock-heavy", "2b88469b9b9a894b6e70b354c122bd7b");
    ("moss", "deep-nesting", "1088a8ec3f06d41eb6769113e630fb73");
    ("moss", "abort-storm", "2f9ac5cde726b3f435a253c9a186e46c");
    ("no-control", "default", "6c931c16c26c2df8b4e2a60eccd703f8");
    ("no-control", "lock-heavy", "62f99d92ba9b6efed730e81e092cacaa");
    ("no-control", "deep-nesting", "04036ada2abe6f4f4c0ea5493967ef4f");
    ("no-control", "abort-storm", "7f99cdec76c39d284133ac1551b4df8b");
  ]

let t_order_tripwire () =
  let shapes =
    [ (Check.Default, "default"); (Check.Lock_heavy, "lock-heavy");
      (Check.Deep_nesting, "deep-nesting"); (Check.Abort_storm, "abort-storm") ]
  in
  List.iter
    (fun backend ->
      let name = Check.backend_name backend in
      List.iter
        (fun (shape, shape_name) ->
          let b = Buffer.create 4096 in
          for i = 0 to 2 do
            let sc =
              Check.gen_scenario ~grammar:Check.Mixed ~shape backend
                (Rng.create (4600 + i))
            in
            let schema = Check.schema_of_scenario sc in
            let r =
              Runtime.run ~policy:sc.Check.policy
                ~inform_policy:sc.Check.inform_policy
                ~abort_prob:(Float.max 0.05 sc.Check.abort_prob)
                ~seed:sc.Check.sched_seed schema (Check.factory_of backend)
                sc.Check.forest
            in
            let m = Monitor.create ~keep_history:true schema in
            ignore (Monitor.feed_trace m r.Runtime.trace);
            let g = Monitor.graph m in
            List.iter
              (fun (a, bb) ->
                Buffer.add_string b
                  (Format.asprintf "%a -> %a [%a]\n" Txn_id.pp a Txn_id.pp bb
                     (Format.pp_print_option Monitor.pp_provenance)
                     (Graph.label g a bb)))
              (List.sort compare (Graph.edges g));
            (match Graph.order g with
            | Some order ->
                List.iter
                  (fun u -> Buffer.add_string b (Txn_id.to_string u ^ " "))
                  order
            | None -> Buffer.add_string b "cyclic");
            Buffer.add_string b
              (Printf.sprintf "\nreorders %d\n" (Graph.reorders g))
          done;
          let got = Digest.to_hex (Digest.string (Buffer.contents b)) in
          match
            List.find_opt
              (fun (n, s, _) -> n = name && s = shape_name)
              pinned_orders
          with
          | Some (_, _, want) when want = got -> ()
          | _ ->
              Alcotest.failf "%s %s: monitor order moved (now %s)" name
                shape_name got)
        shapes)
    [ Check.Moss; Check.No_control ]

(* Retirement changes no verdict.  Every backend (the verified ones and
   the broken ones, whose dirty reads let a reported top gain edges
   from an open one) runs scenarios of every shape, once closed (the
   runtime requests tops as it goes) and once served ungated on one
   shard (tops arrive over time, the case where tops settle
   mid-run), and [Check.retirement_agreement] feeds each trace to a
   retiring and a keeping monitor in lockstep, speculating every
   top-level commit on both: same alarms, same gate verdicts and
   witness text, and at every prefix the retiring graph is the keeping
   one's induced subgraph with every open top present.  The runs must
   retire nodes, veto commits and raise alarms, or the comparison
   would be empty.  Replication serves physical programs under another
   schema, so it runs closed only. *)
let t_retirement_changes_no_verdict () =
  let shapes =
    [ Check.Default; Check.Lock_heavy; Check.Deep_nesting; Check.Abort_storm ]
  in
  let vetoes = ref 0 and alarms = ref 0 and retired = ref 0 in
  List.iter
    (fun backend ->
      List.iter
        (fun shape ->
          for i = 0 to 5 do
            let sc =
              Check.gen_scenario ~shape backend (Rng.create (5100 + i))
            in
            let schema = Check.schema_of_scenario sc in
            let r =
              Runtime.run ~policy:sc.Check.policy
                ~inform_policy:sc.Check.inform_policy
                ~abort_prob:(Float.max 0.05 sc.Check.abort_prob)
                ~seed:sc.Check.sched_seed schema (Check.factory_of backend)
                sc.Check.forest
            in
            let served =
              if backend = Check.Replication then []
              else
                [ ( "served",
                    (Check.serve_sharded ~gating:false ~shards:1 ~seed:i
                       backend sc)
                      .Check.sh_report
                      .Check.s_trace ) ]
            in
            List.iter
              (fun (how, trace) ->
                match Check.retirement_agreement schema trace with
                | Ok a ->
                    vetoes := !vetoes + a.Check.ra_vetoes;
                    alarms := !alarms + a.Check.ra_alarms;
                    retired := !retired + a.Check.ra_retired
                | Error e ->
                    Alcotest.failf "%s %s seed %d: %s"
                      (Check.backend_name backend) how (5100 + i) e)
              (("closed", r.Runtime.trace) :: served)
          done)
        shapes)
    Check.all_backends;
  check_bool "some node retired" true (!retired > 0);
  check_bool "some commit vetoed" true (!vetoes > 0);
  check_bool "some alarm raised" true (!alarms > 0)

(* A settled top behind an unsettled one stays.  [T2] reports before
   [T3] is requested, so once [T1] reports it is settled; but [T1], not
   settled, read [x] before [T2] wrote it ([T1 -> T2]) and reads [y]
   dirty from the open [T3].  [T3]'s commit draws [T3 -> T1], closing
   [T3 -> T1 -> T2 -> T3] through [T2]'s older edges: retiring [T2] at
   [T1]'s report would lose the cycle. *)
let t_settled_behind_unsettled_stays () =
  let x = Obj_id.make "x" and y = Obj_id.make "y" in
  let read o = Program.access o Datatype.Read
  and write o v = Program.access o (Datatype.Write (Value.Int v)) in
  let forest =
    [ Program.seq [ read x; read y ]; Program.seq [ write x 1 ];
      Program.seq [ write y 5 ] ]
  in
  let schema =
    Program.schema_of
      ~objects:[ (x, Register.make ()); (y, Register.make ()) ]
      forest
  in
  let t1 = txn [ 0 ] and t2 = txn [ 1 ] and t3 = txn [ 2 ] in
  let trace =
    trace_of
      [
        open_txn t1;
        leaf_txn (txn [ 0; 0 ]) (Value.Int 0);
        open_txn t2;
        leaf_txn (txn [ 1; 0 ]) Value.Ok;
        commit_txn t2 Value.Ok;
        open_txn t3;
        leaf_txn (txn [ 2; 0 ]) Value.Ok;
        leaf_txn (txn [ 0; 1 ]) (Value.Int 5);
        commit_txn t1 Value.Ok;
        commit_txn t3 Value.Ok;
      ]
  in
  let cycles =
    List.filter
      (fun (_, a) -> match a with Monitor.Cycle _ -> true | _ -> false)
      (Monitor.feed_trace (Monitor.create schema) trace)
  in
  check_int "the cycle is caught" 1 (List.length cycles);
  match Check.retirement_agreement schema trace with
  | Ok a -> check_int "one veto" 1 a.Check.ra_vetoes
  | Error e -> Alcotest.fail e

let suite =
  ( "monitor",
    [
      Alcotest.test_case "silent on correct protocols" `Slow t_silent_on_correct;
      Alcotest.test_case "agrees with offline construction" `Slow
        t_agrees_with_offline;
      Alcotest.test_case "early detection" `Quick t_early_detection;
      Alcotest.test_case "cycle witness is a cycle" `Quick
        t_cycle_witness_is_a_cycle;
      Alcotest.test_case "counters agree with activity" `Quick t_counters;
      Alcotest.test_case "gate speculation matches the feed" `Quick
        t_speculation_matches_feed;
      Alcotest.test_case "witness order from the monitor's graph" `Quick
        t_witness_order;
      Alcotest.test_case "witness order gone on cycle" `Quick
        t_witness_order_gone_on_cycle;
      Alcotest.test_case "counters start at zero" `Quick t_counters_fresh;
      Alcotest.test_case "state grows linearly" `Quick t_state_grows_linearly;
      Alcotest.test_case "state bounded by what is open" `Slow
        t_state_bounded_by_open;
      Alcotest.test_case "resolves each access once" `Quick
        t_resolves_each_access_once;
      Alcotest.test_case "pending record holds the fold back" `Quick
        t_pending_record_holds_the_fold;
      Alcotest.test_case "order tripwire" `Quick t_order_tripwire;
      Alcotest.test_case "retirement changes no verdict" `Quick
        t_retirement_changes_no_verdict;
      Alcotest.test_case "settled top behind an unsettled one stays" `Quick
        t_settled_behind_unsettled_stays;
    ] )
