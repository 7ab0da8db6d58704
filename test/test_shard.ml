(* The multicore sharding subsystem: partitioning, static footprints,
   program splitting, the cross-shard spine gate, the deterministic
   cluster harness, the live domain service, and the sharded
   differential sweep against the single-shard gate. *)

open Core
open Util

let obj = Obj_id.make
let registers names = List.map (fun n -> (obj n, Register.make ())) names
let numbered prefix n = List.init n (fun i -> Printf.sprintf "%s%d" prefix i)

(* ----- partitioning ----- *)

let t_partition_total_and_stable () =
  let objects = registers (numbered "o" 16) in
  let part = Partition.create ~shards:4 objects in
  List.iter
    (fun (x, _) ->
      let s = Partition.shard_of part x in
      check_bool "in range" true (s >= 0 && s < 4);
      check_int "stable" s (Partition.shard_of part x);
      check_bool "declared on its shard" true
        (List.exists
           (fun (y, _) -> Obj_id.equal x y)
           (Partition.objects_of part s)))
    objects;
  let total = List.concat (List.init 4 (Partition.objects_of part)) in
  check_int "partition covers the table" (List.length objects)
    (List.length total);
  check_int "shards accessor" 4 (Partition.shards part)

let t_partition_cosharding () =
  (* Replica names group by their logical object: every quorum subtree
     lands on one shard, whatever the shard count. *)
  let objects = registers [ "x#0"; "x#1"; "x#2"; "a#b#0"; "a#b#1"; "y#0" ] in
  List.iter
    (fun shards ->
      let part = Partition.create ~shards objects in
      let s = Partition.shard_of part (obj "x#0") in
      check_int "x replicas co-shard" s (Partition.shard_of part (obj "x#1"));
      check_int "x replicas co-shard" s (Partition.shard_of part (obj "x#2"));
      check_int "key strips only the last #"
        (Partition.shard_of part (obj "a#b#0"))
        (Partition.shard_of part (obj "a#b#1")))
    [ 2; 3; 5 ];
  check_bool "default key strips the suffix" true
    (Partition.default_key (obj "x#12") = "x"
    && Partition.default_key (obj "a#b#0") = "a#b"
    && Partition.default_key (obj "plain") = "plain")

(* ----- static footprints ----- *)

let t_footprint_extraction () =
  let p =
    Program.seq
      [
        Program.access x0 Datatype.Read;
        Program.par
          [
            Program.access y0 (Datatype.Write (Value.Int 1));
            Program.access x0 (Datatype.Write (Value.Int 2));
          ];
        Program.access y0 Datatype.Read;
      ]
  in
  let names = List.map Obj_id.name (Program.objects p) in
  Alcotest.(check (list string))
    "distinct, first-access order" [ "x"; "y" ] names;
  let part1 = Partition.create ~shards:1 [ (x0, Register.make ()); (y0, Register.make ()) ] in
  check_bool "one shard always local" true
    (Footprint.classify part1 p = Footprint.Local 0)

(* Every object a program touches at runtime resolves to a leaf
   recorded in its static footprint, and every inform goes to an object
   of the completed transaction's own subprogram — across every grammar
   (smallbank included) and the adversarial nested-abort shapes, whose
   mid-flight aborts exercise partially-executed subtrees. *)
let t_footprint_covers_runtime () =
  let grammars =
    [ Check.Rw; Check.Counters; Check.Mixed; Check.Weighted; Check.Smallbank ]
  in
  let shapes =
    [ Check.Default; Check.Lock_heavy; Check.Deep_nesting; Check.Abort_storm ]
  in
  List.iter
    (fun grammar ->
      List.iter
        (fun shape ->
          let rng =
            Rng.create
              (0xF007 + Hashtbl.hash (Check.grammar_name grammar) + Hashtbl.hash shape)
          in
          for _ = 1 to 5 do
            let sc = Check.gen_scenario ~grammar ~shape Check.Undo rng in
            let schema = Check.schema_of_scenario sc in
            let r =
              Runtime.run ~policy:sc.Check.policy
                ~inform_policy:sc.Check.inform_policy
                ~abort_prob:sc.Check.abort_prob ~seed:sc.Check.sched_seed
                schema
                (Check.factory_of Check.Undo)
                sc.Check.forest
            in
            let feet = List.map Program.objects sc.Check.forest in
            List.iter
              (fun a ->
                let t = Action.subject a in
                match Txn_id.path t with
                | [] -> ()
                | j :: _ -> (
                    match Program.subprogram sc.Check.forest t with
                    | Some (Program.Access (x, _)) ->
                        check_bool
                          (Printf.sprintf "%s/%s: %s in footprint"
                             (Check.grammar_name grammar)
                             (Obj_id.name x) (Action.to_string a))
                          true
                          (List.exists (Obj_id.equal x) (List.nth feet j))
                    | _ -> ());
                match a with
                | Action.Inform_commit (x, t) | Action.Inform_abort (x, t) ->
                    (* The runtime informs only the completed
                       transaction's own footprint. *)
                    check_bool
                      (Printf.sprintf "%s: %s informs its own footprint"
                         (Check.grammar_name grammar) (Action.to_string a))
                      true
                      (match Program.subprogram sc.Check.forest t with
                      | Some p -> List.exists (Obj_id.equal x) (Program.objects p)
                      | None -> false)
                | _ -> ())
              (Trace.to_list r.Runtime.trace)
          done)
        shapes)
    grammars

(* ----- splitting ----- *)

let t_split_pieces () =
  let objects = registers (numbered "s" 12) in
  let part = Partition.create ~shards:3 objects in
  let prog =
    Program.seq
      (List.mapi
         (fun i (x, _) ->
           if i mod 2 = 0 then Program.access x Datatype.Read
           else
             Program.par
               [
                 Program.access x (Datatype.Write (Value.Int i));
                 Program.access x Datatype.Read;
               ])
         objects)
  in
  let pieces = Split.pieces part prog in
  let shards_of = List.map fst pieces in
  check_bool "ascending distinct shards" true
    (List.sort_uniq compare shards_of = shards_of);
  List.iter
    (fun (s, p) ->
      List.iter
        (fun x -> check_int "piece is shard-pure" s (Partition.shard_of part x))
        (Program.objects p))
    pieces;
  let multiset p =
    List.map (fun (x, op) -> (Obj_id.name x, op)) (Program.accesses p)
    |> List.sort compare
  in
  check_bool "accesses preserved by split + merge" true
    (multiset prog = multiset (Split.merged (List.map snd pieces)));
  check_bool "shard-pure program projects whole" true
    (match Footprint.classify part prog with
    | Footprint.Local _ -> false
    | Footprint.Cross ss -> List.length ss = List.length pieces)

(* ----- the spine gate ----- *)

let t_spine_rail_veto () =
  let sp = Spine.create () in
  let g0 = 0 and g1 = 2 in
  ignore (Spine.note_submit sp g0);
  ignore (Spine.note_submit sp 1);
  ignore (Spine.note_complete sp g0);
  ignore (Spine.note_submit sp g1);
  (* g0 reported before g1 was requested: the time rail runs g0 -> g1,
     so an explicit g1 -> g0 conflict edge closes a cycle.  [T0.1],
     open since before g0's report, keeps g0 unsettled, so it stays. *)
  (match Spine.gate sp ~top:g1 ~edges:[ (g1, g0, lazy "w(x) conflict") ] with
  | Spine.Vetoed { cycle; witness } ->
      check_bool "cycle names both tops" true
        (List.exists (Txn_id.equal (Txn_id.of_path [ g0 ])) cycle
        && List.exists (Txn_id.equal (Txn_id.of_path [ g1 ])) cycle);
      check_bool "witness explains the rail edge" true
        (Astring_like.contains witness "rail");
      check_bool "witness carries the conflict" true
        (Astring_like.contains witness "w(x) conflict")
  | Spine.Admitted -> Alcotest.fail "rail cycle admitted");
  check_int "veto installs nothing" 0 (Spine.edge_count sp);
  (* The agreeing direction is fine: the rail already orders it, so it
     is dropped before any decision. *)
  (match Spine.gate sp ~top:g1 ~edges:[ (g0, g1, lazy "w(x) conflict") ] with
  | Spine.Admitted -> ()
  | Spine.Vetoed _ -> Alcotest.fail "rail-consistent edge vetoed");
  check_int "rail-ordered edge installs nothing" 0 (Spine.edge_count sp);
  check_int "one decision" 1 (Spine.checks sp);
  check_int "one veto" 1 (Spine.vetoes sp)

let t_spine_explicit_cycle () =
  let sp = Spine.create () in
  let a = 0 and b = 1 and c = 2 in
  ignore (Spine.note_submit sp a);
  ignore (Spine.note_submit sp b);
  ignore (Spine.note_submit sp c);
  (* All three overlap in time: no rail edges, only explicit ones. *)
  (match Spine.gate sp ~top:a ~edges:[ (a, b, lazy "e1") ] with
  | Spine.Admitted -> ()
  | Spine.Vetoed _ -> Alcotest.fail "a->b vetoed");
  (match Spine.gate sp ~top:b ~edges:[ (b, c, lazy "e2") ] with
  | Spine.Admitted -> ()
  | Spine.Vetoed _ -> Alcotest.fail "b->c vetoed");
  match Spine.gate sp ~top:c ~edges:[ (c, a, lazy "e3") ] with
  | Spine.Vetoed { cycle; witness } ->
      check_int "three-top cycle" 3 (List.length cycle);
      check_bool "witness chains the edges" true
        (Astring_like.contains witness "e1"
        && Astring_like.contains witness "e2"
        && Astring_like.contains witness "e3")
  | Spine.Admitted -> Alcotest.fail "explicit 3-cycle admitted"

(* A settled top behind an unsettled one stays: the Spine form of the
   monitor's trace.  [T0.1] reports while [T0.0] is open, [T0.2] is
   requested after, and a shipped [T0.0 -> T0.1] puts [T0.0] before
   [T0.1] in the order.  Once [T0.0] reports, [T0.1] is settled but
   [T0.0] is not, so [T0.1] stays, and [T0.2 -> T0.0] closes
   [T0.2 -> T0.0 -> T0.1 -> T0.2] through its rail edge.  Retiring
   [T0.1] on the watermark alone would lose the cycle. *)
let t_spine_settled_behind_unsettled () =
  let sp = Spine.create () in
  ignore (Spine.note_submit sp 0);
  ignore (Spine.note_submit sp 1);
  let c1 = Spine.note_complete sp 1 in
  let s2 = Spine.note_submit sp 2 in
  (match Spine.gate sp ~top:0 ~edges:[ (0, 1, lazy "e0-1") ] with
  | Spine.Admitted -> ()
  | Spine.Vetoed _ -> Alcotest.fail "T0.0 -> T0.1 vetoed");
  ignore (Spine.note_complete sp 0);
  check_bool "T0.1 settled" true (Spine.settled sp 1);
  check_bool "T0.0 not settled" false (Spine.settled sp 0);
  match Spine.gate sp ~top:2 ~edges:[ (2, 0, lazy "e2-0") ] with
  | Spine.Vetoed { cycle; witness } ->
      check_bool "the three-top cycle" true
        (List.map (fun u -> List.hd (Txn_id.path u)) cycle = [ 2; 0; 1 ]);
      Alcotest.(check string) "witness lines"
        (Printf.sprintf
           "T0.2 -> T0.0 [e2-0]\nT0.0 -> T0.1 [e0-1]\nT0.1 -> T0.2 [rail: \
            T0.1 reported@%d before T0.2 requested@%d]"
           c1 s2)
        witness
  | Spine.Admitted -> Alcotest.fail "cycle through a settled top admitted"

(* The gate checks every shipped edge, incident to the gated top or
   not: an edge between two other tops that closes a cycle is vetoed. *)
let t_spine_non_incident_edge () =
  let sp = Spine.create () in
  let a = 0 and b = 1 and c = 2 in
  List.iter (fun g -> ignore (Spine.note_submit sp g)) [ a; b; c ];
  (match Spine.gate sp ~top:a ~edges:[ (a, b, lazy "e1") ] with
  | Spine.Admitted -> ()
  | Spine.Vetoed _ -> Alcotest.fail "a->b vetoed");
  (match Spine.gate sp ~top:c ~edges:[ (b, a, lazy "e2") ] with
  | Spine.Vetoed { cycle; witness } ->
      check_int "two-top cycle" 2 (List.length cycle);
      check_bool "witness names both edges" true
        (Astring_like.contains witness "e1" && Astring_like.contains witness "e2")
  | Spine.Admitted -> Alcotest.fail "non-incident cycle-closing edge admitted");
  check_int "veto installs nothing" 1 (Spine.edge_count sp)

(* The spine keeps the rail as frontier edges and forgets settled tops;
   a brute-force model keeps the literal rail (every pair whose report
   stamp is below the other's request stamp) over every noted top next
   to the explicit edges and searches it by DFS.  Over seeded histories
   of notes, stray stamps and gates shipping edges incident to the
   gated top, the two agree on every verdict and on the installed-edge
   count (the model installs no rail-ordered pair), and each veto
   witness line names an edge of the literal graph: a rail-ordered pair
   with its two stamps, any other with its shipped witness.  The gates
   ship no edge into a settled top and none out of one that the rail
   does not order, as no shard can (see doc/sharding.mld); an edge into
   a retired top raises. *)
let t_spine_frontier_rail_is_literal () =
  let vetoes = ref 0 in
  for seed = 1 to 300 do
    let rng = Rng.create seed in
    let sp = Spine.create () in
    let n = ref 0 in
    let submit = Hashtbl.create 16 and complete = Hashtbl.create 16 in
    let explicit = Hashtbl.create 16 in
    let rail a b =
      match (Hashtbl.find_opt complete a, Hashtbl.find_opt submit b) with
      | Some c, Some s -> c < s
      | _ -> false
    in
    (* Reported before every top still open was requested. *)
    let settled a =
      match Hashtbl.find_opt complete a with
      | None -> false
      | Some c ->
          Hashtbl.fold
            (fun b s ok -> ok && (Hashtbl.mem complete b || c < s))
            submit true
    in
    let shippable (a, b, _) =
      not (settled b || (settled a && not (rail a b)))
    in
    let cyclic fresh =
      let edge a b =
        Hashtbl.mem explicit (a, b) || List.mem_assoc (a, b) fresh || rail a b
      in
      let color = Array.make !n 0 in
      let rec visit u =
        color.(u) <- 1;
        let found = ref false in
        for v = 0 to !n - 1 do
          if (not !found) && edge u v then
            found := color.(v) = 1 || (color.(v) = 0 && visit v)
        done;
        color.(u) <- 2;
        !found
      in
      let rec any u = u < !n && ((color.(u) = 0 && visit u) || any (u + 1)) in
      any 0
    in
    let pick p =
      match List.filter p (List.init !n Fun.id) with
      | [] -> None
      | l -> Some (Rng.pick_list rng l)
    in
    let any _ = true in
    for _ = 1 to 60 do
      match Rng.int rng 6 with
      | 0 | 1 ->
          Hashtbl.replace submit !n (Spine.note_submit sp !n);
          incr n
      | 2 -> (
          match pick (fun g -> not (Hashtbl.mem complete g)) with
          | Some g -> Hashtbl.replace complete g (Spine.note_complete sp g)
          | None -> ())
      | 3 -> ignore (Spine.stamp sp)
      | _ -> (
          match pick any with
          | None -> ()
          | Some top ->
              let edges =
                List.filter shippable
                  (List.init (1 + Rng.int rng 3) (fun _ ->
                       let x = Option.get (pick any) in
                       let a, b =
                         if Rng.bool rng then (top, x) else (x, top)
                       in
                       (a, b, Printf.sprintf "e%d-%d" a b)))
              in
              let fresh =
                List.sort_uniq compare
                  (List.filter_map
                     (fun (a, b, w) ->
                       if a = b || rail a b || Hashtbl.mem explicit (a, b)
                       then None
                       else Some ((a, b), w))
                     edges)
              in
              let expect_veto = cyclic fresh in
              let shipped =
                List.map (fun (a, b, w) -> (a, b, Lazy.from_val w)) edges
              in
              (match Spine.gate sp ~top ~edges:shipped with
              | Spine.Admitted ->
                  check_bool "admitted iff acyclic" false expect_veto;
                  List.iter (fun (e, w) -> Hashtbl.replace explicit e w) fresh
              | Spine.Vetoed { cycle; witness } ->
                  incr vetoes;
                  check_bool "vetoed iff cyclic" true expect_veto;
                  let cycle = List.map (fun u -> List.hd (Txn_id.path u)) cycle in
                  check_int "cycle starts at top" top (List.hd cycle);
                  let lines = String.split_on_char '\n' witness in
                  check_int "one line per edge" (List.length cycle)
                    (List.length lines);
                  List.iter2
                    (fun (a, b) line ->
                      let a', b', why =
                        Scanf.sscanf line "T0.%d -> T0.%d [%[^]]]" (fun a b w ->
                            (a, b, w))
                      in
                      check_bool "line follows the cycle" true (a = a' && b = b');
                      if rail a b then
                        Alcotest.(check string) "rail stamps"
                          (Printf.sprintf
                             "rail: T0.%d reported@%d before T0.%d requested@%d"
                             a (Hashtbl.find complete a) b
                             (Hashtbl.find submit b))
                          why
                      else
                        let shipped =
                          match Hashtbl.find_opt explicit (a, b) with
                          | Some w -> Some w
                          | None -> List.assoc_opt (a, b) fresh
                        in
                        Alcotest.(check (option string)) "shipped witness"
                          shipped (Some why))
                    (List.combine cycle (List.tl cycle @ [ List.hd cycle ]))
                    lines);
              check_int "installed edges" (Hashtbl.length explicit)
                (Spine.edge_count sp))
    done
  done;
  check_bool "the histories exercise the veto path" true (!vetoes > 50);
  let sp = Spine.create () in
  ignore (Spine.note_submit sp 0);
  ignore (Spine.note_complete sp 0);
  ignore (Spine.note_submit sp 1);
  check_bool "an edge into a retired top raises" true
    (match Spine.gate sp ~top:1 ~edges:[ (1, 0, lazy "e1-0") ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ----- the deterministic sharded harness ----- *)

let t_sharded_deterministic () =
  let sc = Check.gen_scenario ~grammar:Check.Mixed Check.Undo (Rng.create 7) in
  let run () = Check.serve_sharded ~shards:3 ~seed:99 Check.Undo sc in
  let r1 = run () in
  let r2 = run () in
  check_bool "same merged trace" true
    (List.equal Action.equal
       (Trace.to_list r1.Check.sh_report.Check.s_trace)
       (Trace.to_list r2.Check.sh_report.Check.s_trace));
  check_int "same commits" r1.Check.sh_report.Check.s_committed
    r2.Check.sh_report.Check.s_committed;
  check_int "same spine decisions" r1.Check.sh_spine_checks
    r2.Check.sh_spine_checks;
  check_int "routing accounted" r1.Check.sh_report.Check.s_submitted
    (r1.Check.sh_local + r1.Check.sh_cross)

(* The acceptance sweep: 200 generated scenarios across the verified
   backends, each served through the single-shard gate and the 4-shard
   ensemble, compared at failure-tag granularity.  Vetoes may differ
   (the sharded local gates are conservative about piece-adjacent
   ordering), but a verified backend must never fail an oracle either
   way. *)
let t_sharded_differential_sweep () =
  let tag = function None -> "pass" | Some f -> Check.failure_tag f in
  List.iter
    (fun backend ->
      let rng = Rng.create (0xD1FF + Hashtbl.hash (Check.backend_name backend)) in
      for i = 1 to 40 do
        let sc = Check.gen_scenario backend (Rng.split rng) in
        let seed = 1000 + i in
        let single = (Check.record ~seed backend sc).Check.rc_report in
        let sharded = Check.serve_sharded ~shards:4 ~seed backend sc in
        Alcotest.(check string)
          (Printf.sprintf "%s run %d" (Check.backend_name backend) i)
          (tag single.Check.s_failure)
          (tag sharded.Check.sh_report.Check.s_failure)
      done)
    Check.correct_backends

(* Soundness of the gates: even under the negative-control object (no
   concurrency control at all), the local gates plus the spine never
   admit a serialization cycle into the merged history, and the
   monitors raise no cycle alarm. *)
let t_sharded_gating_sound () =
  for seed = 1 to 30 do
    let sc =
      Check.gen_scenario ~grammar:Check.Rw Check.No_control (Rng.create seed)
    in
    let r = Check.serve_sharded ~shards:2 ~seed Check.No_control sc in
    (match r.Check.sh_report.Check.s_failure with
    | Some (Check.Sg_cycle _) ->
        Alcotest.fail (Printf.sprintf "cycle admitted at seed %d" seed)
    | _ -> ());
    check_int
      (Printf.sprintf "no cycle alarms at seed %d" seed)
      0 r.Check.sh_report.Check.s_cycle_alarms
  done

(* Completeness of the offline judge: with the gates off, the ungated
   ensemble admits cycles, and within a bounded seed search one of them
   spans shards — caught by the SG oracle on the merged history with a
   cycle whose transactions touched at least two shards. *)
let t_sharded_ungated_cross_cycle () =
  let shard_sets sc (r : Check.sharded_report) cycle =
    let part = Partition.create ~shards:2 sc.Check.objects in
    let touched top =
      List.filter_map
        (fun a ->
          match a with
          | Action.Inform_commit (x, u) | Action.Inform_abort (x, u) -> (
              match (Txn_id.path u, Txn_id.path top) with
              | ju :: _, jt :: _ when ju = jt ->
                  Some (Partition.shard_of part x)
              | _ -> None)
          | _ -> None)
        (Trace.to_list r.Check.sh_report.Check.s_trace)
      |> List.sort_uniq compare
    in
    List.concat_map touched cycle |> List.sort_uniq compare
  in
  let cycle, spanned =
    find_seed ~max_seed:200 "no admitted cross-shard cycle found" (fun seed ->
        let sc =
          Check.gen_scenario ~grammar:Check.Rw Check.No_control
            (Rng.create (7000 + seed))
        in
        let r =
          Check.serve_sharded ~gating:false ~shards:2 ~seed Check.No_control sc
        in
        match r.Check.sh_report.Check.s_failure with
        | Some (Check.Sg_cycle cycle) ->
            let spanned = shard_sets sc r cycle in
            if List.length spanned >= 2 then Some (cycle, spanned) else None
        | _ -> None)
  in
  check_bool "cycle witness non-trivial" true (List.length cycle >= 2);
  check_int "cycle spans both shards" 2 (List.length spanned)

(* ----- the live service ----- *)

(* The router runs the engine's own validator against the full table:
   every refusal carries the words a single engine gives, a
   cross-shard program with one bad access is refused whole, and no
   rejected program reaches a shard. *)
let t_router_refuses_like_engine () =
  let objects = registers (numbered "k" 8) in
  let cl =
    Shard_cluster.create ~shards:2 ~seed:5 objects (Check.factory_of Check.Undo)
  in
  let eng = Engine.create ~seed:5 objects (Check.factory_of Check.Undo) in
  let rd x = Program.access (obj x) Datatype.Read in
  let spread bad = Program.par (List.map rd (numbered "k" 8) @ [ bad ]) in
  let cases =
    [
      ("undeclared object", rd "nope");
      ("foreign operation", Program.access (obj "k1") (Datatype.Incr 1));
      ("cross-shard, one undeclared access", spread (rd "nope"));
      ( "cross-shard, one foreign operation",
        spread (Program.access (obj "k5") (Datatype.Incr 2)) );
      ( "oversized program",
        Program.par (List.init (Engine.max_program + 1) (fun _ -> rd "k0")) );
    ]
  in
  List.iter
    (fun (what, prog) ->
      match (Shard_cluster.submit cl prog, Engine.submit eng prog) with
      | Error routed, Error single ->
          Alcotest.(check string) (what ^ ": same message") single routed
      | _ -> Alcotest.failf "%s: both must refuse" what)
    cases;
  check_int "nothing routed" 0 (Shard_router.submitted (Shard_cluster.router cl));
  check_bool "shards idle" true (Shard_cluster.quiescent cl)

(* Twenty read-one-write-another programs over eight registers: on two
   shards most of them cross, and their write skew is what a missed
   cross-shard edge turns into an admitted cycle. *)
let rotating_rw objects =
  List.init 20 (fun i ->
      let x = fst (List.nth objects (i mod 8)) in
      let y = fst (List.nth objects ((i + 3) mod 8)) in
      Program.seq
        [
          Program.access x Datatype.Read;
          Program.access y (Datatype.Write (Value.Int i));
        ])

let t_service_live () =
  let objects = registers (numbered "k" 8) in
  let srv =
    Shard_service.start ~shards:2 ~seed:42 objects
      (Check.factory_of Check.Undo)
  in
  let gs =
    List.map
      (fun prog ->
        match Shard_service.submit srv prog with
        | Ok g -> g
        | Error e -> Alcotest.fail e)
      (rotating_rw objects)
  in
  let rec wait n =
    if Shard_service.pending srv = 0 then ()
    else if n = 0 then Alcotest.fail "service did not quiesce"
    else begin
      Thread.yield ();
      wait (n - 1)
    end
  in
  wait 2_000_000;
  List.iter
    (fun g ->
      match Shard_service.result srv g with
      | Shard_router.Pending -> Alcotest.fail "pending result after quiesce"
      | Shard_router.Committed _ | Shard_router.Aborted _ -> ())
    gs;
  Shard_service.stop srv;
  Shard_service.stop srv;
  (* idempotent *)
  let r, _forest, schema = Shard_service.finish srv in
  check_int "all submissions completed" 20
    (r.Runtime.committed_top + r.Runtime.aborted_top);
  let ag = Check.sg_agreement schema r.Runtime.trace in
  check_bool "merged history passes the SG oracle" true
    (Check.sg_agrees ag && ag.Check.checker_acyclic)

(* A shard's local graph can already hold a top-level edge as a
   precedes edge — a cross-shard piece reported before another local
   top started — that the spine's rail does not order, because the
   router stamps the merged request at plan time.  The shard must ship
   such edges too, or the spine admits the cross-shard cycle they
   close.  The same schedule as the live service, made deterministic:
   one generator decides each turn's submission and stepped shard. *)
let t_spine_sees_local_edges () =
  let objects = registers (numbered "k" 8) in
  let cyclic = ref [] in
  for seed = 1 to 200 do
    let cl =
      Shard_cluster.create ~shards:2 ~seed objects (Check.factory_of Check.Undo)
    in
    let rng = Rng.create (seed * 7919) in
    let rec run pending =
      let pending =
        match pending with
        | prog :: rest when Rng.int rng 3 = 0 ->
            (match Shard_cluster.submit cl prog with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e);
            rest
        | _ -> pending
      in
      ignore (Shard_cluster.step_shard cl (Rng.int rng 2));
      if
        (not (Shard_cluster.truncated cl))
        && (pending <> []
           || (not (Shard_cluster.quiescent cl))
           || Shard_router.pending (Shard_cluster.router cl) > 0)
      then run pending
    in
    run (rotating_rw objects);
    let r, _forest, schema = Shard_cluster.finish cl in
    let ag = Check.sg_agreement schema r.Runtime.trace in
    if not (Check.sg_agrees ag && ag.Check.checker_acyclic) then
      cyclic := seed :: !cyclic
  done;
  Alcotest.(check (list int)) "seeds whose merged history is cyclic" []
    (List.rev !cyclic)

(* A closed loop of 16 clients, each submitting shard-local SmallBank
   programs over 16 undo registers on two shards; [each_step] sees the
   cluster after every shard step.  Returns the cluster. *)
let closed_loop ?(each_step = fun _ -> ()) ~programs ~seed () =
  let objects = registers (numbered "acct" 16) in
  let part = Partition.create ~shards:2 objects in
  let groups =
    Array.init 2 (fun s ->
        Array.of_list
          (List.filter_map
             (fun (x, _) ->
               if Partition.shard_of part x = s then Some x else None)
             objects))
  in
  let cl =
    Shard_cluster.create ~shards:2 ~seed objects (Check.factory_of Check.Undo)
  in
  let rng = Rng.create seed in
  let submitted = ref 0 in
  let rec run () =
    while
      !submitted < programs && Shard_router.pending (Shard_cluster.router cl) < 16
    do
      let g = groups.(Rng.int rng 2) in
      (match Shard_cluster.submit cl (Gen.smallbank_txn ~theta:0.0 rng g) with
      | Ok _ -> incr submitted
      | Error e -> Alcotest.fail e)
    done;
    ignore (Shard_cluster.step_shard cl (Rng.int rng 2));
    each_step cl;
    if
      (not (Shard_cluster.truncated cl))
      && (!submitted < programs
         || (not (Shard_cluster.quiescent cl))
         || Shard_router.pending (Shard_cluster.router cl) > 0)
    then run ()
  in
  run ();
  cl

let spine_closed_loop ~programs ~seed =
  Shard_cluster.spine (closed_loop ~programs ~seed ())

(* The spine installs a shipped edge only when its rail does not
   already order the edge's tops.  Shard-local programs cross no shard,
   so every edge a shard holds between tops is ordered by the rail or is
   a conflict edge between overlapping tops; a closed loop of 16 keeps
   the spine's explicit edges below one per program (installing every
   edge the local graph does not hold made it about 50). *)
let t_spine_gets_unrailed_edges () =
  let programs = 300 in
  let edges = Spine.edge_count (spine_closed_loop ~programs ~seed:11) in
  if edges > 4 * programs then
    Alcotest.failf "%d spine edges for %d programs" edges programs

(* A shard forgets a top only once the spine has settled it, so
   retirement moves no spine decision.  The installs and checks of the
   1 000-program closed loops for seeds 11-13 are pinned to the values
   shard monitors keeping their whole history gave; a shard that forgot
   a top once the spine had it reported, not settled, installs fewer
   edges (794/342, 708/310, 788/332), and so does a shard that draws
   fewer edges for any other reason.  A schedule change moves these
   too: re-pin only after checking the spine's decisions against the
   parent's. *)
let t_spine_decisions_tripwire () =
  List.iter
    (fun (seed, installs, checks) ->
      let sp = spine_closed_loop ~programs:1000 ~seed in
      check_int (Printf.sprintf "seed %d: installs" seed) installs
        (Spine.edge_count sp);
      check_int (Printf.sprintf "seed %d: checks" seed) checks (Spine.checks sp);
      check_int (Printf.sprintf "seed %d: vetoes" seed) 0 (Spine.vetoes sp))
    [ (11, 797, 343); (12, 714, 313); (13, 791, 334) ]

(* Merged engines retire settled tops too, each once the spine has
   settled it, and the spine retires them from its own graph.  The
   closed loop runs 2 000 programs, and a sample every 97 steps reads
   each shard monitor's records, nodes and edges and the spine's live
   tops; averaged over the whole run, each stays within 1.5x of its
   average over the first 500 programs (a shard monitor keeping its
   whole history grows about tenfold, and a spine keeping every merged
   top about fourfold).  The graphs need not be empty at quiescence: a
   shard asks the spine again only at its next local top-level report,
   and the spine retires only at a report. *)
let t_merged_engines_retire () =
  let total = 2000 and early = 500 in
  let keys = [ "ops"; "graph.nodes"; "graph.edges" ] in
  let sums = Hashtbl.create 16 in
  let add key v =
    let n, s = Option.value ~default:(0, 0) (Hashtbl.find_opt sums key) in
    Hashtbl.replace sums key (n + 1, s + v)
  in
  let steps = ref 0 in
  let each_step cl =
    incr steps;
    if !steps mod 97 = 0 then begin
      let rt = Shard_cluster.router cl in
      let done_ = Shard_router.submitted rt - Shard_router.pending rt in
      let sample who k v =
        add (`Run, who, k) v;
        if done_ < early then add (`Early, who, k) v
      in
      for s = 0 to Shard_cluster.shards cl - 1 do
        let census =
          Monitor.census
            (Admission.monitor
               (Engine.admission
                  (Shard_engine.engine (Shard_cluster.engine cl s))))
        in
        List.iter
          (fun k -> sample (Printf.sprintf "shard %d" s) k (List.assoc k census))
          keys
      done;
      sample "spine" "nodes" (Spine.node_count (Shard_cluster.spine cl))
    end
  in
  let rt =
    Shard_cluster.router (closed_loop ~each_step ~programs:total ~seed:7 ())
  in
  check_int "every program submitted" total (Shard_router.submitted rt);
  check_int "every program completed" 0 (Shard_router.pending rt);
  let mean key =
    let n, s = Hashtbl.find sums key in
    float_of_int s /. float_of_int n
  in
  Hashtbl.iter
    (fun (window, who, k) _ ->
      if window = `Early && mean (`Run, who, k) > 1.5 *. mean (`Early, who, k)
      then
        Alcotest.failf "%s: %s averages %.1f over %d programs, %.1f over the first %d"
          who k
          (mean (`Run, who, k))
          total
          (mean (`Early, who, k))
          early)
    sums;
  check_bool "the shard graphs and the spine were sampled" true
    (mean (`Early, "shard 0", "graph.nodes") > 0.
    && mean (`Early, "shard 1", "graph.nodes") > 0.
    && mean (`Early, "spine", "nodes") > 0.)

(* ----- one shard ----- *)

(* One shard is the bare engine: a one-shard cluster and a plain engine
   on the same seed, driven by the same submit/kill/step calls, yield
   the same trace action for action, with no merged copy and nothing
   synthesized; the router's result for every id is final as soon as
   the engine's is (a server answers Status from it) and agrees with it
   at quiescence; and the spine is never consulted and holds no top. *)
let t_one_shard_is_the_engine () =
  List.iter
    (fun backend ->
      for i = 0 to 9 do
        let sc = Check.gen_scenario backend (Rng.create (500 + i)) in
        let create_engine ?on_top_complete () =
          Engine.create ~policy:sc.Check.policy
            ~inform_policy:sc.Check.inform_policy
            ~abort_prob:sc.Check.abort_prob ?on_top_complete
            ~seed:sc.Check.sched_seed sc.Check.objects
            (Check.factory_of backend)
        in
        let cl =
          Shard_cluster.create ~policy:sc.Check.policy
            ~inform_policy:sc.Check.inform_policy
            ~abort_prob:sc.Check.abort_prob ~shards:1
            ~seed:sc.Check.sched_seed sc.Check.objects
            (Check.factory_of backend)
        in
        let eng = create_engine () in
        let rt = Shard_cluster.router cl in
        let final_with_engine () =
          for g = 0 to Shard_router.submitted rt - 1 do
            match (Shard_router.result rt g, Engine.state eng (txn [ g ])) with
            | Shard_router.Pending, (Engine.Committed _ | Engine.Aborted _) ->
                Alcotest.failf "T0.%d complete in the engine, pending in the router" g
            | _ -> ()
          done
        in
        let rng = Rng.create i in
        List.iter
          (fun prog ->
            let g = Result.get_ok (Shard_cluster.submit cl prog) in
            let t = Result.get_ok (Engine.submit eng prog) in
            check_bool "same name" true (Txn_id.equal (txn [ g ]) t);
            for _ = 1 to Rng.int rng 5 do
              ignore (Shard_cluster.step_shard cl 0);
              ignore (Engine.step eng);
              final_with_engine ()
            done;
            if Rng.int rng 6 = 0 then
              check_bool "same kill verdict"
                (match Engine.kill eng t with
                | `Aborted | `Doomed -> true
                | `Already_complete | `Unknown -> false)
                (Shard_cluster.kill cl g))
          sc.Check.forest;
        ignore (Shard_cluster.drain cl);
        ignore (Engine.drain eng);
        List.iteri
          (fun g _ ->
            let agree =
              match (Shard_router.result rt g, Engine.state eng (txn [ g ])) with
              | Shard_router.Pending, (Engine.Pending | Engine.Running) -> true
              | Shard_router.Committed v, Engine.Committed v' -> Value.equal v v'
              | Shard_router.Aborted a, Engine.Aborted b ->
                  Option.map (fun v -> v.Admission.witness) a
                  = Option.map (fun v -> v.Admission.witness) b
              | _ -> false
            in
            check_bool (Printf.sprintf "result of T0.%d" g) true agree)
          sc.Check.forest;
        check_int "no merged copy" 0
          (List.length (Shard_engine.buffer (Shard_cluster.engine cl 0)));
        check_int "nothing synthesized" 0
          (List.length (Trace.to_list (Shard_router.merged_trace rt [])));
        let r, _, _ = Shard_cluster.finish cl in
        check_bool "merged trace = engine trace" true
          (List.equal Action.equal
             (Trace.to_list r.Runtime.trace)
             (Trace.to_list (Engine.finish eng).Runtime.trace));
        check_int "spine never consulted" 0
          (Spine.checks (Shard_cluster.spine cl));
        check_int "spine holds no top" 0
          (Spine.node_count (Shard_cluster.spine cl))
      done)
    [ Check.Undo; Check.Moss; Check.Commlock; Check.Mvts ]

(* The router's counters are kept, not folded: after every step of a
   run with cross-shard programs and kills, [pending] and [counts]
   equal a fold of [Router.result] over every id. *)
let t_router_counts_kept () =
  let objects = registers (numbered "k" 8) in
  let crosses = ref 0 and aborts = ref 0 in
  List.iter
    (fun shards ->
      for seed = 1 to 20 do
        let cl =
          Shard_cluster.create ~shards ~seed objects
            (Check.factory_of Check.Undo)
        in
        let rt = Shard_cluster.router cl in
        let rng = Rng.create (seed * 31) in
        let check_counts () =
          let p = ref 0 and c = ref 0 and a = ref 0 in
          for g = 0 to Shard_router.submitted rt - 1 do
            match Shard_router.result rt g with
            | Shard_router.Pending -> incr p
            | Shard_router.Committed _ -> incr c
            | Shard_router.Aborted _ -> incr a
          done;
          check_int "pending" !p (Shard_router.pending rt);
          check_bool "counts" true (Shard_router.counts rt = (!c, !a))
        in
        let rec run pending =
          let pending =
            match pending with
            | prog :: rest when Rng.int rng 3 = 0 ->
                ignore (Result.get_ok (Shard_cluster.submit cl prog));
                rest
            | _ -> pending
          in
          let n = Shard_router.submitted rt in
          if n > 0 && Rng.int rng 8 = 0 then
            ignore (Shard_cluster.kill cl (Rng.int rng n));
          ignore (Shard_cluster.step_shard cl (Rng.int rng shards));
          check_counts ();
          if
            (not (Shard_cluster.truncated cl))
            && (pending <> []
               || (not (Shard_cluster.quiescent cl))
               || Shard_router.pending rt > 0)
          then run pending
        in
        run (rotating_rw objects);
        crosses := !crosses + Shard_router.cross_count rt;
        aborts := !aborts + snd (Shard_router.counts rt)
      done)
    [ 1; 2 ];
  check_bool "cross-shard programs exercised" true (!crosses > 0);
  check_bool "aborts exercised" true (!aborts > 0)

let suite =
  ( "shard",
    [
      Alcotest.test_case "partition total and stable" `Quick
        t_partition_total_and_stable;
      Alcotest.test_case "replica co-sharding" `Quick t_partition_cosharding;
      Alcotest.test_case "footprint extraction" `Quick t_footprint_extraction;
      Alcotest.test_case "footprint covers runtime (all grammars)" `Slow
        t_footprint_covers_runtime;
      Alcotest.test_case "split into shard-pure pieces" `Quick t_split_pieces;
      Alcotest.test_case "spine rail veto" `Quick t_spine_rail_veto;
      Alcotest.test_case "spine explicit cycle" `Quick t_spine_explicit_cycle;
      Alcotest.test_case "spine vetoes a non-incident edge" `Quick
        t_spine_non_incident_edge;
      Alcotest.test_case "spine: settled top behind an unsettled one stays"
        `Quick t_spine_settled_behind_unsettled;
      Alcotest.test_case "spine frontier rail decides like the literal rail"
        `Quick t_spine_frontier_rail_is_literal;
      Alcotest.test_case "sharded serving deterministic" `Quick
        t_sharded_deterministic;
      Alcotest.test_case "sharded differential sweep (200 runs)" `Slow
        t_sharded_differential_sweep;
      Alcotest.test_case "gated ensemble admits no cycle" `Slow
        t_sharded_gating_sound;
      Alcotest.test_case "ungated cross-shard cycle caught" `Slow
        t_sharded_ungated_cross_cycle;
      Alcotest.test_case "live service: submit, quiesce, judge" `Quick
        t_service_live;
      Alcotest.test_case "spine sees locally held cross-shard edges" `Quick
        t_spine_sees_local_edges;
      Alcotest.test_case "spine gets unrailed edges only" `Quick
        t_spine_gets_unrailed_edges;
      Alcotest.test_case "merged engines retire" `Quick
        t_merged_engines_retire;
      Alcotest.test_case "spine decisions tripwire" `Quick
        t_spine_decisions_tripwire;
      Alcotest.test_case "router refuses like the engine" `Quick
        t_router_refuses_like_engine;
      Alcotest.test_case "one shard is the engine" `Quick
        t_one_shard_is_the_engine;
      Alcotest.test_case "router counts kept, not folded" `Quick
        t_router_counts_kept;
    ] )
