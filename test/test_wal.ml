(* The write-ahead log and crash recovery (lib/net/wal.ml + the
   Check.record / Check.crash harness): framing codec roundtrips,
   adversarial damaged-file decoding, group-commit batching, the
   outcome-after-steps ordering invariant, snapshot compaction, the
   snapshot-plus-tail-equals-full-log property, replay idempotence,
   and the headline kill(-9) sweep — a simulated crash at every log
   boundary, every recovery judged by all four oracles. *)
open Core
open Util

let t1 = txn [ 0 ]
let t2 = txn [ 1 ]

let sample_records =
  [
    Wal.Meta
      {
        seed = 42;
        backend = "undo";
        policy = "random-step";
        inform = "eager";
        abort_prob = 0.05;
        objects = [ ("x", "(register 0)"); ("c", "(counter 3)") ];
      };
    Wal.Submit
      { req = Some "r-1"; client = "c1"; program = "(txn (access x read))" };
    Wal.Submit { req = None; client = ""; program = "(txn (access c get))" };
    Wal.Kill { txn = t2 };
    Wal.Steps 17;
    Wal.Outcome { txn = t1; outcome = Wal.Committed "(int 3)" };
    Wal.Outcome { txn = t2; outcome = Wal.Aborted None };
    Wal.Outcome { txn = t2; outcome = Wal.Aborted (Some "cycle T1->T2") };
    Wal.Sg_state
      { nodes = [| "T0"; "T1"; "T2" |]; edges = [ (1, 2); (2, 0) ] };
    Wal.Counts { submitted = 9; committed = 5; aborted = 4; vetoed = 2 };
  ]

let image_of records =
  Wal.header ~magic:Wal.wal_magic ~base_seq:0
  ^ String.concat "" (List.map Wal.encode_record records)

(* Every record variant survives encode -> frame -> scan. *)
let t_codec_roundtrip () =
  match Wal.scan ~magic:Wal.wal_magic (image_of sample_records) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "clean tail" true (s.Wal.sc_tail = Wal.Clean);
      check_int "all records" (List.length sample_records)
        (List.length s.Wal.sc_records);
      check_bool "roundtrip equality" true (s.Wal.sc_records = sample_records);
      check_int "offsets parallel records" (List.length sample_records)
        (List.length s.Wal.sc_offsets)

(* Adversarial images, table-driven: each damaged file must decode to
   the longest intact prefix with the right diagnosis — never an
   exception, never silently swallowing valid records. *)
let t_adversarial_decode () =
  let img = image_of sample_records in
  let full = List.length sample_records in
  let offsets =
    match Wal.scan ~magic:Wal.wal_magic img with
    | Ok s -> Array.of_list s.Wal.sc_offsets
    | Error e -> Alcotest.fail e
  in
  let last = offsets.(full - 1) in
  let flip pos s =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
    Bytes.to_string b
  in
  let cases =
    [
      ("empty file", "", Some (0, true, 0));
      ("zero bytes of header", String.sub img 0 0, Some (0, true, 0));
      ("mid-magic cut", String.sub img 0 5, Some (0, false, 0));
      ("header-only", String.sub img 0 16, Some (0, true, 16));
      ("torn final record", String.sub img 0 (last + 9), Some (full - 1, false, last));
      ( "truncated length prefix",
        String.sub img 0 (last + 5),
        Some (full - 1, false, last) );
      ("bit-flipped checksum", flip (last + 4) img, Some (full - 1, false, last));
      ("bit-flipped payload", flip (last + 12) img, Some (full - 1, false, last));
      ("foreign magic", "GARBAGE!" ^ String.sub img 8 64, None);
      ("snapshot magic on a wal scan", Wal.header ~magic:Wal.snap_magic ~base_seq:0, None);
    ]
  in
  List.iter
    (fun (name, s, expect) ->
      match (Wal.scan ~magic:Wal.wal_magic s, expect) with
      | Error _, None -> ()
      | Error e, Some _ -> Alcotest.fail (name ^ ": unexpected refusal: " ^ e)
      | Ok _, None -> Alcotest.fail (name ^ ": foreign file accepted")
      | Ok sc, Some (records, clean, valid) ->
          check_int (name ^ ": records kept") records
            (List.length sc.Wal.sc_records);
          check_bool (name ^ ": tail cleanliness") clean
            (sc.Wal.sc_tail = Wal.Clean);
          let v =
            match sc.Wal.sc_tail with
            | Wal.Clean -> sc.Wal.sc_valid
            | Wal.Torn { valid; _ } -> valid
          in
          check_int (name ^ ": valid prefix") valid v)
    cases

(* Group commit: a writer with [fsync_batch n] syncs every [n]
   records, and [flush] settles the remainder; [fsync_interval_s]
   syncs on [tick] once the (injected) clock advances far enough. *)
let t_writer_batching () =
  let syncs = ref 0 in
  let buf = Buffer.create 256 in
  let sink =
    { Wal.write = Buffer.add_string buf; sync = (fun () -> incr syncs) }
  in
  let w = Wal.Writer.create ~fsync_batch:4 ~base_seq:0 ~on_sync:ignore sink in
  for _ = 1 to 10 do
    Wal.Writer.append w (Wal.Steps 1)
  done;
  check_int "two batch syncs after 10 appends" 2 !syncs;
  Wal.Writer.flush w;
  check_int "flush syncs the dirty remainder" 3 !syncs;
  Wal.Writer.flush w;
  check_int "clean flush does not re-sync" 3 !syncs;
  check_int "writer sync counter agrees" 3 (Wal.Writer.syncs w);
  check_int "appended" 10 (Wal.Writer.appended w);
  (* Time-based syncing with an injected clock. *)
  let now = ref 0.0 in
  let syncs2 = ref 0 in
  let sink2 =
    { Wal.write = (fun _ -> ()); sync = (fun () -> incr syncs2) }
  in
  let w2 =
    Wal.Writer.create ~fsync_batch:0 ~fsync_interval_s:0.5
      ~clock:(fun () -> !now)
      ~base_seq:0 ~on_sync:ignore sink2
  in
  Wal.Writer.append w2 (Wal.Steps 1);
  Wal.Writer.tick w2;
  check_int "interval not yet elapsed" 0 !syncs2;
  now := 0.6;
  Wal.Writer.tick w2;
  check_int "interval elapsed" 1 !syncs2;
  Wal.Writer.tick w2;
  check_int "nothing dirty, no sync" 1 !syncs2

(* The ordering invariant: outcomes noted while stepping are buffered
   and land after the covering [Steps] record, so no intact prefix
   audits state it cannot replay. *)
let t_outcome_after_steps () =
  let buf = Buffer.create 256 in
  let w =
    Wal.Writer.create ~base_seq:0 ~on_sync:ignore (Wal.buffer_sink buf)
  in
  Wal.Writer.append w
    (Wal.Submit { req = None; client = "c"; program = "p" });
  Wal.Writer.note_outcome w ~txn:t1 (Wal.Committed "(unit)");
  Wal.Writer.note_outcome w ~txn:t2 (Wal.Aborted None);
  Wal.Writer.log_steps w 5;
  match Wal.scan ~magic:Wal.wal_magic (Buffer.contents buf) with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check_bool "submit, steps, then both outcomes in noted order" true
        (match s.Wal.sc_records with
        | [
            Wal.Submit _;
            Wal.Steps 5;
            Wal.Outcome { txn = a; _ };
            Wal.Outcome { txn = b; _ };
          ] ->
            Txn_id.equal a t1 && Txn_id.equal b t2
        | _ -> false)

(* A buffer sink that counts its [write] and [sync] calls. *)
let counting_sink () =
  let buf = Buffer.create 256 and writes = ref 0 and syncs = ref 0 in
  let sink =
    {
      Wal.write =
        (fun s ->
          incr writes;
          Buffer.add_string buf s);
      sync = (fun () -> incr syncs);
    }
  in
  (buf, writes, syncs, sink)

(* The writer call is the unit of write and sync: a cut of one [Steps]
   record and three outcomes is one [write] and one [sync] at batch 1,
   with the same bytes as the records framed one at a time; an empty
   cut touches nothing; at batch 4 a 5-record cut syncs once and
   leaves nothing dirty. *)
let t_writer_call_unit () =
  let buf, writes, syncs, sink = counting_sink () in
  let w = Wal.Writer.create ~fsync_batch:1 ~base_seq:0 ~on_sync:ignore sink in
  let header_bytes = Buffer.length buf in
  check_int "header is one write" 1 !writes;
  let noted =
    [
      (t1, Wal.Committed "(int 1)");
      (t2, Wal.Aborted None);
      (t1, Wal.Aborted (Some "cycle T1->T2"));
    ]
  in
  List.iter (fun (txn, oc) -> Wal.Writer.note_outcome w ~txn oc) noted;
  Wal.Writer.log_steps w 5;
  check_int "one write per call" 2 !writes;
  check_int "one sync per call" 1 !syncs;
  check_int "appended advances by 4" 4 (Wal.Writer.appended w);
  check_int "next_seq advances by 4" 4 (Wal.Writer.next_seq w);
  let expected =
    String.concat ""
      (List.map Wal.encode_record
         (Wal.Steps 5
         :: List.map (fun (txn, outcome) -> Wal.Outcome { txn; outcome }) noted))
  in
  Alcotest.(check string)
    "image is the records framed one at a time" expected
    (Buffer.sub buf header_bytes (Buffer.length buf - header_bytes));
  check_int "bytes_written counts header and records"
    (Buffer.length buf) (Wal.Writer.bytes_written w);
  Wal.Writer.log_steps w 0;
  check_int "empty cut writes nothing" 2 !writes;
  check_int "empty cut does not sync" 1 !syncs;
  let _, _, syncs4, sink4 = counting_sink () in
  let w4 = Wal.Writer.create ~fsync_batch:4 ~base_seq:0 ~on_sync:ignore sink4 in
  for i = 1 to 4 do
    Wal.Writer.note_outcome w4 ~txn:(txn [ i ]) (Wal.Committed "(unit)")
  done;
  Wal.Writer.log_steps w4 3;
  check_int "5-record cut at batch 4 syncs once" 1 !syncs4;
  Wal.Writer.flush w4;
  check_int "and leaves nothing dirty" 1 !syncs4

(* One chunk per call lets a crash tear a cut between any two bytes,
   not only at record boundaries.  Every prefix of a multi-record cut
   must scan [Clean] at a record boundary or [Torn] back to the last
   one, and no intact prefix may hold an [Outcome] without the [Steps]
   record before it. *)
let t_torn_cut () =
  let buf, writes, _, sink = counting_sink () in
  let w = Wal.Writer.create ~base_seq:0 ~on_sync:ignore sink in
  Wal.Writer.append w (Wal.Submit { req = None; client = "c"; program = "p" });
  Wal.Writer.note_outcome w ~txn:t1 (Wal.Committed "(int 3)");
  Wal.Writer.note_outcome w ~txn:t2 (Wal.Aborted (Some "cycle T1->T2"));
  Wal.Writer.log_steps w 7;
  check_int "header, submit, one cut" 3 !writes;
  let img = Buffer.contents buf in
  let boundaries =
    match Wal.scan ~magic:Wal.wal_magic img with
    | Ok s -> s.Wal.sc_offsets @ [ String.length img ]
    | Error e -> Alcotest.fail e
  in
  let cut_start = List.nth boundaries 1 in
  for len = cut_start to String.length img do
    match Wal.scan ~magic:Wal.wal_magic (String.sub img 0 len) with
    | Error e -> Alcotest.failf "cut at %d: %s" len e
    | Ok s ->
        let last =
          List.fold_left (fun a b -> if b <= len then b else a) 0 boundaries
        in
        (match s.Wal.sc_tail with
        | Wal.Clean ->
            check_bool (Printf.sprintf "clean at %d is a boundary" len) true
              (len = last)
        | Wal.Torn { valid; _ } ->
            check_int (Printf.sprintf "torn at %d keeps the last boundary" len)
              last valid);
        let rec closed seen_steps = function
          | [] -> true
          | Wal.Steps _ :: rest -> closed true rest
          | Wal.Outcome _ :: _ when not seen_steps -> false
          | _ :: rest -> closed seen_steps rest
        in
        check_bool (Printf.sprintf "outcomes behind steps at %d" len) true
          (closed false s.Wal.sc_records)
  done

let compact records = Wal.Closure.records (Wal.Closure.of_records records)

(* The replay closure merges step runs, drops audit-only records, keeps
   the replay-relevant order, and is idempotent. *)
let t_compact () =
  let submit = Wal.Submit { req = None; client = "c"; program = "p" } in
  let events =
    [
      List.hd sample_records;
      submit;
      Wal.Steps 3;
      Wal.Steps 4;
      Wal.Outcome { txn = t1; outcome = Wal.Aborted None };
      Wal.Steps 2;
      Wal.Kill { txn = t1 };
      Wal.Steps 0;
      Wal.Steps 1;
    ]
  in
  let c = compact events in
  check_bool "merged and pruned" true
    (c = [ submit; Wal.Steps 9; Wal.Kill { txn = t1 }; Wal.Steps 1 ]);
  check_bool "idempotent" true (compact c = c)

(* [Closure.push] compacts one record at a time: pushing a sequence in
   two halves gives the closure of the whole, and the retained list
   stays bounded by the replay events however many idle [Steps] cuts
   are pushed — the property that keeps a live server's between-
   snapshot memory flat. *)
let t_closure_incremental () =
  let submit = Wal.Submit { req = None; client = "c"; program = "p" } in
  let events =
    [
      List.hd sample_records;
      submit;
      Wal.Steps 3;
      Wal.Steps 4;
      Wal.Outcome { txn = t1; outcome = Wal.Aborted None };
      Wal.Steps 2;
      Wal.Kill { txn = t1 };
      Wal.Steps 0;
      Wal.Steps 1;
    ]
  in
  let c = Wal.Closure.create () in
  List.iteri (fun i r -> if i < 5 then Wal.Closure.push c r) events;
  let c' = Wal.Closure.of_records (Wal.Closure.records c) in
  List.iteri (fun i r -> if i >= 5 then Wal.Closure.push c' r) events;
  List.iteri (fun i r -> if i >= 5 then Wal.Closure.push c r) events;
  check_bool "incremental = whole" true
    (Wal.Closure.records c = compact events
    && Wal.Closure.records c' = compact events);
  check_int "length" (List.length (compact events)) (Wal.Closure.length c);
  check_int "events counted" 2 (Wal.Closure.events c);
  (* An idle server cutting its log every turn: 100k Steps pushes with
     a submission every 10k must not grow the closure past the bound. *)
  let c = Wal.Closure.create () in
  for i = 1 to 100_000 do
    if i mod 10_000 = 0 then Wal.Closure.push c submit;
    Wal.Closure.push c (Wal.Steps 1)
  done;
  check_int "10 retained events" 10 (Wal.Closure.events c);
  check_bool "bounded by 2e+1" true
    (Wal.Closure.length c <= (2 * Wal.Closure.events c) + 1);
  check_bool "no adjacent Steps" true
    (let rec ok = function
       | Wal.Steps _ :: Wal.Steps _ :: _ -> false
       | _ :: rest -> ok rest
       | [] -> true
     in
     ok (Wal.Closure.records c))

(* ----- recorded serves and recovery ----- *)

let backends_cycle = [| Check.Undo; Check.Moss; Check.Commlock; Check.Mvts |]

let scenario_for i =
  let backend = backends_cycle.(i mod Array.length backends_cycle) in
  let sc = Check.gen_scenario ~shape:Check.Default backend (Rng.create (1000 + i)) in
  (backend, sc)

(* A fresh one-shard cluster configured as the scenario's server. *)
let cluster_for ?on_top_complete backend (sc : Check.scenario) =
  Shard_cluster.create ~policy:sc.Check.policy
    ~inform_policy:sc.Check.inform_policy ~abort_prob:sc.Check.abort_prob
    ?on_top_complete ~shards:1 ~seed:sc.Check.sched_seed sc.Check.objects
    (Check.factory_of backend)

let engine_of cl = Shard_engine.engine (Shard_cluster.engine cl 0)

(* Replay a full log image into a fresh cluster; returns its engine. *)
let recover_full backend (sc : Check.scenario) img =
  let s =
    match Wal.scan ~magic:Wal.wal_magic img with
    | Ok s -> s
    | Error e -> Alcotest.fail ("scan: " ^ e)
  in
  check_bool "recorded log has a clean tail" true (s.Wal.sc_tail = Wal.Clean);
  let rp =
    match
      Wal.replayable_of_records ~base_seq:s.Wal.sc_base_seq ~skip_below:0
        s.Wal.sc_records
    with
    | Ok rp -> rp
    | Error e -> Alcotest.fail ("replayable: " ^ e)
  in
  let cl = cluster_for backend sc in
  (match Durable.recover cl rp.Wal.rp_events with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("recover: " ^ e));
  let eng = engine_of cl in
  (match Wal.check_outcomes (Engine.state eng) rp.Wal.rp_outcomes with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("outcomes: " ^ e));
  eng

let sg_of eng = Monitor.graph (Admission.monitor (Engine.admission eng))

let engines_agree name a b =
  check_int (name ^ ": step calls") (Engine.step_calls a) (Engine.step_calls b);
  check_int (name ^ ": submitted") (Engine.submitted a) (Engine.submitted b);
  check_int (name ^ ": committed") (Engine.committed_top a)
    (Engine.committed_top b);
  check_int (name ^ ": aborted") (Engine.aborted_top a) (Engine.aborted_top b);
  check_int (name ^ ": vetoed") (Engine.vetoed a) (Engine.vetoed b);
  check_bool (name ^ ": forests") true
    (List.map Program_io.program_to_string (Engine.forest a)
    = List.map Program_io.program_to_string (Engine.forest b));
  match Wal.check_sg_state (Wal.sg_state_of_graph (sg_of a)) (sg_of b) with
  | Ok () -> ()
  | Error e -> Alcotest.fail (name ^ ": monitor graphs: " ^ e)

(* The replay property, 200 seeded serve runs: a fresh engine replayed
   from the log reproduces the recorded run's counters exactly, every
   audited outcome checks, and replaying the same log twice yields
   agreeing engines (idempotence).  When a snapshot was taken,
   snapshot + tail replay must agree with the full-log replay. *)
let t_snapshot_tail_equals_full () =
  let snapshots = ref 0 in
  for i = 0 to 199 do
    let backend, sc = scenario_for i in
    let rc =
      Check.record ~drop_prob:0.1 ~snapshot_at:6 ~seed:(3000 + i) backend sc
    in
    let eng = recover_full backend sc rc.Check.rc_wal in
    let eng2 = recover_full backend sc rc.Check.rc_wal in
    engines_agree "replay idempotence" eng eng2;
    check_int "replayed submissions" rc.Check.rc_report.Check.s_submitted
      (Engine.submitted eng);
    check_int "replayed commits" rc.Check.rc_report.Check.s_committed
      (Engine.committed_top eng);
    check_int "replayed aborts" rc.Check.rc_report.Check.s_aborted
      (Engine.aborted_top eng);
    match rc.Check.rc_snapshot with
    | None -> ()
    | Some simg -> (
        incr snapshots;
        let sn =
          match Wal.decode_snapshot simg with
          | Ok sn -> sn
          | Error e -> Alcotest.fail ("snapshot: " ^ e)
        in
        let rp_snap =
          match
            Wal.replayable_of_records ~base_seq:0 ~skip_below:0
              sn.Wal.sn_events
          with
          | Ok rp -> rp
          | Error e -> Alcotest.fail ("snapshot events: " ^ e)
        in
        let cl3 = cluster_for backend sc in
        let eng3 = engine_of cl3 in
        (match Durable.recover cl3 rp_snap.Wal.rp_events with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("snapshot replay: " ^ e));
        (* The snapshot's materialized SG and counters must match the
           state its compacted events replay to. *)
        (match Wal.check_sg_state sn.Wal.sn_sg (sg_of eng3) with
        | Ok () -> ()
        | Error e -> Alcotest.fail ("snapshot sg: " ^ e));
        (match sn.Wal.sn_counts with
        | Wal.Counts { submitted; committed; aborted; vetoed } ->
            check_int "snapshot submitted" submitted (Engine.submitted eng3);
            check_int "snapshot committed" committed
              (Engine.committed_top eng3);
            check_int "snapshot aborted" aborted (Engine.aborted_top eng3);
            check_int "snapshot vetoed" vetoed (Engine.vetoed eng3)
        | _ -> Alcotest.fail "snapshot missing counts");
        let s = Result.get_ok (Wal.scan ~magic:Wal.wal_magic rc.Check.rc_wal) in
        let rp_tail =
          match
            Wal.replayable_of_records ~base_seq:s.Wal.sc_base_seq
              ~skip_below:sn.Wal.sn_next_seq s.Wal.sc_records
          with
          | Ok rp -> rp
          | Error e -> Alcotest.fail ("tail events: " ^ e)
        in
        (match Durable.replay cl3 rp_tail.Wal.rp_events with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("tail replay: " ^ e));
        (match Wal.check_outcomes (Engine.state eng3) rp_tail.Wal.rp_outcomes with
        | Ok _ -> ()
        | Error e -> Alcotest.fail ("tail outcomes: " ^ e));
        engines_agree "snapshot + tail vs full log" eng3 eng)
  done;
  check_bool "snapshot path exercised" true (!snapshots > 50)

(* [record] is a pure function of its arguments — log image and
   report alike — and a fresh cluster cannot [recover] twice. *)
let t_record_deterministic () =
  let backend, sc = scenario_for 3 in
  let rc = Check.record ~drop_prob:0.1 ~seed:77 backend sc in
  let again = Check.record ~drop_prob:0.1 ~seed:77 backend sc in
  let sr = again.Check.rc_report in
  check_bool "same log image" true (rc.Check.rc_wal = again.Check.rc_wal);
  check_int "submitted" sr.Check.s_submitted rc.Check.rc_report.Check.s_submitted;
  check_int "committed" sr.Check.s_committed rc.Check.rc_report.Check.s_committed;
  check_int "dropped" sr.Check.s_dropped rc.Check.rc_report.Check.s_dropped;
  check_bool "traces equal" true
    (List.equal Action.equal
       (Trace.to_list sr.Check.s_trace)
       (Trace.to_list rc.Check.rc_report.Check.s_trace));
  let cl = cluster_for backend sc in
  check_bool "first recover accepted" true
    (Result.is_ok (Durable.recover cl [ `Steps 1 ]));
  check_bool "second recover on a used cluster is refused" true
    (match Durable.recover cl [] with Error _ -> true | Ok _ -> false)

(* Memory pin for the serving loop's replay closure: across long
   recorded runs the in-memory closure must stay within
   [2 * (submits + kills) + 1] — growth tracks replay events, never
   raw appended records (outcomes, idle step cuts). *)
let t_closure_bounded_on_record () =
  for i = 0 to 19 do
    let backend, sc = scenario_for i in
    let rc = Check.record ~drop_prob:0.2 ~seed:(500 + i) backend sc in
    let records =
      match Wal.scan ~magic:Wal.wal_magic rc.Check.rc_wal with
      | Ok s -> s.Wal.sc_records
      | Error e -> Alcotest.fail ("scan: " ^ e)
    in
    let events =
      List.length
        (List.filter
           (function Wal.Submit _ | Wal.Kill _ -> true | _ -> false)
           records)
    in
    check_bool "closure within 2e+1" true
      (rc.Check.rc_closure_len <= (2 * events) + 1);
    check_bool "closure is the compacted log" true
      (rc.Check.rc_closure_len = List.length (compact records))
  done

(* The headline sweep: simulated kill(-9) at every log boundary (plus
   torn and bit-flipped variants) across 200 seeded serve runs, every
   recovery re-judged by the four oracles.  Zero failures expected on
   verified backends. *)
let t_crash_sweep () =
  let boundaries = ref 0 and recoveries = ref 0 and outcomes = ref 0 in
  for i = 0 to 199 do
    let backend, sc = scenario_for i in
    let rep = Check.crash ~snapshot_at:6 backend sc in
    (match rep.Check.c_failure with
    | None -> ()
    | Some (where, f) ->
        Alcotest.fail
          (Format.asprintf "seed %d (%s): %s: %a" i
             (Check.backend_name backend) where Check.pp_failure f));
    boundaries := !boundaries + rep.Check.c_boundaries;
    recoveries := !recoveries + rep.Check.c_recoveries;
    outcomes := !outcomes + rep.Check.c_outcomes_checked
  done;
  check_bool "swept many boundaries" true (!boundaries > 2000);
  check_bool "recovered more images than boundaries" true
    (!recoveries > !boundaries);
  check_bool "checked audited outcomes" true (!outcomes > 1000)

(* Determinism: the same crash sweep twice yields the same report. *)
let t_crash_deterministic () =
  let backend, sc = scenario_for 7 in
  let a = Check.crash ~snapshot_at:6 backend sc in
  let b = Check.crash ~snapshot_at:6 backend sc in
  check_int "boundaries" a.Check.c_boundaries b.Check.c_boundaries;
  check_int "recoveries" a.Check.c_recoveries b.Check.c_recoveries;
  check_int "outcomes" a.Check.c_outcomes_checked b.Check.c_outcomes_checked;
  check_bool "failures" true (a.Check.c_failure = b.Check.c_failure)

(* Negative control: the crash harness still catches broken backends —
   the pre-crash run fails an oracle and the sweep reports it. *)
let t_crash_catches_broken () =
  let r = Check.crash_campaign Check.No_control ~seed:5 ~runs:20 in
  check_bool "no-control caught" true (r.Check.failures <> []);
  match r.Check.failures with
  | (_, sc, f) :: _ ->
      check_bool "tagged" true
        (List.mem (Check.failure_tag f)
           [ "durability"; "sg-cycle"; "returns"; "not-correct";
             "differential"; "ill-formed" ]);
      (* Crash bundles round-trip with the serving seed. *)
      let text =
        Bundle.to_string ~failure:f
          ~crash_seed:(Check.crash_seed_of sc)
          Check.No_control sc
      in
      (match Bundle.of_string text with
      | Error e -> Alcotest.fail e
      | Ok b ->
          check_bool "crash seed preserved" true
            (b.Bundle.crash_seed = Some (Check.crash_seed_of sc));
          check_int "sched seed preserved" sc.Check.sched_seed
            b.Bundle.scenario.Check.sched_seed)
  | [] -> ()

(* Shrinking a crash failure: ddmin over the crash sweep converges to
   a smaller scenario that still fails, deterministically. *)
let t_crash_shrinks () =
  let r =
    Check.crash_campaign ~stop_at_first:true Check.No_control ~seed:5 ~runs:20
  in
  match r.Check.failures with
  | [] -> Alcotest.fail "expected a crash-campaign failure to shrink"
  | (_, sc, _) :: _ -> (
      match Shrink.minimize_crash ~max_attempts:60 Check.No_control sc with
      | None -> Alcotest.fail "shrinker lost the failure"
      | Some s ->
          check_bool "still failing after shrink" true
            (Check.failure_tag s.Shrink.failure <> "");
          check_bool "no bigger than the original" true
            (Shrink.n_accesses s.Shrink.scenario.Check.forest
            <= Shrink.n_accesses sc.Check.forest);
          check_bool "deterministic" true s.Shrink.deterministic)

(* A recorded run that actually took a snapshot, for the torn-write
   cases below. *)
let run_with_snapshot () =
  let rec find i =
    if i > 40 then Alcotest.fail "no run produced a snapshot"
    else
      let backend, sc = scenario_for i in
      let rc =
        Check.record ~drop_prob:0.1 ~snapshot_at:6 ~seed:(3000 + i) backend sc
      in
      match rc.Check.rc_snapshot with
      | Some simg -> (backend, sc, rc, simg)
      | None -> find (i + 1)
  in
  find 0

(* Torn writes on the snapshot path: every strict truncation of the
   snapshot image — header cuts, mid-record cuts, a one-byte-short
   image — must be refused by the decoder, never half-accepted. *)
let t_torn_snapshot_refused () =
  let _, _, _, simg = run_with_snapshot () in
  let slen = String.length simg in
  check_bool "snapshot image non-trivial" true (slen > 16);
  List.iter
    (fun cut ->
      if cut >= 0 && cut < slen then
        match Wal.decode_snapshot (String.sub simg 0 cut) with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "torn snapshot accepted at cut %d of %d" cut slen)
    [ 0; 8; 16; slen / 4; slen / 2; slen - 1 ];
  match Wal.decode_snapshot simg with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("intact snapshot refused: " ^ e)

(* A bit-flipped snapshot is refused, and recovery falls back to the
   full log: the replayed engine reproduces the recorded counters as
   if the snapshot had never existed. *)
let t_flipped_snapshot_falls_back () =
  let backend, sc, rc, simg = run_with_snapshot () in
  let flip pos s =
    let b = Bytes.of_string s in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
    Bytes.to_string b
  in
  let slen = String.length simg in
  List.iter
    (fun pos ->
      match Wal.decode_snapshot (flip pos simg) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flipped snapshot accepted at byte %d" pos)
    [ 0; slen / 2; slen - 1 ];
  let eng = recover_full backend sc rc.Check.rc_wal in
  check_int "fallback submissions" rc.Check.rc_report.Check.s_submitted
    (Engine.submitted eng);
  check_int "fallback commits" rc.Check.rc_report.Check.s_committed
    (Engine.committed_top eng);
  check_int "fallback aborts" rc.Check.rc_report.Check.s_aborted
    (Engine.aborted_top eng)

(* ----- the shared log policy: Wal.Recovery and Durable ----- *)

let meta_for backend (sc : Check.scenario) =
  Wal.meta ~seed:sc.Check.sched_seed ~backend:(Check.backend_name backend)
    ~policy:sc.Check.policy ~inform_policy:sc.Check.inform_policy
    ~abort_prob:sc.Check.abort_prob sc.Check.objects

(* A fresh cluster whose completion hook feeds whatever session the
   returned cell holds, as a server's does. *)
let hooked_cluster backend (sc : Check.scenario) =
  let cell = ref None in
  let cl =
    cluster_for backend sc ~on_top_complete:(fun t o ->
        Option.iter (fun s -> Durable.Session.note_outcome s t o) !cell)
  in
  (cl, cell)

let plan_or_fail ~meta ~log ~snapshot =
  match Wal.Recovery.plan ~meta ~log ~snapshot with
  | Ok plan -> plan
  | Error { Wal.Recovery.why; _ } -> Alcotest.fail ("plan refused: " ^ why)

(* Replay a plan to the end in small turns. *)
let run_plan cl plan =
  match Durable.run ~burst:7 cl plan with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("recovery: " ^ e)

(* What a server does once a plan is replayed: keep the log's first
   [valid] bytes (or start a new generation) and log on from there
   through a session resumed from the plan.  Returns the session and
   the buffer holding the continued log. *)
let resume ~meta cl cell plan log =
  let valid = plan.Wal.Recovery.valid in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (String.sub log 0 valid);
  let w =
    Wal.Writer.create ~fresh:(valid = 0) ~base_seq:plan.Wal.Recovery.base_seq
      ~on_sync:ignore (Wal.buffer_sink buf)
  in
  let s = Durable.Session.create ~plan ~meta cl w in
  cell := Some s;
  (s, buf)

(* A server's life in memory: programs submitted through the session,
   random step runs in between, the odd orphan kill, then quiescence. *)
let serve_into rng cl s progs =
  List.iter
    (fun prog ->
      (match Durable.Session.submit s ~client:"t" prog with
      | Ok g -> if Rng.int rng 8 = 0 then ignore (Durable.Session.kill s g)
      | Error e -> Alcotest.fail e);
      for _ = 1 to Rng.int rng 6 do
        ignore (Shard_cluster.step_shard cl 0)
      done)
    progs;
  ignore (Shard_cluster.drain cl)

(* Every rule of [Recovery.plan], table-driven over one recorded run
   with a snapshot: the images a server can meet after a crash, a
   rotation, bit rot or an operator's mistake.  Accepted plans are
   replayed and compared with [recover_full] of the log prefix they
   stand for. *)
let t_recovery_plan_rules () =
  let backend, sc, rc, simg = run_with_snapshot () in
  let meta = meta_for backend sc in
  let foreign = meta_for backend { sc with Check.sched_seed = sc.Check.sched_seed + 1 } in
  let img = rc.Check.rc_wal in
  let len = String.length img in
  let offsets = Array.of_list rc.Check.rc_offsets in
  let n = Array.length offsets in
  let off j = if j < n then offsets.(j) else len in
  let from j = String.sub img (off j) (len - off j) in
  let sn =
    match Wal.decode_snapshot simg with
    | Ok sn -> sn
    | Error e -> Alcotest.fail e
  in
  let k = sn.Wal.sn_next_seq in
  let flipped = Bytes.of_string simg in
  Bytes.set flipped (String.length simg / 2)
    (Char.chr (Char.code (Bytes.get flipped (String.length simg / 2)) lxor 0x10));
  let flipped = Bytes.to_string flipped in
  let log_at base = Wal.header ~magic:Wal.wal_magic ~base_seq:base in
  (* The generation a server rotates onto at the cover point: its own
     Meta, then the records the old log held from [k] on. *)
  let rotated = log_at k ^ Wal.encode_record meta ^ from k in
  check_bool "snapshot covers part of the log" true (k > 1 && k <= n);
  let ok ?reference check = `Ok (check, reference) in
  let cases =
    [
      ("fresh", "", None, ok (fun p -> p.Wal.Recovery.empty && p.Wal.Recovery.valid = 0));
      ( "header-only log (crash after its header)",
        log_at 0,
        None,
        ok (fun p -> p.Wal.Recovery.empty && not p.Wal.Recovery.has_meta) );
      ( "snapshot + header-only rotated log",
        log_at k,
        Some simg,
        ok ~reference:(String.sub img 0 (off k)) (fun p ->
            p.Wal.Recovery.snapshot_trusted
            && (not p.Wal.Recovery.has_meta)
            && p.Wal.Recovery.base_seq = k) );
      ( "torn tail",
        String.sub img 0 (off (n - 1) + 3),
        None,
        ok ~reference:(String.sub img 0 (off (n - 1))) (fun p ->
            p.Wal.Recovery.tail <> Wal.Clean
            && p.Wal.Recovery.valid = off (n - 1)
            && p.Wal.Recovery.base_seq = n - 1) );
      ( "snapshot + full log",
        img,
        Some simg,
        ok ~reference:img (fun p ->
            p.Wal.Recovery.snapshot_trusted && p.Wal.Recovery.base_seq = n) );
      ( "snapshot + rotated log",
        rotated,
        Some simg,
        ok ~reference:img (fun p ->
            p.Wal.Recovery.snapshot_trusted && p.Wal.Recovery.base_seq = n + 1) );
      ( "corrupt snapshot, base_seq 0: falls back with a note",
        img,
        Some flipped,
        ok ~reference:img (fun p ->
            (not p.Wal.Recovery.snapshot_trusted)
            && List.map (fun i -> i.Wal.Recovery.culprit) p.Wal.Recovery.notes
               = [ `Snapshot ]) );
      ( "log ends before the cover point: new generation there",
        String.sub img 0 (off (k - 1)),
        Some simg,
        ok ~reference:(String.sub img 0 (off k)) (fun p ->
            p.Wal.Recovery.snapshot_trusted && p.Wal.Recovery.valid = 0
            && p.Wal.Recovery.base_seq = k) );
      ("corrupt snapshot after rotation", rotated, Some flipped, `Refused `Snapshot);
      ("snapshot missing after rotation", rotated, None, `Refused `Log);
      ( "foreign Meta in the log",
        log_at 0 ^ Wal.encode_record foreign ^ from 1,
        None,
        `Refused `Log );
      ( "foreign Meta in the snapshot",
        img,
        Some (Wal.encode_snapshot { sn with Wal.sn_meta = foreign }),
        `Refused `Snapshot );
      ( "gap between snapshot and log",
        log_at (k + 2) ^ Wal.encode_record meta ^ from (k + 1),
        Some simg,
        `Refused `Log );
      ("records but no Meta", log_at 0 ^ from 1, None, `Refused `Log);
      ( "log written under the previous scheduler (NTWAL01)",
        "NTWAL01\n" ^ String.sub img 8 (len - 8),
        None,
        `Refused `Log );
      ( "snapshot written under the previous scheduler (NTSNAP1)",
        rotated,
        Some ("NTSNAP1\n" ^ String.sub simg 8 (String.length simg - 8)),
        `Refused `Snapshot );
      ( "snapshot holding the whole-history graph (NTSNAP3)",
        rotated,
        Some ("NTSNAP3\n" ^ String.sub simg 8 (String.length simg - 8)),
        `Refused `Snapshot );
    ]
  in
  List.iter
    (fun (name, log, snapshot, expect) ->
      match (Wal.Recovery.plan ~meta ~log ~snapshot, expect) with
      | Error { Wal.Recovery.culprit; _ }, `Refused c ->
          check_bool (name ^ ": refusal names the file") true (culprit = c)
      | Error { Wal.Recovery.why; _ }, `Ok _ -> Alcotest.fail (name ^ ": refused: " ^ why)
      | Ok _, `Refused _ -> Alcotest.fail (name ^ ": accepted")
      | Ok plan, `Ok (check, reference) ->
          check_bool (name ^ ": plan") true (check plan);
          let cl, cell = hooked_cluster backend sc in
          run_plan cl plan;
          Option.iter
            (fun ref_img ->
              engines_agree name (engine_of cl) (recover_full backend sc ref_img))
            reference;
          (* Serve on from the plan, then restart again: whatever the
             first restart kept, the continued log must recover to the
             live engine — a generation that lost its Meta would be
             refused here. *)
          let s, buf = resume ~meta cl cell plan log in
          serve_into (Rng.create 7) cl s [ List.hd sc.Check.forest ];
          Durable.Session.flush s;
          let plan' = plan_or_fail ~meta ~log:(Buffer.contents buf) ~snapshot in
          check_bool (name ^ ": continued log holds its Meta") true
            plan'.Wal.Recovery.has_meta;
          let cl', _ = hooked_cluster backend sc in
          run_plan cl' plan';
          engines_agree (name ^ ": continued") (engine_of cl) (engine_of cl'))
    cases

(* Restart, then snapshot: a crash at a record boundary, the plan's
   recovery, a session resumed from the plan's seed closure serving
   more traffic, a snapshot mid-way.  The snapshot must hold the whole
   history — pre-crash prefix included — so snapshot + tail and the
   live engine both agree with a full replay of the continued log. *)
let t_restart_then_snapshot () =
  let runs = ref 0 in
  for i = 0 to 39 do
    let backend, sc = scenario_for i in
    let meta = meta_for backend sc in
    let rc = Check.record ~drop_prob:0.1 ~seed:(4000 + i) backend sc in
    let offsets = Array.of_list rc.Check.rc_offsets in
    let n = Array.length offsets in
    if n >= 4 then begin
      incr runs;
      let cut = String.sub rc.Check.rc_wal 0 offsets.(n / 2) in
      let plan = plan_or_fail ~meta ~log:cut ~snapshot:None in
      let cl, cell = hooked_cluster backend sc in
      run_plan cl plan;
      engines_agree "plan = reference replay" (engine_of cl)
        (recover_full backend sc cut);
      let s, buf = resume ~meta cl cell plan cut in
      let rng = Rng.create (5000 + i) in
      let half = List.length sc.Check.forest / 2 in
      serve_into rng cl s (List.filteri (fun j _ -> j < half) sc.Check.forest);
      let snap = Durable.Session.snapshot s in
      serve_into rng cl s (List.filteri (fun j _ -> j >= half) sc.Check.forest);
      Durable.Session.flush s;
      let log = Buffer.contents buf in
      let full = recover_full backend sc log in
      engines_agree "live engine = full-log replay" (engine_of cl) full;
      let plan' = plan_or_fail ~meta ~log ~snapshot:(Some snap) in
      check_bool "snapshot trusted" true plan'.Wal.Recovery.snapshot_trusted;
      let cl', _ = hooked_cluster backend sc in
      run_plan cl' plan';
      engines_agree "snapshot + tail = full log" (engine_of cl') full
    end
  done;
  check_bool "restarts exercised" true (!runs > 20)

(* Schedule tripwire.  Recovery replays [Steps n] through the
   runtime's RNG and checks the monitor's graph and veto witnesses, so
   a change to any seed's schedule, graph or witnesses must move
   [Wal.wal_magic] (see its doc), and a change to a snapshot's graph
   must move [Wal.snap_magic].  The digests pin the full log image,
   snapshot included, of a few fixed recorded runs per verified
   backend under the current magics: a schedule change that leaves the
   magics alone fails here. *)
let pinned_magic = "NTWAL03\n"
let pinned_snap_magic = "NTSNAP4\n"

let pinned_schedules =
  [
    ("moss", 0, "c105055b2a919149fec69ff1c5f50b3a");
    ("moss", 1, "bf63b51aa32e5783949490eb81723f20");
    ("moss", 2, "250bbcdccbf0b2ad7fea40a002e40d8c");
    ("commlock", 0, "5233a9c7948c3316955cb18966b418a7");
    ("commlock", 1, "a9b71b9338fc128f7662cb7916f2e4bb");
    ("commlock", 2, "b0067f29d4cfd77c8282aa078bb4e4f5");
    ("undo", 0, "984cbde808743c990e05d2fee132103e");
    ("undo", 1, "001ab9dc8de971c49e689968df1d2889");
    ("undo", 2, "a215540ef55a9404b2706bf45e5dce0e");
    ("mvts", 0, "cec5579042fd5d58801c9e4f3aa8b8a8");
    ("mvts", 1, "b42a039d70df5fcb1efb0aba1b4584c3");
    ("mvts", 2, "106676e689e142c0de93d91e2e44b097");
    ("replication", 0, "68bf884bf4ce659be76a513abb596faa");
    ("replication", 1, "2530374406580c8259250bdc40ef1761");
    ("replication", 2, "94c6f5b5e55e3245ba430f1d43b0a6d9");
  ]

let t_schedule_tripwire () =
  if Wal.wal_magic <> pinned_magic || Wal.snap_magic <> pinned_snap_magic then
    Alcotest.fail
      "Wal.wal_magic or Wal.snap_magic moved: re-pin the schedule digests \
       under the new magic";
  List.iter
    (fun backend ->
      let name = Check.backend_name backend in
      for i = 0 to 2 do
        let sc = Check.gen_scenario backend (Rng.create (4200 + i)) in
        let rc =
          Check.record ~drop_prob:0.1 ~snapshot_at:6 ~seed:(4300 + i) backend
            sc
        in
        let image =
          rc.Check.rc_wal ^ Option.value ~default:"" rc.Check.rc_snapshot
        in
        let got = Digest.to_hex (Digest.string image) in
        match
          List.find_opt (fun (b, j, _) -> b = name && j = i) pinned_schedules
        with
        | Some (_, _, want) when want = got -> ()
        | Some _ ->
            Alcotest.failf
              "%s seed %d: schedule changed: bump Wal.wal_magic and re-pin"
              name i
        | None -> Alcotest.failf "%s seed %d: no pinned digest" name i
      done)
    Check.correct_backends

let suite =
  ( "wal",
    [
      Alcotest.test_case "codec roundtrip" `Quick t_codec_roundtrip;
      Alcotest.test_case "adversarial decode" `Quick t_adversarial_decode;
      Alcotest.test_case "writer batching" `Quick t_writer_batching;
      Alcotest.test_case "outcome after steps" `Quick t_outcome_after_steps;
      Alcotest.test_case "one write and one sync per call" `Quick
        t_writer_call_unit;
      Alcotest.test_case "torn cut keeps outcomes behind steps" `Quick
        t_torn_cut;
      Alcotest.test_case "compact" `Quick t_compact;
      Alcotest.test_case "closure incremental = compact" `Quick
        t_closure_incremental;
      Alcotest.test_case "closure bounded on record (20 seeds)" `Quick
        t_closure_bounded_on_record;
      Alcotest.test_case "snapshot + tail = full log (200 seeds)" `Quick
        t_snapshot_tail_equals_full;
      Alcotest.test_case "record is deterministic" `Quick t_record_deterministic;
      Alcotest.test_case "crash sweep, every boundary (200 seeds)" `Quick
        t_crash_sweep;
      Alcotest.test_case "crash sweep deterministic" `Quick
        t_crash_deterministic;
      Alcotest.test_case "crash catches broken backends" `Quick
        t_crash_catches_broken;
      Alcotest.test_case "crash failures shrink" `Quick t_crash_shrinks;
      Alcotest.test_case "torn snapshots refused" `Quick
        t_torn_snapshot_refused;
      Alcotest.test_case "flipped snapshot falls back to full log" `Quick
        t_flipped_snapshot_falls_back;
      Alcotest.test_case "recovery plan rules" `Quick t_recovery_plan_rules;
      Alcotest.test_case "restart, then snapshot (40 seeds)" `Quick
        t_restart_then_snapshot;
      Alcotest.test_case "schedule tripwire" `Quick t_schedule_tripwire;
    ] )
