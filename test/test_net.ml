(* The serving stack: wire codec, open-loop engine, orphan cleanup,
   online admission control, and the served-traffic oracle sweep. *)

open Core
open Util

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ----- wire ----- *)

let sample_requests =
  [
    Wire.Hello { client = "c1" };
    Wire.Submit { program = "(txn (seq (access x read)))"; req = None };
    Wire.Submit { program = "(txn (seq (access x read)))"; req = Some "c1-42" };
    Wire.Status (Txn_id.of_path [ 3 ]);
    Wire.Metrics;
    Wire.Subscribe;
    Wire.Ping;
    Wire.Dump;
    Wire.Quiesce;
    Wire.Shutdown;
  ]

let sample_hist =
  {
    Wire.h_count = 7;
    h_sum = 1234;
    h_min = 3;
    h_max = 700;
    h_p50 = 127;
    h_p99 = 700;
    h_p999 = 700;
    h_buckets = [ (2, 1); (7, 4); (10, 2) ];
  }

let sample_telemetry =
  {
    Wire.seq = 3;
    t_mono = 2.125;
    interval_s = 1.0;
    w_requests = 41;
    w_submitted = 12;
    w_committed = 9;
    w_aborted = 2;
    w_vetoed = 1;
    w_orphans = 0;
    w_alarms = 0;
    w_latency = sample_hist;
    o_live = 4;
    o_doomed = 1;
    o_conns = 3;
    o_subscribers = 2;
    c_submitted = 120;
    c_committed = 100;
    c_aborted = 16;
    c_vetoed = 5;
    c_alarms = 0;
    sg_nodes = 44;
    sg_edges = 71;
    sg_reorders = 2;
    hot = [ ("r3", 17); ("r0", 4) ];
    stages =
      [
        ("decode", { sample_hist with Wire.h_count = 41 });
        ("execute", sample_hist);
      ];
    gc_pause = { sample_hist with Wire.h_count = 2; h_sum = 900 };
    gc_pct = 1.25;
    per_shard = [];
  }

let sample_responses =
  [
    Wire.Welcome
      {
        server = "ntserved";
        version = Version.string;
        backend = "undo";
        objects = [ ("x", "(register 0)"); ("c", "(counter 3)") ];
        status = Wire.Fresh;
        shards = 1;
      };
    Wire.Welcome
      {
        server = "ntserved";
        version = Version.string;
        backend = "moss";
        objects = [];
        status = Wire.Recovering { replayed = 12; total = 40 };
        shards = 4;
      };
    Wire.Accepted { txn = Txn_id.of_path [ 7 ]; req = None };
    Wire.Accepted { txn = Txn_id.of_path [ 8 ]; req = Some "c1-42" };
    Wire.Rejected { why = "line 2: unexpected )"; req = Some "c1-43" };
    Wire.State { txn = Txn_id.of_path [ 0 ]; state = Wire.Pending; req = None };
    Wire.State
      { txn = Txn_id.of_path [ 1 ]; state = Wire.Running; req = Some "c2-1" };
    Wire.State
      {
        txn = Txn_id.of_path [ 2 ];
        state = Wire.Committed "[(true, ok)]";
        req = None;
      };
    Wire.State
      { txn = Txn_id.of_path [ 3 ]; state = Wire.Aborted None; req = None };
    Wire.State
      {
        txn = Txn_id.of_path [ 4 ];
        state = Wire.Aborted (Some "T0.1 -> T0.2 ...");
        req = Some "c9-0";
      };
    Wire.Metrics_dump (Obs_json.Obj [ ("served.requests", Obs_json.Int 4) ]);
    Wire.Telemetry sample_telemetry;
    Wire.Telemetry
      { sample_telemetry with Wire.seq = 4; hot = []; stages = [] };
    Wire.Telemetry
      {
        sample_telemetry with
        Wire.seq = 5;
        per_shard =
          [
            { Wire.r_shard = 0; r_submitted = 7; r_committed = 5;
              r_aborted = 1; r_vetoed = 0; r_live = 1 };
            { Wire.r_shard = 1; r_submitted = 5; r_committed = 4;
              r_aborted = 1; r_vetoed = 1; r_live = 0 };
          ];
      };
    Wire.Pong
      {
        t_mono = 12.5;
        live = 3;
        doomed = 1;
        conns = 2;
        status = Wire.Recovered { replayed = 40; torn = true };
      };
    Wire.Dumped
      {
        spans = 41;
        dropped = 7;
        jsonl = "flight-001-request.jsonl";
        chrome = "flight-001-request.trace.json";
      };
    Wire.Quiesced
      { committed = 5; aborted = 2; vetoed = 1; alarms = 0; per_shard = [] };
    Wire.Quiesced
      {
        committed = 5;
        aborted = 2;
        vetoed = 1;
        alarms = 0;
        per_shard =
          [
            { Wire.r_shard = 0; r_submitted = 4; r_committed = 3;
              r_aborted = 1; r_vetoed = 1; r_live = 0 };
          ];
      };
    Wire.Goodbye;
    Wire.Error_msg "bad frame header";
  ]

let req_repr r = Obs_json.to_string (Wire.request_to_json r)
let resp_repr r = Obs_json.to_string (Wire.response_to_json r)

let t_wire_roundtrip () =
  List.iter
    (fun req ->
      let r = Wire.Reader.create () in
      Wire.Reader.feed r (Wire.encode_request req);
      match Wire.Reader.next r with
      | Ok (Some payload) -> (
          match Wire.decode_request payload with
          | Ok req' ->
              Alcotest.(check string) "request roundtrips" (req_repr req)
                (req_repr req');
              check_bool "drained" true (Wire.Reader.next r = Ok None)
          | Error e -> Alcotest.failf "decode_request: %s" e)
      | _ -> Alcotest.fail "expected one frame")
    sample_requests;
  List.iter
    (fun resp ->
      match Wire.decode_response (resp_repr resp) with
      | Ok resp' ->
          Alcotest.(check string) "response roundtrips" (resp_repr resp)
            (resp_repr resp')
      | Error e -> Alcotest.failf "decode_response: %s" e)
    sample_responses

let t_wire_reassembly () =
  (* all frames concatenated, fed one byte at a time *)
  let blob = String.concat "" (List.map Wire.encode_request sample_requests) in
  let r = Wire.Reader.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Wire.Reader.feed r (String.make 1 c);
      let rec drain () =
        match Wire.Reader.next r with
        | Ok (Some p) ->
            got := Result.get_ok (Wire.decode_request p) :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "reader error: %s" e
      in
      drain ())
    blob;
  check_bool "all frames recovered" true
    (List.map req_repr (List.rev !got) = List.map req_repr sample_requests)

let t_wire_errors () =
  let poison s =
    let r = Wire.Reader.create () in
    Wire.Reader.feed r s;
    match Wire.Reader.next r with
    | Error e -> Some e
    | Ok _ -> None
  in
  let poisoned s = poison s <> None in
  check_bool "negative" true (poisoned "-1\nx");
  check_bool "garbage header" true (poisoned "zzz\n");
  check_bool "oversized" true (poisoned (string_of_int (Wire.max_frame + 1) ^ "\n"));
  check_bool "unterminated header" true (poisoned (String.make 64 '1'));
  check_bool "bad json" true (Result.is_error (Wire.decode_request "{"));
  check_bool "unknown type" true
    (Result.is_error (Wire.decode_request "{\"type\":\"warp\"}"));
  (* the error names what poisoned the stream: the claimed size for an
     oversized frame, the offending bytes for a garbage header *)
  (match poison (string_of_int (Wire.max_frame + 1) ^ "\n") with
  | Some e ->
      check_bool "oversized error reports the claimed size" true
        (Astring_like.contains e (string_of_int (Wire.max_frame + 1)));
      check_bool "oversized error reports the limit" true
        (Astring_like.contains e (string_of_int Wire.max_frame))
  | None -> Alcotest.fail "oversized frame accepted");
  (match poison "zzz\n" with
  | Some e ->
      check_bool "garbage error reports the prefix" true
        (Astring_like.contains e "zzz")
  | None -> Alcotest.fail "garbage header accepted");
  (match poison "-1\nx" with
  | Some e ->
      check_bool "negative error reports the size" true
        (Astring_like.contains e "-1")
  | None -> Alcotest.fail "negative size accepted")

(* The reader distinguishes a peer that closed at a frame boundary
   from one that vanished mid-frame — the signature of a crashed
   writer, which the crash-recovery tooling keys on. *)
let t_wire_eof () =
  let drain r =
    let rec go () =
      match Wire.Reader.next r with
      | Ok (Some _) -> go ()
      | Ok None -> ()
      | Error e -> Alcotest.failf "reader error: %s" e
    in
    go ()
  in
  let r = Wire.Reader.create () in
  check_bool "fresh stream ends clean" true (Wire.Reader.eof r = Clean);
  Wire.Reader.feed r (Wire.encode_request Wire.Ping);
  drain r;
  check_bool "frame-boundary close is clean" true (Wire.Reader.eof r = Clean);
  (* cut inside the payload: the declared length is already known *)
  let f = Wire.encode_request (Wire.Hello { client = "durable" }) in
  let nl = String.index f '\n' in
  let declared = int_of_string (String.sub f 0 nl) in
  let cut = nl + 1 + 3 in
  let r = Wire.Reader.create () in
  Wire.Reader.feed r (String.sub f 0 cut);
  drain r;
  (match Wire.Reader.eof r with
  | Torn { buffered; expected = Some len } ->
      check_int "torn: buffered bytes" cut buffered;
      check_int "torn: declared payload length" declared len
  | e -> Alcotest.failf "expected mid-payload Torn, got %s"
           (Wire.Reader.describe_eof e));
  (* cut inside the header itself: no declared length yet *)
  let r = Wire.Reader.create () in
  Wire.Reader.feed r (String.sub f 0 (min 2 nl));
  drain r;
  (match Wire.Reader.eof r with
  | Torn { expected = None; _ } -> ()
  | e -> Alcotest.failf "expected mid-header Torn, got %s"
           (Wire.Reader.describe_eof e));
  check_bool "describe_eof names the payload size" true
    (Astring_like.contains
       (Wire.Reader.describe_eof
          (Torn { buffered = 7; expected = Some 99 }))
       "99")

(* Responses from a pre-durability server carry no status field; the
   decoder must default to Fresh rather than reject the peer. *)
let t_wire_status_compat () =
  let welcome =
    "{\"type\":\"welcome\",\"server\":\"old\",\"version\":\"0.9\",\
     \"protocol\":3,\"backend\":\"undo\",\"objects\":[]}"
  in
  (match Wire.decode_response welcome with
  | Ok (Wire.Welcome { status; _ }) ->
      check_bool "status-less welcome defaults Fresh" true
        (status = Wire.Fresh)
  | Ok _ -> Alcotest.fail "decoded to a non-Welcome response"
  | Error e -> Alcotest.failf "welcome rejected: %s" e);
  let pong =
    "{\"type\":\"pong\",\"t\":1.5,\"live\":2,\"doomed\":0,\"conns\":1}"
  in
  (match Wire.decode_response pong with
  | Ok (Wire.Pong { status; _ }) ->
      check_bool "status-less pong defaults Fresh" true (status = Wire.Fresh)
  | Ok _ -> Alcotest.fail "decoded to a non-Pong response"
  | Error e -> Alcotest.failf "pong rejected: %s" e);
  (match
     Wire.decode_response
       "{\"type\":\"pong\",\"t\":1.5,\"live\":2,\"doomed\":0,\"conns\":1,\
        \"status\":\"warp\"}"
   with
  | Error e ->
      check_bool "unknown status is named" true
        (Astring_like.contains e "warp")
  | Ok _ -> Alcotest.fail "unknown status accepted")

(* ----- telemetry frames ----- *)

(* A full Telemetry frame survives the wire exactly, including the
   raw histogram buckets and the hot-object list. *)
let t_wire_telemetry_roundtrip () =
  let enc = Wire.encode_response (Wire.Telemetry sample_telemetry) in
  let r = Wire.Reader.create () in
  Wire.Reader.feed r enc;
  match Wire.Reader.next r with
  | Ok (Some payload) -> (
      match Wire.decode_response payload with
      | Ok (Wire.Telemetry f) ->
          check_int "seq" sample_telemetry.Wire.seq f.Wire.seq;
          check_int "w_requests" sample_telemetry.Wire.w_requests
            f.Wire.w_requests;
          check_int "latency count" sample_hist.Wire.h_count
            f.Wire.w_latency.Wire.h_count;
          check_bool "buckets survive" true
            (f.Wire.w_latency.Wire.h_buckets = sample_hist.Wire.h_buckets);
          check_bool "hot survives, ordered" true
            (f.Wire.hot = sample_telemetry.Wire.hot);
          check_bool "mono time survives" true
            (abs_float (f.Wire.t_mono -. sample_telemetry.Wire.t_mono) < 1e-9)
      | Ok _ -> Alcotest.fail "decoded to a different response"
      | Error e -> Alcotest.failf "decode: %s" e)
  | _ -> Alcotest.fail "expected one frame"

(* Telemetry frames fed byte-at-a-time through the reader — a slow or
   fragmented subscriber connection — reassemble intact and in order. *)
let t_wire_telemetry_partial_frames () =
  let frames =
    List.init 5 (fun i ->
        Wire.Telemetry { sample_telemetry with Wire.seq = i + 1 })
  in
  let blob = String.concat "" (List.map Wire.encode_response frames) in
  let r = Wire.Reader.create () in
  let got = ref [] in
  String.iter
    (fun c ->
      Wire.Reader.feed r (String.make 1 c);
      let rec drain () =
        match Wire.Reader.next r with
        | Ok (Some p) -> (
            match Wire.decode_response p with
            | Ok (Wire.Telemetry f) ->
                got := f.Wire.seq :: !got;
                drain ()
            | _ -> Alcotest.fail "expected a telemetry frame")
        | Ok None -> ()
        | Error e -> Alcotest.failf "reader error: %s" e
      in
      drain ())
    blob;
  check_bool "all frames, in order" true (List.rev !got = [ 1; 2; 3; 4; 5 ])

(* Two subscribers receiving the same frame stream in different
   fragmentations (one byte-at-a-time, one in uneven chunks) both
   recover the identical, monotonically-sequenced stream. *)
let t_wire_interleaved_subscribers () =
  let frames =
    List.init 4 (fun i ->
        Wire.encode_response
          (Wire.Telemetry { sample_telemetry with Wire.seq = i + 1 }))
  in
  let blob = String.concat "" frames in
  let drain_seqs r =
    let acc = ref [] in
    let rec go () =
      match Wire.Reader.next r with
      | Ok (Some p) -> (
          match Wire.decode_response p with
          | Ok (Wire.Telemetry f) ->
              acc := f.Wire.seq :: !acc;
              go ()
          | _ -> Alcotest.fail "expected a telemetry frame")
      | Ok None -> ()
      | Error e -> Alcotest.failf "reader error: %s" e
    in
    go ();
    List.rev !acc
  in
  let r1 = Wire.Reader.create () and r2 = Wire.Reader.create () in
  let s1 = ref [] and s2 = ref [] in
  (* interleave: r1 gets single bytes, r2 gets chunks of 7, delivery
     alternating between the two connections *)
  let n = String.length blob in
  let i1 = ref 0 and i2 = ref 0 in
  while !i1 < n || !i2 < n do
    if !i1 < n then begin
      Wire.Reader.feed r1 (String.sub blob !i1 1);
      incr i1;
      s1 := !s1 @ drain_seqs r1
    end;
    if !i2 < n then begin
      let len = min 7 (n - !i2) in
      Wire.Reader.feed r2 (String.sub blob !i2 len);
      i2 := !i2 + len;
      s2 := !s2 @ drain_seqs r2
    end
  done;
  let monotone l = List.sort compare l = l && List.length l = 4 in
  check_bool "subscriber 1 saw the full monotone stream" true (monotone !s1);
  check_bool "subscriber 2 saw the full monotone stream" true (monotone !s2);
  check_bool "identical streams" true (!s1 = !s2)

(* The hub end of the stream: frames cut from a live engine carry
   strictly increasing sequence numbers, window deltas that sum to the
   cumulative totals, and a hot-object ranking fed by the runtime's
   per-object refused-access counters. *)
let t_hub_frames () =
  let metrics = Metrics.create () in
  let hub = Telemetry.Hub.create ~interval_s:1.0 metrics in
  let obs = Obs.create ~metrics () in
  let eng =
    Engine.create ~seed:3 ~obs
      [ (Obj_id.make "x0", Register.make ()); (Obj_id.make "y0", Register.make ()) ]
      Moss_object.factory
  in
  let x = Program.access (Obj_id.make "x0") (Datatype.Write (Value.Int 1)) in
  let y = Program.access (Obj_id.make "y0") Datatype.Read in
  let frames = ref [] in
  let cut () =
    frames :=
      Telemetry.Hub.cut hub
        ~counts:(Telemetry.Hub.counts_of_engine eng)
        ~alarms:0 ~conns:1 ~subscribers:1 ~now:0.0
      :: !frames
  in
  for _ = 1 to 6 do
    (* contending writers of x0: Moss write locks force refusals *)
    ignore (Result.get_ok (Engine.submit eng (Program.seq [ x; x; y ])));
    ignore (Result.get_ok (Engine.submit eng (Program.seq [ x; y ])));
    ignore (Engine.step eng);
    cut ()
  done;
  (match Engine.drain eng with `Quiescent -> () | _ -> Alcotest.fail "drain");
  cut ();
  let frames = List.rev !frames in
  let seqs = List.map (fun f -> f.Wire.seq) frames in
  check_bool "seq strictly increases" true
    (List.for_all2 ( = ) seqs (List.init (List.length seqs) (fun i -> i + 1)));
  let last = List.nth frames (List.length frames - 1) in
  check_int "window submissions sum to cumulative" last.Wire.c_submitted
    (List.fold_left (fun a f -> a + f.Wire.w_submitted) 0 frames);
  check_int "window commits sum to cumulative" last.Wire.c_committed
    (List.fold_left (fun a f -> a + f.Wire.w_committed) 0 frames);
  check_bool "contended object surfaced as hot" true
    (List.exists
       (fun f -> List.mem_assoc "x0" f.Wire.hot)
       frames)

(* ----- engine ----- *)

let rw_objects () = [ (x0, Register.make ()); (y0, Register.make ()) ]

let wr x v = Program.access x (Datatype.Write (Value.Int v))
let rd x = Program.access x Datatype.Read

let quiesce eng =
  match Engine.drain eng with
  | `Quiescent -> ()
  | `Truncated -> Alcotest.fail "engine truncated"
  | `Progress -> Alcotest.fail "drain returned Progress without a burst"

let t_engine_basic () =
  let eng =
    Engine.create ~seed:3 (rw_objects ()) Undo_object.factory
  in
  check_bool "fresh engine quiescent" true (Engine.step eng = `Quiescent);
  let t1 = Result.get_ok (Engine.submit eng (Program.seq [ wr x0 1; rd y0 ])) in
  check_bool "pending before any step" true (Engine.state eng t1 = Engine.Pending);
  quiesce eng;
  (match Engine.state eng t1 with
  | Engine.Committed _ -> ()
  | _ -> Alcotest.fail "t1 should commit");
  (* arrivals while running: submit, step a little, submit again *)
  let t2 = Result.get_ok (Engine.submit eng (Program.seq [ rd x0; wr y0 2 ])) in
  ignore (Engine.step eng);
  let t3 = Result.get_ok (Engine.submit eng (Program.par [ rd x0; rd y0 ])) in
  quiesce eng;
  List.iter
    (fun t ->
      match Engine.state eng t with
      | Engine.Committed _ -> ()
      | _ -> Alcotest.failf "%s should commit" (Txn_id.to_string t))
    [ t2; t3 ];
  check_int "submitted" 3 (Engine.submitted eng);
  check_int "committed" 3 (Engine.committed_top eng);
  check_int "alarms" 0 (Engine.alarms eng);
  let r = Engine.finish eng in
  check_int "finish agrees" 3 r.Runtime.committed_top;
  check_int "forest grew" 3 (List.length (Engine.forest eng))

let t_engine_validation () =
  let eng = Engine.create ~seed:1 ~max_program:10 (rw_objects ()) Undo_object.factory in
  let bad_obj = Program.access (Obj_id.make "nope") Datatype.Read in
  check_bool "undeclared object rejected" true
    (Result.is_error (Engine.submit eng bad_obj));
  let bad_op = Program.access x0 (Datatype.Incr 1) in
  check_bool "foreign operation rejected" true
    (Result.is_error (Engine.submit eng bad_op));
  let huge = Program.par (List.init 11 (fun _ -> rd x0)) in
  check_bool "oversized program rejected" true
    (Result.is_error (Engine.submit eng huge));
  check_int "nothing was attached" 0 (Engine.submitted eng);
  check_bool "still quiescent" true (Engine.step eng = `Quiescent)

(* Orphan cleanup: a client that vanishes mid-transaction must leave no
   live locks behind — later transactions on the same objects commit,
   and the monitor stays silent. *)
let t_orphan_mid_transaction () =
  List.iter
    (fun seed ->
      let eng = Engine.create ~seed (rw_objects ()) Moss_object.factory in
      let victim =
        Result.get_ok
          (Engine.submit eng
             (Program.seq (List.init 8 (fun i -> wr x0 i) @ [ rd y0 ])))
      in
      (* run it partway: a Moss write lock on x is held mid-flight *)
      let rec until_running n =
        if n = 0 then ()
        else
          match Engine.state eng victim with
          | Engine.Running -> ignore (Engine.step eng); ignore (Engine.step eng)
          | _ ->
              ignore (Engine.step eng);
              until_running (n - 1)
      in
      until_running 50;
      (match Engine.kill eng victim with
      | `Aborted | `Doomed -> ()
      | `Already_complete -> ()
      | `Unknown -> Alcotest.fail "victim should be known");
      quiesce eng;
      (match Engine.state eng victim with
      | Engine.Aborted _ | Engine.Committed _ -> ()
      | _ -> Alcotest.fail "victim should be complete after drain");
      (* the locks are gone: a new writer of x commits *)
      let after = Result.get_ok (Engine.submit eng (Program.seq [ wr x0 99; rd x0 ])) in
      quiesce eng;
      (match Engine.state eng after with
      | Engine.Committed _ -> ()
      | _ -> Alcotest.fail "post-orphan transaction should commit");
      check_int "no alarms" 0 (Engine.alarms eng);
      check_int "nothing left doomed" 0 (Engine.doomed_count eng))
    (List.init 8 (fun i -> i + 1))

(* Death between Submit and the first op: the kill lands while the
   transaction is still Pending (REQUEST_CREATE not fired), is deferred
   as doomed, and the sweep retires it without it ever touching data. *)
let t_orphan_before_first_op () =
  List.iter
    (fun seed ->
      let eng = Engine.create ~seed (rw_objects ()) Moss_object.factory in
      let victim = Result.get_ok (Engine.submit eng (Program.seq [ wr x0 1 ])) in
      check_bool "still pending" true (Engine.state eng victim = Engine.Pending);
      (match Engine.kill eng victim with
      | `Doomed | `Aborted -> ()
      | _ -> Alcotest.fail "kill of a pending txn should doom or abort");
      quiesce eng;
      (match Engine.state eng victim with
      | Engine.Aborted _ -> ()
      | Engine.Committed _ -> Alcotest.fail "doomed txn must not commit"
      | _ -> Alcotest.fail "doomed txn should be retired at quiescence");
      check_int "doomed set drained" 0 (Engine.doomed_count eng);
      let after = Result.get_ok (Engine.submit eng (Program.seq [ rd x0 ])) in
      quiesce eng;
      (match Engine.state eng after with
      | Engine.Committed _ -> ()
      | _ -> Alcotest.fail "object should be free after orphan cleanup");
      check_int "no alarms" 0 (Engine.alarms eng))
    (List.init 8 (fun i -> i + 1))

(* ----- admission ----- *)

(* Under a broken backend the gate must veto every cycle-closing commit:
   gated runs never raise a cycle alarm (zero false negatives), and on
   workloads where the ungated engine does alarm, the gate is provably
   load-bearing. *)
let t_admission_no_false_negatives () =
  let conflict_forest () =
    [
      Program.seq [ rd x0; wr y0 1 ];
      Program.seq [ rd y0; wr x0 2 ];
      Program.seq [ wr x0 3; wr y0 3 ];
      Program.seq [ rd x0; rd y0; wr x0 4 ];
    ]
  in
  let run ~admission seed =
    let eng =
      Engine.create ~seed ~admission (rw_objects ()) Broken.no_control
    in
    List.iter
      (fun p -> ignore (Result.get_ok (Engine.submit eng p)))
      (conflict_forest ());
    (match Engine.drain eng with `Truncated -> Alcotest.fail "truncated" | _ -> ());
    let mc = Monitor.counters (Admission.monitor (Engine.admission eng)) in
    (mc.Monitor.cycle_alarms, Engine.vetoed eng)
  in
  let seeds = List.init 40 (fun i -> i + 1) in
  let gate_used = ref 0 and ungated_cycles = ref 0 in
  List.iter
    (fun seed ->
      let cycles, vetoed = run ~admission:true seed in
      check_int (Printf.sprintf "seed %d: gated cycle alarms" seed) 0 cycles;
      if vetoed > 0 then incr gate_used;
      let cycles', _ = run ~admission:false seed in
      if cycles' > 0 then incr ungated_cycles)
    seeds;
  check_bool "gate vetoed something across the sweep" true (!gate_used > 0);
  check_bool "ungated runs do alarm on this workload" true (!ungated_cycles > 0)

let t_admission_veto_witness () =
  (* find a seed where a veto fires and check its explanation names the
     vetoed transaction and parses as a chain of edges *)
  let rec hunt seed =
    if seed > 200 then Alcotest.fail "no veto found in 200 seeds"
    else begin
      let eng = Engine.create ~seed (rw_objects ()) Broken.no_control in
      let ts =
        List.map
          (fun p -> Result.get_ok (Engine.submit eng p))
          [
            Program.seq [ rd x0; wr y0 1 ];
            Program.seq [ rd y0; wr x0 2 ];
          ]
      in
      ignore (Engine.drain eng);
      match
        List.find_map
          (fun t ->
            match Engine.state eng t with
            | Engine.Aborted (Some veto) -> Some (t, veto)
            | _ -> None)
          ts
      with
      | Some (t, veto) ->
          check_bool "witness mentions an edge" true
            (String.length veto.Admission.witness > 0);
          check_bool "cycle is non-trivial" true
            (List.length veto.Admission.cycle >= 1);
          check_bool "veto is filed under the top-level ancestor" true
            (Txn_id.equal t
               (match Txn_id.path veto.Admission.node with
               | i :: _ -> Txn_id.child Txn_id.root i
               | [] -> veto.Admission.node))
      | None -> hunt (seed + 1)
    end
  in
  hunt 1

(* ----- served-traffic sweep (the acceptance criterion) ----- *)

(* 200 served runs across the five verified backends, with disconnect
   injection: every oracle passes and no alarm fires.  Determinism is
   asserted on a sample. *)
let t_serve_sweep_correct () =
  let runs_per_backend = 40 in
  List.iter
    (fun backend ->
      let master = Rng.create 20260806 in
      for i = 1 to runs_per_backend do
        let rng = Rng.split master in
        let sc = Check.gen_scenario backend rng in
        let rep =
          Check.serve ~max_steps:400_000 ~drop_prob:0.1 ~seed:(i * 31)
            backend sc
        in
        (match rep.Check.s_failure with
        | None -> ()
        | Some f ->
            Alcotest.failf "%s run %d: %a" (Check.backend_name backend) i
              Check.pp_failure f);
        if not rep.Check.s_truncated then begin
          check_int
            (Printf.sprintf "%s run %d: cycle alarms" (Check.backend_name backend) i)
            0 rep.Check.s_cycle_alarms;
          (* mvts legitimately trips the completion-order monitor's
             return-value replay (it serializes by pseudotime); every
             other backend must keep the monitor fully silent *)
          if backend <> Check.Mvts then
            check_int
              (Printf.sprintf "%s run %d: alarms" (Check.backend_name backend) i)
              0 rep.Check.s_alarms;
          check_int
            (Printf.sprintf "%s run %d: all submitted" (Check.backend_name backend) i)
            (List.length sc.Check.forest)
            rep.Check.s_submitted
        end
      done)
    Check.correct_backends

let t_serve_deterministic () =
  let sc = Check.gen_scenario Check.Undo (Rng.create 99) in
  let r1 = Check.serve ~drop_prob:0.2 ~seed:5 Check.Undo sc in
  let r2 = Check.serve ~drop_prob:0.2 ~seed:5 Check.Undo sc in
  check_int "same trace length" (Trace.length r1.Check.s_trace)
    (Trace.length r2.Check.s_trace);
  check_bool "identical traces" true
    (List.for_all2 Action.equal
       (Trace.to_list r1.Check.s_trace)
       (Trace.to_list r2.Check.s_trace));
  check_int "same commits" r1.Check.s_committed r2.Check.s_committed;
  check_int "same drops" r1.Check.s_dropped r2.Check.s_dropped;
  check_int "same orphans" r1.Check.s_orphans r2.Check.s_orphans

(* Gated serving of a broken backend: the offline checker must never
   report an SG cycle (the gate pre-empts every one), and the online
   monitor must never raise a cycle alarm. *)
let t_serve_gated_broken () =
  let master = Rng.create 7 in
  let vetoes = ref 0 in
  for i = 1 to 25 do
    let rng = Rng.split master in
    let sc = Check.gen_scenario Check.No_control rng in
    let rep =
      Check.serve ~max_steps:400_000 ~seed:(i * 17) ~admission:true
        Check.No_control sc
    in
    check_int (Printf.sprintf "run %d: cycle alarms" i) 0 rep.Check.s_cycle_alarms;
    (match rep.Check.s_failure with
    | Some (Check.Sg_cycle _) ->
        Alcotest.failf "run %d: offline cycle despite gating" i
    | _ -> ());
    vetoes := !vetoes + rep.Check.s_vetoed
  done;
  check_bool "the gate fired somewhere in the sweep" true (!vetoes > 0)

(* ----- bundle loader ----- *)

let t_load_program () =
  let good = Filename.temp_file "ntnet_good" ".nt" in
  let oc = open_out good in
  output_string oc
    "; a comment\n(objects (x (register 0)))\n(txn (seq (access x read)))\n";
  close_out oc;
  (match Bundle.load_program good with
  | Ok (forest, _) -> check_int "one txn" 1 (List.length forest)
  | Error e -> Alcotest.failf "good file rejected: %s" e);
  let bad = Filename.temp_file "ntnet_bad" ".nt" in
  let oc = open_out bad in
  output_string oc "(objects (x (register 0)))\n(txn (seq (access x read))\n";
  close_out oc;
  (match Bundle.load_program bad with
  | Ok _ -> Alcotest.fail "bad file accepted"
  | Error e ->
      check_bool "error names the path" true
        (Astring_like.contains e (Filename.basename bad));
      check_bool "error carries a line number" true
        (Astring_like.contains e "line"));
  Sys.remove good;
  Sys.remove bad

let suite =
  ( "net",
    [
      Alcotest.test_case "wire roundtrip" `Quick t_wire_roundtrip;
      Alcotest.test_case "wire reassembly" `Quick t_wire_reassembly;
      Alcotest.test_case "wire errors" `Quick t_wire_errors;
      Alcotest.test_case "wire eof diagnosis" `Quick t_wire_eof;
      Alcotest.test_case "wire status back-compat" `Quick t_wire_status_compat;
      Alcotest.test_case "telemetry roundtrip" `Quick t_wire_telemetry_roundtrip;
      Alcotest.test_case "telemetry partial frames" `Quick
        t_wire_telemetry_partial_frames;
      Alcotest.test_case "interleaved subscribers" `Quick
        t_wire_interleaved_subscribers;
      Alcotest.test_case "telemetry hub frames" `Quick t_hub_frames;
      Alcotest.test_case "engine basic" `Quick t_engine_basic;
      Alcotest.test_case "engine validation" `Quick t_engine_validation;
      Alcotest.test_case "orphan mid-transaction" `Quick t_orphan_mid_transaction;
      Alcotest.test_case "orphan before first op" `Quick t_orphan_before_first_op;
      Alcotest.test_case "admission: no false negatives" `Quick
        t_admission_no_false_negatives;
      Alcotest.test_case "admission: veto witness" `Quick t_admission_veto_witness;
      Alcotest.test_case "serve sweep (correct backends)" `Slow
        t_serve_sweep_correct;
      Alcotest.test_case "serve determinism" `Quick t_serve_deterministic;
      Alcotest.test_case "serve gated broken backend" `Slow t_serve_gated_broken;
      Alcotest.test_case "bundle load_program" `Quick t_load_program;
    ] )
