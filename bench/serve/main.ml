(* The serving benchmark.

   Drives SmallBank traffic through the public calls ntserved makes for
   a submission, in the same order: Wire.Reader.feed/next and
   Wire.decode_request, Program_io.parse_program_text, Engine.submit
   (Shard_service.submit when sharded), Engine.drain ~burst:256, the
   write-ahead log (log-before-ack, fsync per record) and
   Wire.encode_response.  Everything is timed from outside, around
   those calls; nothing in the library is instrumented.

   Load is a closed loop of 16 logical clients in one thread: a client
   submits, polls Status until its decoded State is final, then submits
   its next program.  Each repetition serves a fixed number of
   submissions, generated from the seed and the rep's index (so rep k
   builds the same history on every commit), in a fresh child process.
   A run repeats reps until --seconds have passed, scales each rep's
   times by a machine-speed calibration taken around it, and reports
   medians and pooled percentiles.  See README.md.

     main.exe                                 all workloads, full report
     main.exe --workload sb-hot --trace 0     one workload, JSON summary
     main.exe --compare PARENT.json CHANGE.json *)

open Core
module Json = Obs_json

(* Obs_json prints floats to six significant digits; everything this
   benchmark writes keeps the shortest rendering that reads back
   exactly. *)
let rec json_out b = function
  | Json.Float f when Float.is_finite f && not (Float.is_integer f) ->
      let s = Printf.sprintf "%.15g" f in
      Buffer.add_string b
        (if float_of_string s = f then s else Printf.sprintf "%.17g" f)
  | Json.Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          json_out b x)
        l;
      Buffer.add_char b ']'
  | Json.Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b ("\"" ^ Json.escape k ^ "\":");
          json_out b x)
        l;
      Buffer.add_char b '}'
  | j -> Json.to_buffer b j

let json_string j =
  let b = Buffer.create 4096 in
  json_out b j;
  Buffer.contents b

(* Seconds on the monotonic clock, at nanosecond resolution: set-up
   and per-call layer timings are a few microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let clients = 16
let engine_seed = 11
let burst = 256
let max_steps = 100_000_000 (* ntserved's default *)

(* ----- workloads ----- *)

type spec = {
  name : string;
  backend : Check.backend;
  accounts : int;
  theta : float;
  mix : Gen.smallbank_mix;
  submissions : int;
  wal : bool;
  shards : int;  (* 1 = the single engine *)
}

let read_mostly =
  { Gen.m_balance = 8; m_deposit = 1; m_write_check = 1; m_amalgamate = 0;
    m_payment = 0 }

(* Why each workload, and its size: README.md and BENCHMARK.json. *)
let specs =
  [
    {
      name = "sb-hot";
      backend = Check.Moss;
      accounts = 8;
      theta = 0.9;
      mix = Gen.smallbank_default;
      submissions = 400;
      wal = false;
      shards = 1;
    };
    {
      name = "sb-long";
      backend = Check.Undo;
      accounts = 8;
      theta = 0.0;
      mix = Gen.smallbank_default;
      submissions = 500;
      wal = true;
      shards = 1;
    };
    {
      name = "sb-wide";
      backend = Check.Undo;
      accounts = 64;
      theta = 0.0;
      mix = read_mostly;
      submissions = 150;
      wal = false;
      shards = 1;
    };
    {
      name = "sb-sharded";
      backend = Check.Undo;
      accounts = 16;
      theta = 0.0;
      mix = Gen.smallbank_default;
      submissions = 1000;
      wal = false;
      shards = 2;
    };
  ]

let spec_of_name n = List.find_opt (fun s -> s.name = n) specs

let size spec ~quick =
  if quick then max clients (spec.submissions / 10) else spec.submissions

let rec rename f = function
  | Program.Access (x, op) -> Program.Access (f x, op)
  | Program.Node (c, ps) -> Program.Node (c, List.map (rename f) ps)

(* SmallBank programs whose accounts all live on one shard: each draws
   a shard, then a Gen.smallbank program over that shard's accounts.
   Programs that cross shards are left out because the spine admits
   cross-shard write-skew cycles at a few hundred submissions (see
   README.md); the merged trace would fail the correctness gate. *)
let shard_local spec rng ~n =
  let objects =
    List.init spec.accounts (fun i -> (Obj_id.indexed "acct" i, Register.make ()))
  in
  let part = Partition.create ~shards:spec.shards objects in
  let groups =
    Array.init spec.shards (fun s ->
        Array.of_list
          (List.filter_map
             (fun (x, _) -> if Partition.shard_of part x = s then Some x else None)
             objects))
  in
  let one () =
    let g = groups.(Rng.int rng spec.shards) in
    let profile =
      { Gen.smallbank_profile with Gen.n_top = 1; n_objects = Array.length g;
        theta = spec.theta }
    in
    let progs, local = Gen.smallbank ~mix:spec.mix rng profile in
    let index x =
      let rec go i = function
        | (y, _) :: rest -> if Obj_id.equal x y then i else go (i + 1) rest
        | [] -> invalid_arg "shard_local"
      in
      go 0 local
    in
    rename (fun x -> g.(index x)) (List.hd progs)
  in
  (List.init n (fun _ -> one ()), objects)

(* The programs of rep [rep] as client-side text, generated from the
   workload seed before anything is timed.  Each rep of a run serves
   its own instance, so a run's median spans several inputs. *)
let generate spec ~seed ~rep ~quick =
  let rng = Rng.create ((seed * 1000) + rep) in
  let n = size spec ~quick in
  let forest, objects =
    if spec.shards > 1 then shard_local spec rng ~n
    else
      Gen.smallbank ~mix:spec.mix rng
        { Gen.smallbank_profile with Gen.n_top = n; n_objects = spec.accounts;
          theta = spec.theta }
  in
  (Array.of_list (List.map Program_io.program_to_string forest), objects)

(* ----- metrics ----- *)

type better = Lower | Higher

type metric = { m_name : string; m_unit : string; m_better : better; m_bound : float }

let e2e_metrics =
  [
    { m_name = "tput_cps"; m_unit = "txn/s"; m_better = Higher; m_bound = 0.25 };
    { m_name = "lat_p50_ms"; m_unit = "ms"; m_better = Lower; m_bound = 0.25 };
    { m_name = "lat_p95_ms"; m_unit = "ms"; m_better = Lower; m_bound = 0.25 };
    { m_name = "commit_pct"; m_unit = "%"; m_better = Higher; m_bound = 0.02 };
    { m_name = "peak_rss_mb"; m_unit = "MB"; m_better = Lower; m_bound = 0.10 };
    { m_name = "setup_s"; m_unit = "s"; m_better = Lower; m_bound = 0.25 };
  ]

(* Per-layer metrics; README.md maps each to the end-to-end metric and
   workload it should move.  A metric whose layer a workload does not
   cross reads 0 there. *)
let layer_metrics =
  [
    ("wire.decode_us", "us", Lower);
    ("wire.encode_us", "us", Lower);
    ("wire.bytes_per_txn", "bytes", Lower);
    ("program_io.parse_us", "us", Lower);
    ("engine.submit_us", "us", Lower);
    ("engine.step_us", "us", Lower);
    ("engine.steps_per_txn", "count", Lower);
    ("engine.step_growth", "ratio", Lower);
    ("engine.queue_pct", "%", Lower);
    ("runtime.self_us", "us", Lower);
    ("runtime.productive_pct", "%", Higher);
    ("runtime.actions_per_txn", "count", Lower);
    ("gobj.respond_us", "us", Lower);
    ("gobj.respond_calls_per_txn", "count", Lower);
    ("gobj.share_pct", "%", Lower);
    ("gobj.refused_pct", "%", Lower);
    ("gobj.inform_calls_per_txn", "count", Lower);
    ("gobj.inform_us", "us", Lower);
    ("admission.gate_us", "us", Lower);
    ("admission.gate_calls_per_txn", "count", Lower);
    ("admission.vetoed", "count", Lower);
    ("monitor.feed_us", "us", Lower);
    ("monitor.share_pct", "%", Lower);
    ("monitor.edges_per_txn", "count", Lower);
    ("graph.reorders", "count", Lower);
    ("wal.append_us", "us", Lower);
    ("wal.sync_us", "us", Lower);
    ("wal.syncs_per_txn", "count", Lower);
    ("wal.bytes_per_txn", "bytes", Lower);
    ("router.submit_us", "us", Lower);
    ("router.cross_pct", "%", Lower);
    ("spine.checks_per_txn", "count", Lower);
    ("spine.vetoes", "count", Lower);
    ("spine.nodes", "count", Lower);
    ("service.wait_pct", "%", Lower);
    ("shard.step_imbalance", "ratio", Lower);
    ("gc.alloc_kb_per_txn", "kB", Lower);
    ("harness.client_us", "us", Lower);
    ("trace.layer_sum_pct", "%", Higher);
    ("trace.overhead_pct", "%", Lower);
  ]

(* ----- small statistics ----- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted array. *)
let percentile s p =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median a = percentile (sorted a) 0.5

(* Quartiles as Python's [statistics.quantiles(data, n=4)] computes
   them (the default exclusive method), so spreads read the same here
   and in any external check. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let fsum l = List.fold_left ( +. ) 0. l
let per a b = if b = 0 then 0. else a /. float_of_int b
let pct a b = if b = 0. then 0. else 100. *. a /. b

(* ----- failure ----- *)

exception Check_failed of string * string

let fail check msg = raise (Check_failed (check, msg))

(* ----- spans and layer counters (traced reps only) ----- *)

type span = { s_name : string; s_tid : int; s_req : string; s_t0 : float; s_t1 : float }

type tracer = {
  on : bool;
  mutable spans : span list;  (* newest first *)
  totals : (string, float ref * int ref) Hashtbl.t;  (* name -> time, calls *)
}

let clock tr = if tr.on then now () else 0.

(* Close the span opened at [t0]; returns its end, the next span's
   start. *)
let span tr name ~tid ~req t0 =
  if not tr.on then 0.
  else begin
    let t1 = now () in
    tr.spans <-
      { s_name = name; s_tid = tid; s_req = req; s_t0 = t0; s_t1 = t1 } :: tr.spans;
    (match Hashtbl.find_opt tr.totals name with
    | Some (s, n) ->
        s := !s +. (t1 -. t0);
        incr n
    | None -> Hashtbl.replace tr.totals name (ref (t1 -. t0), ref 1));
    t1
  end

let total tr name =
  match Hashtbl.find_opt tr.totals name with
  | Some (s, n) -> (!s, !n)
  | None -> (0., 0)

(* Work measured inside the engine's calls, through what it calls
   back: the WAL writer and sink, the stage clock. *)
type acc = {
  mutable steps : float list;  (* per Engine.step duration, newest first *)
  mutable gate_s : float;
  mutable gate_n : int;
  mutable queued_s : float;  (* submit -> scheduler start *)
  mutable resident_s : float;  (* submit -> completion *)
  mutable append_s : float;  (* WAL writer calls, fsync excluded *)
  mutable sync_s : float;
  mutable sync_n : int;
  mutable io_s : float;  (* log file open, write and fsync calls *)
}

let new_acc () =
  { steps = []; gate_s = 0.; gate_n = 0; queued_s = 0.; resident_s = 0.;
    append_s = 0.; sync_s = 0.; sync_n = 0; io_s = 0. }

(* One per generic object: an object is only ever stepped by one
   thread (its shard's domain), so these need no lock. *)
type gacc = {
  mutable respond_s : float;
  mutable respond_n : int;
  mutable refused : int;
  mutable inform_s : float;
  mutable inform_n : int;
  mutable create_s : float;
}

let timed_factory (factory : Gobj.factory) gaccs : Gobj.factory =
 fun schema x ->
  let o = factory schema x in
  let a =
    { respond_s = 0.; respond_n = 0; refused = 0; inform_s = 0.; inform_n = 0;
      create_s = 0. }
  in
  gaccs := a :: !gaccs;
  let inform f t =
    let t0 = now () in
    f t;
    a.inform_s <- a.inform_s +. (now () -. t0);
    a.inform_n <- a.inform_n + 1
  in
  {
    o with
    Gobj.create =
      (fun t ->
        let t0 = now () in
        o.Gobj.create t;
        a.create_s <- a.create_s +. (now () -. t0));
    try_respond =
      (fun t ->
        let t0 = now () in
        let r = o.Gobj.try_respond t in
        a.respond_s <- a.respond_s +. (now () -. t0);
        a.respond_n <- a.respond_n + 1;
        if r = None then a.refused <- a.refused + 1;
        r);
    inform_commit = inform o.Gobj.inform_commit;
    inform_abort = inform o.Gobj.inform_abort;
  }

(* ----- the write-ahead log (sb-long), as ntserved drives it ----- *)

type wal = {
  path : string;
  fd : Unix.file_descr;
  w : Wal.Writer.t;
  closure : Wal.Closure.t;
  mutable last_calls : int;
}

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Every file-system call on the log is timed, traced or not: set-up
   time leaves them out (see [run_rep]). *)
let io acc f =
  let t0 = now () in
  let r = f () in
  acc.io_s <- acc.io_s +. (now () -. t0);
  r

let open_wal path ~meta acc =
  let fd =
    io acc (fun () ->
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  let sink =
    {
      Wal.write = (fun s -> io acc (fun () -> write_all fd s 0));
      sync =
        (fun () ->
          let t0 = now () in
          io acc (fun () -> Unix.fsync fd);
          acc.sync_s <- acc.sync_s +. (now () -. t0);
          acc.sync_n <- acc.sync_n + 1);
    }
  in
  let w =
    Wal.Writer.create ~fsync_batch:1 ~fsync_interval_s:0. ~clock:now ~fresh:true
      ~base_seq:0 ~on_sync:ignore sink
  in
  Wal.Writer.append w meta;
  { path; fd; w; closure = Wal.Closure.create (); last_calls = 0 }

(* Time a writer call, excluding the fsyncs it triggers. *)
let wal_call ~traced acc f =
  if not traced then f ()
  else begin
    let s0 = acc.sync_s and t0 = now () in
    f ();
    acc.append_s <- acc.append_s +. (now () -. t0) -. (acc.sync_s -. s0)
  end

(* ntserved's cut: one Steps record covering the step calls since the
   last cut, then the outcomes those steps produced. *)
let wal_cut ~traced acc eng ws =
  let calls = Engine.step_calls eng in
  let n = calls - ws.last_calls in
  ws.last_calls <- calls;
  Wal.Closure.push ws.closure (Wal.Steps n);
  wal_call ~traced acc (fun () -> Wal.Writer.log_steps ws.w n)

let wal_outcome eng txn outcome : Wal.outcome =
  match (outcome, Engine.state eng txn) with
  | `Committed, Engine.Committed v -> Wal.Committed (Value.to_string v)
  | `Aborted, Engine.Aborted veto ->
      Wal.Aborted (Option.map (fun v -> v.Admission.witness) veto)
  | `Committed, _ -> Wal.Committed "?"
  | `Aborted, _ -> Wal.Aborted None

(* ----- servers ----- *)

type server =
  | Single of { eng : Engine.t; wal : wal option }
  | Sharded of {
      svc : Shard_service.t;
      m : Mutex.t;
      cv : Condition.t;
      completions : int ref;  (* bumped by worker notify, under [m] *)
    }

(* Next to the executable, inside the build tree: the benchmark writes
   nowhere else except the trace and results files it is asked for. *)
let wal_path =
  lazy
    (Filename.concat
       (Filename.dirname Sys.executable_name)
       (Printf.sprintf "serve-%d.wal" (Unix.getpid ())))

let meta_of spec objects =
  Wal.Meta
    {
      seed = engine_seed;
      backend = Check.backend_name spec.backend;
      policy = "random-step";
      inform = "eager";
      abort_prob = 0.0;
      objects =
        List.map (fun (x, dt) -> (Obj_id.name x, Program_io.dtype_decl dt)) objects;
    }

(* Everything before the first submission: the engine (or the shard
   service and its worker domains) and, on sb-long, the log file with
   its header and Meta record synced. *)
let start_server spec objects ~traced acc gaccs =
  let factory = Check.factory_of spec.backend in
  let factory = if traced then timed_factory factory gaccs else factory in
  if spec.shards > 1 then begin
    let m = Mutex.create () and cv = Condition.create () and completions = ref 0 in
    let notify () =
      Mutex.lock m;
      incr completions;
      Condition.signal cv;
      Mutex.unlock m
    in
    let svc =
      Shard_service.start ~policy:Runtime.Random_step ~max_steps ~notify
        ~shards:spec.shards ~seed:engine_seed objects factory
    in
    Sharded { svc; m; cv; completions }
  end
  else begin
    let eng_ref = ref None and wal_ref = ref None in
    let on_top_complete txn outcome =
      match !eng_ref with
      | None -> ()
      | Some eng ->
          (match !wal_ref with
          | Some ws ->
              wal_call ~traced acc (fun () ->
                  Wal.Writer.note_outcome ws.w ~txn (wal_outcome eng txn outcome))
          | None -> ());
          if traced then
            match Engine.stage_times eng txn with
            | Some st ->
                acc.gate_s <- acc.gate_s +. st.Engine.st_gate;
                acc.gate_n <- acc.gate_n + st.Engine.st_gates;
                acc.queued_s <-
                  acc.queued_s +. (st.Engine.st_start -. st.Engine.st_submit);
                acc.resident_s <-
                  acc.resident_s +. (st.Engine.st_complete -. st.Engine.st_submit)
            | None -> ()
    in
    let eng =
      Engine.create ~policy:Runtime.Random_step ~max_steps
        ~obs:(Obs.create ~metrics:(Metrics.create ()) ())
        ~on_top_complete ~clock:now ~seed:engine_seed objects factory
    in
    eng_ref := Some eng;
    let wal =
      if spec.wal then
        Some (open_wal (Lazy.force wal_path) ~meta:(meta_of spec objects) acc)
      else None
    in
    wal_ref := wal;
    Single { eng; wal }
  end

let stop_server = function
  | Single { wal = Some ws; _ } ->
      Unix.close ws.fd;
      Sys.remove ws.path
  | Single { wal = None; _ } -> ()
  | Sharded { svc; _ } -> Shard_service.stop svc

(* ----- the closed loop ----- *)

type phase =
  | Submitting of { t0 : float; rid : string }
  | Polling of { txn : Txn_id.t; t0 : float; rid : string }
  | Done

type client = {
  cid : int;
  to_server : Buffer.t;
  server_reader : Wire.Reader.t;
  to_client : Buffer.t;
  client_reader : Wire.Reader.t;
  mutable phase : phase;
  mutable reqno : int;
}

type loop = {
  srv : server;
  tr : tracer;
  acc : acc;
  texts : string array;
  mutable next : int;
  reqs : (Txn_id.t, string option) Hashtbl.t;
  mutable bytes : int;
  mutable committed : int;
  mutable aborted : int;
  mutable lat : float list;  (* seconds, issue to final State decoded *)
  mutable finals : (Txn_id.t * Wire.txn_state) list;
  mutable progressed : bool;
}

let wire_state_single eng t : Wire.txn_state =
  match Engine.state eng t with
  | Engine.Unknown | Engine.Pending -> Wire.Pending
  | Engine.Running -> Wire.Running
  | Engine.Committed v -> Wire.Committed (Value.to_string v)
  | Engine.Aborted None -> Wire.Aborted None
  | Engine.Aborted (Some veto) -> Wire.Aborted (Some veto.Admission.witness)

let wire_state_sharded svc t : Wire.txn_state =
  match Txn_id.path t with
  | [ g ] -> (
      match Shard_service.result svc g with
      | Shard_router.Pending -> Wire.Running
      | Shard_router.Committed v -> Wire.Committed (Value.to_string v)
      | Shard_router.Aborted None -> Wire.Aborted None
      | Shard_router.Aborted (Some veto) -> Wire.Aborted (Some veto.Admission.witness))
  | _ -> Wire.Pending

let req_str = function Some r -> r | None -> ""

let respond lp c ~req resp =
  let t0 = clock lp.tr in
  let s = Wire.encode_response resp in
  Buffer.add_string c.to_client s;
  lp.bytes <- lp.bytes + String.length s;
  ignore (span lp.tr "encode" ~tid:c.cid ~req:(req_str req) t0)

let handle_submit lp c ~program ~req =
  let rs = req_str req in
  let t0 = clock lp.tr in
  match Program_io.parse_program_text program with
  | Error why -> fail "rejected" why
  | Ok prog -> (
      let t1 = span lp.tr "parse" ~tid:c.cid ~req:rs t0 in
      let submitted =
        match lp.srv with
        | Single { eng; _ } -> Engine.submit eng prog
        | Sharded { svc; _ } ->
            Result.map (fun g -> Txn_id.of_path [ g ]) (Shard_service.submit svc prog)
      in
      match submitted with
      | Error why -> fail "rejected" why
      | Ok txn ->
          let t2 = span lp.tr "submit" ~tid:c.cid ~req:rs t1 in
          (match lp.srv with
          | Single { eng; wal = Some ws } ->
              (* log before the Accepted answer, as ntserved does *)
              wal_cut ~traced:lp.tr.on lp.acc eng ws;
              let r =
                Wal.Submit
                  { req; client = Printf.sprintf "c%d" c.cid;
                    program = Program_io.program_to_string prog }
              in
              Wal.Closure.push ws.closure r;
              wal_call ~traced:lp.tr.on lp.acc (fun () -> Wal.Writer.append ws.w r);
              ignore (span lp.tr "wal" ~tid:c.cid ~req:rs t2)
          | _ -> ());
          Hashtbl.replace lp.reqs txn req;
          respond lp c ~req (Wire.Accepted { txn; req }))

let handle_status lp c t =
  let req = Option.join (Hashtbl.find_opt lp.reqs t) in
  let t0 = clock lp.tr in
  let state =
    match lp.srv with
    | Single { eng; _ } -> wire_state_single eng t
    | Sharded { svc; _ } -> wire_state_sharded svc t
  in
  ignore (span lp.tr "status" ~tid:c.cid ~req:(req_str req) t0);
  respond lp c ~req (Wire.State { txn = t; state; req })

(* The server side of one connection: the bytes the client wrote are
   fed to the frame reader, and every complete frame is decoded and
   handled. *)
let server_read lp c =
  if Buffer.length c.to_server > 0 then begin
    let t0 = clock lp.tr in
    let bytes = Buffer.contents c.to_server in
    Buffer.clear c.to_server;
    lp.bytes <- lp.bytes + String.length bytes;
    Wire.Reader.feed c.server_reader bytes;
    ignore (span lp.tr "read" ~tid:c.cid ~req:"" t0);
    let rec pump () =
      let t0 = clock lp.tr in
      match Wire.Reader.next c.server_reader with
      | Error e -> fail "wire" e
      | Ok None -> ()
      | Ok (Some payload) -> (
          match Wire.decode_request payload with
          | Error e -> fail "wire" e
          | Ok (Wire.Submit { program; req }) ->
              ignore (span lp.tr "decode" ~tid:c.cid ~req:(req_str req) t0);
              handle_submit lp c ~program ~req;
              pump ()
          | Ok (Wire.Status t) ->
              ignore (span lp.tr "decode" ~tid:c.cid ~req:"" t0);
              handle_status lp c t;
              pump ()
          | Ok r -> fail "wire" (Format.asprintf "unexpected %a" Wire.pp_request r))
    in
    pump ()
  end

let send c req = Buffer.add_string c.to_server (Wire.encode_request req)

let issue lp c =
  if lp.next >= Array.length lp.texts then c.phase <- Done
  else begin
    let program = lp.texts.(lp.next) in
    lp.next <- lp.next + 1;
    c.reqno <- c.reqno + 1;
    let rid = Printf.sprintf "c%d-%d" c.cid c.reqno in
    let t0 = now () in
    send c (Wire.Submit { program; req = Some rid });
    c.phase <- Submitting { t0; rid }
  end

let on_response lp c resp =
  match (c.phase, resp) with
  | Submitting { t0; rid }, Wire.Accepted { txn; req } ->
      if req <> Some rid then fail "echo" ("Accepted for " ^ rid);
      lp.progressed <- true;
      c.phase <- Polling { txn; t0; rid };
      send c (Wire.Status txn)
  | Polling { txn; t0; rid }, Wire.State { txn = t; state; req }
    when Txn_id.equal txn t -> (
      if req <> Some rid then fail "echo" ("State for " ^ rid);
      match state with
      | Wire.Pending | Wire.Running -> send c (Wire.Status txn)
      | Wire.Committed _ | Wire.Aborted _ ->
          lp.lat <- (now () -. t0) :: lp.lat;
          (match state with
          | Wire.Committed _ -> lp.committed <- lp.committed + 1
          | _ -> lp.aborted <- lp.aborted + 1);
          lp.finals <- (txn, state) :: lp.finals;
          lp.progressed <- true;
          issue lp c)
  | _, Wire.Rejected { why; _ } -> fail "rejected" why
  | _, r -> fail "protocol" (Format.asprintf "unexpected %a" Wire.pp_response r)

(* The client side: decode whatever the server answered. *)
let client_read lp c =
  if Buffer.length c.to_client > 0 then begin
    let t0 = clock lp.tr in
    Wire.Reader.feed c.client_reader (Buffer.contents c.to_client);
    Buffer.clear c.to_client;
    let rec go () =
      match Wire.Reader.next c.client_reader with
      | Error e -> fail "wire" e
      | Ok None -> ()
      | Ok (Some p) -> (
          match Wire.decode_response p with
          | Error e -> fail "wire" e
          | Ok r ->
              on_response lp c r;
              go ())
    in
    go ();
    ignore (span lp.tr "client" ~tid:c.cid ~req:"" t0)
  end

(* Engine.drain, one step at a time so each step is timed. *)
let traced_drain acc eng =
  let rec go k =
    if k <= 0 then `Progress
    else begin
      let t0 = now () in
      let r = Engine.step eng in
      acc.steps <- (now () -. t0) :: acc.steps;
      match r with `Progress -> go (k - 1) | (`Quiescent | `Truncated) as r -> r
    end
  in
  go burst

let execute lp eng =
  let t0 = clock lp.tr in
  let r = if lp.tr.on then traced_drain lp.acc eng else Engine.drain ~burst eng in
  if r = `Truncated then fail "truncated" "engine step budget exhausted";
  let t1 = span lp.tr "execute" ~tid:0 ~req:"" t0 in
  match lp.srv with
  | Single { wal = Some ws; _ } ->
      wal_cut ~traced:lp.tr.on lp.acc eng ws;
      wal_call ~traced:lp.tr.on lp.acc (fun () -> Wal.Writer.tick ws.w);
      ignore (span lp.tr "wal" ~tid:0 ~req:"" t1)
  | _ -> ()

(* Sharded: the engines run on worker domains; when no client moved
   this turn, block until a worker reports a completion. *)
let wait_workers lp ~m ~cv ~completions ~seen =
  let t0 = clock lp.tr in
  Mutex.lock m;
  while !completions = seen do
    Condition.wait cv m
  done;
  Mutex.unlock m;
  ignore (span lp.tr "wait" ~tid:0 ~req:"" t0)

let run_loop lp cls =
  Array.iter (issue lp) cls;
  let finished () = Array.for_all (fun c -> c.phase = Done) cls in
  while not (finished ()) do
    lp.progressed <- false;
    let seen =
      match lp.srv with
      | Sharded { m; completions; _ } ->
          Mutex.lock m;
          let s = !completions in
          Mutex.unlock m;
          s
      | Single _ -> 0
    in
    Array.iter (server_read lp) cls;
    (match lp.srv with Single { eng; _ } -> execute lp eng | Sharded _ -> ());
    Array.iter (client_read lp) cls;
    match lp.srv with
    | Sharded { m; cv; completions; _ } when (not lp.progressed) && not (finished ()) ->
        wait_workers lp ~m ~cv ~completions ~seen
    | _ -> ()
  done

(* ----- one repetition (a child process) ----- *)

(* VmHWM: this process's peak resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> fail "rss" "no VmHWM in /proc/self/status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let setup_reps = 5

type rep = {
  wall : float;
  setup : float;
  rss_mb : float;
  submitted : int;
  committed : int;
  lat : float array;  (* seconds *)
  layers : (string * float) list;
}

let check cond name msg = if not cond then fail name msg

(* Checks outside the timed window.  Every rep: every submission
   completed, every decoded State agrees with the server, no monitor
   alarm.  With [full], the monitor replay (single engine: its counters
   must equal the engine's; sharded: the merged trace must raise no
   alarm, which the per-shard monitors cannot see) and the WAL audit;
   with [judge], also the offline Checker.  Returns the replay's
   (seconds, feeds) and the live graph's reorders. *)
let verify (lp : loop) ~n ~full ~judge =
  check (lp.committed + lp.aborted = n) "completion"
    (Printf.sprintf "%d committed + %d aborted of %d submitted" lp.committed
       lp.aborted n);
  match lp.srv with
  | Single { eng; wal } ->
      check
        (Engine.submitted eng = n
        && Engine.committed_top eng = lp.committed
        && Engine.aborted_top eng = lp.aborted)
        "completion" "engine counts disagree with the clients'";
      List.iter
        (fun (t, st) ->
          if wire_state_single eng t <> st then
            fail "state"
              ("decoded State disagrees with Engine.state for " ^ Txn_id.to_string t))
        lp.finals;
      check
        (Engine.alarms eng = 0 && Engine.cycle_alarms eng = 0)
        "alarms"
        (Printf.sprintf "%d monitor alarms (%d cycle)" (Engine.alarms eng)
           (Engine.cycle_alarms eng));
      (match wal with
      | Some ws ->
          wal_cut ~traced:false lp.acc eng ws;
          Wal.Writer.flush ws.w;
          Unix.close ws.fd;
          if full then begin
            let ic = open_in_bin ws.path in
            let image = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let sc =
              match Wal.scan ~magic:Wal.wal_magic image with
              | Ok sc -> sc
              | Error e -> fail "wal" e
            in
            check (sc.Wal.sc_tail = Wal.Clean) "wal" "torn tail";
            let rp =
              match
                Wal.replayable_of_records ~base_seq:0 ~skip_below:0 sc.Wal.sc_records
              with
              | Ok rp -> rp
              | Error e -> fail "wal" e
            in
            match Wal.check_outcomes (Engine.state eng) rp.Wal.rp_outcomes with
            | Ok k ->
                check (k = n) "wal" (Printf.sprintf "%d of %d outcomes logged" k n)
            | Error e -> fail "wal" e
          end;
          Sys.remove ws.path
      | None -> ());
      if not full then (0., 0, 0)
      else begin
        let r = Engine.finish eng in
        if judge then
          check
            (Checker.serially_correct (Engine.schema eng) r.Runtime.trace)
            "serial-correctness" "Checker rejects the served trace";
        let live = Admission.monitor (Engine.admission eng) in
        let replay = Monitor.create (Engine.schema eng) in
        let acts = Trace.to_list r.Runtime.trace in
        let t0 = now () in
        List.iter (fun a -> ignore (Monitor.feed replay a)) acts;
        let dt = now () -. t0 in
        check
          (Monitor.counters replay = Monitor.counters live)
          "monitor-replay" "replayed counters differ from the engine's";
        ( dt,
          (Monitor.counters replay).Monitor.feeds,
          Graph.reorders (Monitor.graph live) )
      end
  | Sharded { svc; _ } ->
      Shard_service.stop svc;
      let rt = Shard_service.router svc in
      let committed, aborted = Shard_router.counts rt in
      check
        (Shard_router.submitted rt = n
        && committed = lp.committed
        && aborted = lp.aborted)
        "completion" "router counts disagree with the clients'";
      List.iter
        (fun (t, st) ->
          if wire_state_sharded svc t <> st then
            fail "state"
              ("decoded State disagrees with the router for " ^ Txn_id.to_string t))
        lp.finals;
      let stats = Shard_service.stats svc in
      let sum f = Array.fold_left (fun a s -> a + f s) 0 stats in
      let alarms = sum (fun s -> s.Shard_engine.sh_alarms) in
      let cycles = sum (fun s -> s.Shard_engine.sh_cycle_alarms) in
      check (alarms = 0 && cycles = 0) "alarms"
        (Printf.sprintf "%d monitor alarms (%d cycle)" alarms cycles);
      if full then begin
        let r, _forest, schema = Shard_service.finish svc in
        let replay = Monitor.create schema in
        List.iter
          (fun a -> ignore (Monitor.feed replay a))
          (Trace.to_list r.Runtime.trace);
        let c = Monitor.counters replay in
        check
          (c.Monitor.cycle_alarms = 0 && c.Monitor.inappropriate_alarms = 0)
          "merged-monitor"
          (Printf.sprintf "%d cycle and %d return-value alarms on the merged trace"
             c.Monitor.cycle_alarms c.Monitor.inappropriate_alarms);
        if judge then
          check
            (Checker.serially_correct schema r.Runtime.trace)
            "serial-correctness" "Checker rejects the merged trace"
      end;
      (0., 0, 0)

let layer_values (lp : loop) ~n ~wall ~gaccs ~alloc_words ~replay =
  let tr = lp.tr and acc = lp.acc in
  let us (s, k) = per (s *. 1e6) k in
  let g f = List.fold_left (fun a x -> a +. f x) 0. gaccs in
  let gi f = List.fold_left (fun a x -> a + f x) 0 gaccs in
  let respond_s = g (fun a -> a.respond_s) and respond_n = gi (fun a -> a.respond_n) in
  let inform_s = g (fun a -> a.inform_s) and inform_n = gi (fun a -> a.inform_n) in
  let gobj_s = respond_s +. inform_s +. g (fun a -> a.create_s) in
  let step_s = fsum acc.steps and step_n = List.length acc.steps in
  let replay_s, feeds, reorders = replay in
  let sum_spans = Hashtbl.fold (fun _ (s, _) a -> a +. !s) tr.totals 0. in
  let fn = float_of_int n in
  let per_txn k = float_of_int k /. fn in
  let growth =
    (* last-decile over first-decile mean step time *)
    let a = Array.of_list (List.rev acc.steps) in
    let k = Array.length a / 10 in
    if k = 0 then 0.
    else
      let mean lo = fsum (Array.to_list (Array.sub a lo k)) /. float_of_int k in
      mean (Array.length a - k) /. mean 0
  in
  let common =
    [
      ("wire.decode_us", us (total tr "decode"));
      ("wire.encode_us", us (total tr "encode"));
      ("wire.bytes_per_txn", per_txn lp.bytes);
      ("program_io.parse_us", us (total tr "parse"));
      ("gobj.respond_us", per (respond_s *. 1e6) respond_n);
      ("gobj.respond_calls_per_txn", per_txn respond_n);
      ( "gobj.refused_pct",
        pct (float_of_int (gi (fun a -> a.refused))) (float_of_int respond_n) );
      ("gobj.inform_calls_per_txn", per_txn inform_n);
      ("gobj.inform_us", per (inform_s *. 1e6) inform_n);
      ( "gc.alloc_kb_per_txn",
        alloc_words *. float_of_int (Sys.word_size / 8) /. 1024. /. fn );
      ("harness.client_us", fst (total tr "client") *. 1e6 /. fn);
      ("trace.layer_sum_pct", pct sum_spans wall);
    ]
  in
  let specific =
    match lp.srv with
    | Single { eng; wal } ->
        let wal_vals =
          match wal with
          | None -> []
          | Some ws ->
              [
                ("wal.append_us", per (acc.append_s *. 1e6) (Wal.Writer.appended ws.w));
                ("wal.sync_us", per (acc.sync_s *. 1e6) acc.sync_n);
                ("wal.syncs_per_txn", per_txn (Wal.Writer.syncs ws.w));
                ("wal.bytes_per_txn", per_txn (Wal.Writer.bytes_written ws.w));
              ]
        in
        let live = Admission.monitor (Engine.admission eng) in
        let edges = (Monitor.counters live).Monitor.edges in
        [
          ("engine.submit_us", us (total tr "submit"));
          ("engine.step_us", per (step_s *. 1e6) step_n);
          ("engine.steps_per_txn", per_txn (Engine.steps_so_far eng));
          ("engine.step_growth", growth);
          ("engine.queue_pct", pct acc.queued_s acc.resident_s);
          ( "runtime.self_us",
            per ((step_s -. gobj_s -. acc.gate_s -. replay_s) *. 1e6) step_n );
          ( "runtime.productive_pct",
            pct
              (float_of_int (Engine.steps_so_far eng))
              (float_of_int (Engine.step_calls eng)) );
          ("runtime.actions_per_txn", per_txn (Engine.actions_so_far eng));
          ("gobj.share_pct", pct gobj_s step_s);
          ("admission.gate_us", per (acc.gate_s *. 1e6) acc.gate_n);
          ("admission.gate_calls_per_txn", per_txn acc.gate_n);
          ("admission.vetoed", float_of_int (Engine.vetoed eng));
          ("monitor.feed_us", per (replay_s *. 1e6) feeds);
          ("monitor.share_pct", pct replay_s step_s);
          ("monitor.edges_per_txn", per_txn edges);
          ("graph.reorders", float_of_int reorders);
        ]
        @ wal_vals
    | Sharded { svc; _ } ->
        let stats = Shard_service.stats svc in
        let sum f = Array.fold_left (fun a s -> a + f s) 0 stats in
        let steps = Array.map (fun s -> float_of_int s.Shard_engine.sh_steps) stats in
        let mean =
          Array.fold_left ( +. ) 0. steps /. float_of_int (Array.length steps)
        in
        let sp = Shard_service.spine svc and rt = Shard_service.router svc in
        [
          ("engine.steps_per_txn", per_txn (sum (fun s -> s.Shard_engine.sh_steps)));
          ( "runtime.actions_per_txn",
            per_txn (sum (fun s -> s.Shard_engine.sh_actions)) );
          ("admission.vetoed", float_of_int (sum (fun s -> s.Shard_engine.sh_vetoed)));
          ( "monitor.edges_per_txn",
            per_txn (sum (fun s -> s.Shard_engine.sh_sg_edges)) );
          ( "graph.reorders",
            float_of_int (sum (fun s -> s.Shard_engine.sh_sg_reorders)) );
          ("router.submit_us", us (total tr "submit"));
          ("router.cross_pct", pct (float_of_int (Shard_router.cross_count rt)) fn);
          ("spine.checks_per_txn", float_of_int (Spine.checks sp) /. fn);
          ("spine.vetoes", float_of_int (Spine.vetoes sp));
          ("spine.nodes", float_of_int (Spine.node_count sp));
          ("service.wait_pct", pct (fst (total tr "wait")) wall);
          ( "shard.step_imbalance",
            if mean = 0. then 0. else Array.fold_left max 0. steps /. mean );
        ]
  in
  let have = common @ specific in
  List.map
    (fun (name, _, _) ->
      (name, match List.assoc_opt name have with Some v -> v | None -> 0.))
    layer_metrics

let chrome_trace path tr ~t_base =
  let ev s =
    Json.Obj
      [
        ("name", Json.Str s.s_name);
        ("ph", Json.Str "X");
        ("ts", Json.Float ((s.s_t0 -. t_base) *. 1e6));
        ("dur", Json.Float ((s.s_t1 -. s.s_t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.s_tid);
        ("args", Json.Obj (if s.s_req = "" then [] else [ ("req", Json.Str s.s_req) ]));
      ]
  in
  let oc = open_out path in
  output_string oc @@ json_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.rev_map ev tr.spans));
         ("displayTimeUnit", Json.Str "ms");
       ]);
  close_out oc

let run_rep spec ~seed ~rep ~quick ~traced ~full ~trace_out =
  let texts, objects = generate spec ~seed ~rep ~quick in
  let n = Array.length texts in
  let acc = new_acc () and gaccs = ref [] in
  (* Set up [setup_reps] times and keep the last: the rep reports the
     median, so one slow first-touch does not decide it.  Time in the
     log's file-system calls is left out: their latency drifts by a
     fifth between runs (README.md), and wal.* measures them. *)
  let rec setups k times =
    let io0 = acc.io_s and t0 = now () in
    let srv = start_server spec objects ~traced acc gaccs in
    let times = (now () -. t0 -. (acc.io_s -. io0)) :: times in
    if k <= 1 then (srv, times)
    else begin
      stop_server srv;
      setups (k - 1) times
    end
  in
  let srv, setup_times = setups setup_reps [] in
  acc.sync_s <- 0.;
  acc.sync_n <- 0;
  let tr = { on = traced; spans = []; totals = Hashtbl.create 16 } in
  let lp =
    {
      srv; tr; acc; texts; next = 0; reqs = Hashtbl.create 1024; bytes = 0;
      committed = 0; aborted = 0; lat = []; finals = []; progressed = false;
    }
  in
  let cls =
    Array.init clients (fun cid ->
        {
          cid = cid + 1;
          to_server = Buffer.create 1024;
          server_reader = Wire.Reader.create ();
          to_client = Buffer.create 1024;
          client_reader = Wire.Reader.create ();
          phase = Done;
          reqno = 0;
        })
  in
  let words0 = Gc.minor_words () in
  let t0 = now () in
  run_loop lp cls;
  let wall = now () -. t0 in
  let alloc_words = Gc.minor_words () -. words0 in
  let rss_mb = peak_rss_mb () in
  let replay = verify lp ~n ~full:(full || traced) ~judge:traced in
  let layers =
    if not traced then []
    else begin
      let l = layer_values lp ~n ~wall ~gaccs:!gaccs ~alloc_words ~replay in
      let sum = List.assoc "trace.layer_sum_pct" l in
      check (sum >= 95. && sum <= 105.) "layer-sum"
        (Printf.sprintf "outer spans cover %.1f%% of the traced wall time" sum);
      (match trace_out with
      | Some path ->
          chrome_trace path tr ~t_base:t0;
          let ic = open_in_bin path in
          let text = really_input_string ic (in_channel_length ic) in
          close_in ic;
          check (Result.is_ok (Json.parse text)) "trace" (path ^ " is not valid JSON")
      | None -> ());
      l
    end
  in
  {
    wall;
    setup = median (Array.of_list setup_times);
    rss_mb;
    submitted = n;
    committed = lp.committed;
    lat = Array.of_list lp.lat;
    layers;
  }

(* ----- child protocol: one JSON line on stdout ----- *)

let rep_to_json r =
  Json.Obj
    [
      ("wall_s", Json.Float r.wall);
      ("setup_s", Json.Float r.setup);
      ("rss_mb", Json.Float r.rss_mb);
      ("submitted", Json.Int r.submitted);
      ("committed", Json.Int r.committed);
      ("lat_s", Json.Arr (Array.to_list (Array.map (fun x -> Json.Float x) r.lat)));
      ("layers", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.layers));
    ]

let num = function
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> nan

let int_of j k = match Json.member k j with Some (Json.Int i) -> i | _ -> 0

let rep_of_json j =
  let arr k = match Json.member k j with Some (Json.Arr l) -> l | _ -> [] in
  {
    wall = num (Json.member "wall_s" j);
    setup = num (Json.member "setup_s" j);
    rss_mb = num (Json.member "rss_mb" j);
    submitted = int_of j "submitted";
    committed = int_of j "committed";
    lat = Array.of_list (List.map (fun x -> num (Some x)) (arr "lat_s"));
    layers =
      (match Json.member "layers" j with
      | Some (Json.Obj l) -> List.map (fun (k, v) -> (k, num (Some v))) l
      | _ -> []);
  }

(* The rep in flight, so a terminated run takes its child down too. *)
let current_child = ref None

let stop_child _ =
  (match !current_child with
  | Some pid -> (
      try
        Unix.kill pid Sys.sigterm;
        ignore (Unix.waitpid [] pid)
      with Unix.Unix_error _ -> ())
  | None -> ());
  exit 1

let spawn_rep spec ~seed ~rep ~quick ~traced ~full ~trace_out =
  let args =
    [ "--child"; "--workload"; spec.name; "--seed"; string_of_int seed;
      "--rep"; string_of_int rep ]
    @ (if quick then [ "--quick" ] else [])
    @ (if traced then [ "--traced" ] else [])
    @ (if full then [ "--full-check" ] else [])
    @ match trace_out with Some p -> [ "--trace-out"; p ] | None -> []
  in
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  current_child := Some (Unix.process_in_pid ic);
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  current_child := None;
  match status with
  | Unix.WEXITED 0 -> (
      match Json.parse (String.trim out) with
      | Ok j -> rep_of_json j
      | Error e ->
          Printf.eprintf "serve-bench: %s: unreadable child result: %s\n" spec.name e;
          exit 1)
  | _ ->
      (* the child named the workload and the failed check on stderr *)
      exit 1

(* ----- machine-speed calibration ----- *)

(* On a virtual machine sharing its host, the same rep's wall time can
   drift by half between quiet and busy periods, for seconds to minutes
   at a time; this kernel slows with it (README.md has the
   correlations).  The run times the kernel before and after every rep,
   in this process while no child runs, on as many domains at once as
   the workload keeps busy, and scales the rep's times by the reference
   over the kernel's mean: reported times read as at the machine's
   reference speed.  Two domains allocating at once also share
   stop-the-world minor collections, as the shard workers do, hence a
   reference per domain count.  The kernel uses the standard library
   only, so no change to the served system moves it. *)
let reference_s ~domains = if domains = 1 then 0.043 else 0.067

let kernel () =
  let t0 = now () in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to 30_000 do
    Hashtbl.replace tbl i (i, [ i; i + 1 ])
  done;
  let acc = ref 0 in
  for r = 1 to 20 do
    Hashtbl.iter
      (fun k (a, l) -> if (k + r) land 7 = 0 then acc := !acc + a + List.length l)
      tbl;
    let l = List.init 5000 (fun i -> (i, string_of_int i)) in
    acc := !acc + List.length (List.rev l);
    for i = 0 to 2000 do
      Hashtbl.replace tbl ((i * 37) + r) (r, [ r ])
    done
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t0

let calibrate ~domains =
  let once () =
    let others = List.init (domains - 1) (fun _ -> Domain_compat.spawn kernel) in
    let own = kernel () in
    List.fold_left (fun a h -> a +. Domain_compat.join h) own others
    /. float_of_int domains
  in
  median (Array.init 3 (fun _ -> once ()))

let scale f r =
  { r with wall = r.wall *. f; setup = r.setup *. f; lat = Array.map (( *. ) f) r.lat }

(* ----- a run: reps until --seconds have passed ----- *)

type result = {
  r_spec : spec;
  reps : rep list;  (* times scaled to the reference speed *)
  speeds : float list;  (* per rep: reference over measured kernel time *)
  e2e : (metric * float * float list) list;  (* metric, value, per-rep *)
  layers : (string * float) list;
  n_lat : int;
  p99_ms : float;
}

let min_reps = 3

let run_workload spec ~seed ~seconds ~quick ~trace ~trace_out =
  let t_start = now () in
  let domains = spec.shards in
  let cal = ref (calibrate ~domains) in
  let calibrated r =
    let c = calibrate ~domains in
    let speed = reference_s ~domains /. ((!cal +. c) /. 2.) in
    cal := c;
    (scale speed r, speed)
  in
  let rec reps acc =
    let k = List.length acc in
    if (quick && k >= 1) || (k >= min_reps && now () -. t_start >= seconds) then
      List.rev acc
    else
      let full = k = 0 && not trace in
      reps
        (calibrated
           (spawn_rep spec ~seed ~rep:k ~quick ~traced:false ~full ~trace_out:None)
        :: acc)
  in
  let reps, speeds = List.split (reps []) in
  let traced_rep =
    if trace then
      Some
        (fst
           (calibrated
              (spawn_rep spec ~seed ~rep:0 ~quick ~traced:true ~full:true ~trace_out)))
    else None
  in
  let lat_pool = sorted (Array.concat (List.map (fun r -> r.lat) reps)) in
  let per_rep f = List.map f reps in
  let rep_pct p r = percentile (sorted r.lat) p *. 1e3 in
  let e2e =
    List.map
      (fun m ->
        let value, values =
          match m.m_name with
          | "tput_cps" ->
              (* pooled: every rep's commits over every rep's wall time *)
              let sum f = List.fold_left (fun a r -> a +. f r) 0. reps in
              ( sum (fun r -> float_of_int r.committed) /. sum (fun r -> r.wall),
                per_rep (fun r -> float_of_int r.committed /. r.wall) )
          | "lat_p50_ms" -> (percentile lat_pool 0.5 *. 1e3, per_rep (rep_pct 0.5))
          | "lat_p95_ms" -> (percentile lat_pool 0.95 *. 1e3, per_rep (rep_pct 0.95))
          | "commit_pct" ->
              let v =
                per_rep (fun r ->
                    100. *. float_of_int r.committed /. float_of_int r.submitted)
              in
              (median (Array.of_list v), v)
          | "peak_rss_mb" ->
              let v = per_rep (fun r -> r.rss_mb) in
              (median (Array.of_list v), v)
          | "setup_s" ->
              let v = per_rep (fun r -> r.setup) in
              (median (Array.of_list v), v)
          | other -> invalid_arg other
        in
        (m, value, values))
      e2e_metrics
  in
  let layers =
    match traced_rep with
    | None -> []
    | Some t ->
        (* the traced rep serves rep 0's instance *)
        let untraced = (List.hd reps).wall in
        List.map
          (fun (k, v) ->
            if k = "trace.overhead_pct" then (k, 100. *. ((t.wall /. untraced) -. 1.))
            else (k, v))
          t.layers
  in
  {
    r_spec = spec;
    reps;
    speeds;
    e2e;
    layers;
    n_lat = Array.length lat_pool;
    p99_ms = percentile lat_pool 0.99 *. 1e3;
  }

(* ----- reporting ----- *)

let layer_unit name =
  match List.find_opt (fun (n, _, _) -> n = name) layer_metrics with
  | Some (_, u, _) -> u
  | None -> ""

let print_result r =
  let name = r.r_spec.name in
  Printf.printf
    "%s: %d reps x %d submissions; host speed %.3f of reference (median, \
     q1 %.3f q3 %.3f)\n"
    name (List.length r.reps)
    (match r.reps with x :: _ -> x.submitted | [] -> 0)
    (median (Array.of_list r.speeds))
    (let q1, _, _ = quartiles (Array.of_list r.speeds) in q1)
    (let _, _, q3 = quartiles (Array.of_list r.speeds) in q3);
  List.iter
    (fun (m, v, values) ->
      let q1, _, q3 = quartiles (Array.of_list values) in
      Printf.printf "  %-12s %-28s %12.6g %-6s q1 %.6g q3 %.6g%s\n" name m.m_name v
        m.m_unit q1 q3
        (if m.m_name = "lat_p95_ms" then
           (* p99 is reported, not bounded: README.md *)
           Printf.sprintf " (n=%d pooled; p99 %.6g ms)" r.n_lat r.p99_ms
         else if m.m_name = "lat_p50_ms" then Printf.sprintf " (n=%d pooled)" r.n_lat
         else ""))
    r.e2e;
  List.iter
    (fun (k, v) ->
      Printf.printf "  %-12s %-28s %12.6g %s\n" name k v (layer_unit k))
    r.layers

let metrics_json ~prefix r =
  let key k = if prefix then r.r_spec.name ^ "/" ^ k else k in
  let one k v u = (key k, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]) in
  List.map (fun (m, v, _) -> one m.m_name v m.m_unit) r.e2e
  @ List.map (fun (k, v) -> one k v (layer_unit k)) r.layers

let better_name = function Lower -> "lower" | Higher -> "higher"
let floats_json l = Json.Arr (List.map (fun x -> Json.Float x) l)

let results_json ~seed ~seconds rs =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("seconds", Json.Float seconds);
      ("nproc", Json.Int (Domain_compat.recommended_worker_count ()));
      ( "workloads",
        Json.Obj
          (List.map
             (fun r ->
               ( r.r_spec.name,
                 Json.Obj
                   [
                     ( "end_to_end",
                       Json.Obj
                         (List.map
                            (fun (m, v, values) ->
                              ( m.m_name,
                                Json.Obj
                                  [
                                    ("value", Json.Float v);
                                    ("unit", Json.Str m.m_unit);
                                    ("better", Json.Str (better_name m.m_better));
                                    ("bound", Json.Float m.m_bound);
                                    ("reps", floats_json values);
                                  ] ))
                            r.e2e) );
                     ( "per_layer",
                       Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.layers) );
                     ("speeds", floats_json r.speeds);
                   ] ))
             rs) );
    ]

(* ----- --compare ----- *)

let load path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "serve-bench: %s: %s\n" path e;
      exit 2

let fields = function Some (Json.Obj l) -> l | _ -> []
let floats = function Some (Json.Arr l) -> List.map (fun x -> num (Some x)) l | _ -> []

(* A metric whose parent runs spread (interquartile, as a share of the
   median) wider than its bound is unresolved unless every change run
   beats every parent run; otherwise it is worse past the bound, better
   when the change wins nine pairs in ten by more than the parent's own
   spread, and the same in between. *)
let verdict ~better ~bound ~parent ~pv ~change ~cv =
  let sign = match better with Lower -> 1. | Higher -> -1. in
  let beats a b = sign *. (a -. b) < 0. in
  let q1, _, q3 = quartiles (Array.of_list parent) in
  let spread = if pv = 0. then 0. else (q3 -. q1) /. Float.abs pv in
  let rel = if pv = 0. then 0. else sign *. (cv -. pv) /. Float.abs pv in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change
  in
  let pairs =
    List.combine
      (List.filteri (fun i _ -> i < List.length change) parent)
      (List.filteri (fun i _ -> i < List.length parent) change)
  in
  let wins = List.length (List.filter (fun (p, c) -> beats c p) pairs) in
  if spread > bound then if all_better then "better" else "unresolved"
  else if rel > bound then "worse"
  else if -.rel > spread && float_of_int wins >= 0.9 *. float_of_int (List.length pairs)
  then "better"
  else "same"

let compare_files parent_path change_path =
  let parent = load parent_path and change = load change_path in
  let worse = ref 0 in
  Printf.printf "%-12s %-14s %14s %14s %9s  %s\n" "workload" "metric" "parent" "change"
    "delta" "verdict";
  List.iter
    (fun (wl, pw) ->
      match List.assoc_opt wl (fields (Json.member "workloads" change)) with
      | None -> Printf.printf "%-12s (missing from %s)\n" wl change_path
      | Some cw ->
          List.iter
            (fun (name, pm) ->
              match List.assoc_opt name (fields (Json.member "end_to_end" cw)) with
              | None ->
                  Printf.printf "%-12s %-14s (missing from %s)\n" wl name change_path
              | Some cm ->
                  let better =
                    match Json.member "better" pm with
                    | Some (Json.Str "higher") -> Higher
                    | _ -> Lower
                  in
                  let bound = num (Json.member "bound" pm) in
                  let pv = num (Json.member "value" pm)
                  and cv = num (Json.member "value" cm) in
                  let v =
                    verdict ~better ~bound ~parent:(floats (Json.member "reps" pm)) ~pv
                      ~change:(floats (Json.member "reps" cm)) ~cv
                  in
                  if v = "worse" then incr worse;
                  Printf.printf "%-12s %-14s %14.4f %14.4f %+8.1f%%  %s\n" wl name pv cv
                    (if pv = 0. then 0. else 100. *. (cv -. pv) /. pv)
                    v)
            (fields (Json.member "end_to_end" pw)))
    (fields (Json.member "workloads" parent));
  if !worse > 0 then exit 1

(* ----- command line ----- *)

let usage =
  "usage: main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]\n\
  \                [--trace-out DIR] [--out FILE] [--quick]\n\
  \       main.exe --compare PARENT.json CHANGE.json\n\
   workloads: sb-hot sb-long sb-wide sb-sharded (default: all)\n\
   --trace 0 measures end-to-end metrics only; --trace 1 adds one traced\n\
   rep and reports per-layer metrics; without --trace, both.\n"

let () =
  let workload = ref None and seed = ref 5 and rep = ref 0 and seconds = ref 25. in
  let trace = ref None and trace_out = ref None and out = ref None in
  let quick = ref false and child = ref false and traced = ref false in
  let full = ref false in
  let bad msg =
    prerr_string ("main.exe: " ^ msg ^ "\n" ^ usage);
    exit 2
  in
  let int_arg name v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> bad (name ^ " wants an integer")
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        (match spec_of_name v with
        | Some s -> workload := Some s
        | None -> bad ("unknown workload " ^ v));
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_arg "--seed" v;
        parse rest
    | "--rep" :: v :: rest ->
        rep := int_arg "--rep" v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_int (int_arg "--seconds" v);
        parse rest
    | "--trace" :: v :: rest ->
        trace := Some (int_arg "--trace" v <> 0);
        parse rest
    | "--trace-out" :: v :: rest ->
        trace_out := Some v;
        parse rest
    | "--out" :: v :: rest ->
        out := Some v;
        parse rest
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--compare" :: a :: b :: _ ->
        compare_files a b;
        exit 0
    | "--child" :: rest ->
        child := true;
        parse rest
    | "--traced" :: rest ->
        traced := true;
        parse rest
    | "--full-check" :: rest ->
        full := true;
        parse rest
    | ("--help" | "-help") :: _ ->
        print_string usage;
        exit 0
    | a :: _ -> bad ("unexpected argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let run_checked name f =
    try f () with Check_failed (check, msg) ->
      Printf.eprintf "serve-bench: %s: check %s failed: %s\n" name check msg;
      exit 1
  in
  if !child then begin
    let spec =
      match !workload with Some s -> s | None -> bad "--child needs --workload"
    in
    at_exit (fun () ->
        if Lazy.is_val wal_path && Sys.file_exists (Lazy.force wal_path) then
          Sys.remove (Lazy.force wal_path));
    let r =
      run_checked spec.name (fun () ->
          run_rep spec ~seed:!seed ~rep:!rep ~quick:!quick ~traced:!traced ~full:!full
            ~trace_out:!trace_out)
    in
    print_endline (json_string (rep_to_json r));
    exit 0
  end;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_child);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_child);
  let selected = match !workload with Some s -> [ s ] | None -> specs in
  let trace_file spec =
    let dir =
      match !trace_out with Some d -> d | None -> Filename.dirname Sys.executable_name
    in
    Filename.concat dir (Printf.sprintf "serve-trace-%s.json" spec.name)
  in
  let results =
    List.map
      (fun spec ->
        let do_trace = match !trace with Some t -> t | None -> true in
        let r =
          run_workload spec ~seed:!seed ~seconds:!seconds ~quick:!quick ~trace:do_trace
            ~trace_out:(Some (trace_file spec))
        in
        print_result r;
        if do_trace then Printf.printf "  trace: %s\n" (trace_file spec);
        flush stdout;
        r)
      selected
  in
  (match !out with
  | Some path ->
      let oc = open_out path in
      output_string oc
        (json_string (results_json ~seed:!seed ~seconds:!seconds results));
      output_char oc '\n';
      close_out oc
  | None -> ());
  let attempted =
    List.fold_left
      (fun a r -> List.fold_left (fun a x -> a + x.submitted) a r.reps)
      0 results
  in
  let single = List.length results = 1 in
  let metrics =
    List.concat_map
      (fun r ->
        let l = metrics_json ~prefix:(not single) r in
        match !trace with
        | Some false -> List.filteri (fun i _ -> i < List.length r.e2e) l
        | Some true -> List.filteri (fun i _ -> i >= List.length r.e2e) l
        | None -> l)
      results
  in
  print_endline
    (json_string
       (Json.Obj
          [
            ("correct", Json.Bool true);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int 0);
            ("metrics", Json.Obj metrics);
          ]))
