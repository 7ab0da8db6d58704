(* ntserved: a nested-transaction server.

   Clients speak the length-prefixed JSON protocol of [Core.Wire] over a
   Unix-domain socket (--socket) or a loopback TCP port (--port):
   programs arrive as text, run open-loop on the [Core.Engine] under the
   chosen backend, and commits are gated by the online serialization-
   graph admission controller (disable with --no-admission to watch the
   monitor catch what the gate would have refused).

   Examples:
     ntserved --socket /tmp/nt.sock --backend undo
     ntserved --port 7477 --backend moss --obs-format jsonl --obs-out t.jsonl
     ntserved --socket /tmp/nt.sock --backend replication --objects 3
     ntserved --socket /tmp/nt.sock --backend undo --shards 4 --types rw

   One select loop interleaves accepts, reads, writes and engine work.
   With one shard the engine is stepped inside the loop, so served
   executions are sequential interleavings — exactly the generic-system
   behaviors the paper's theorems cover.  With --shards N > 1 the shard
   engines run on worker domains and the loop plans submissions on the
   router and collects completions; everything between the socket and
   the engine (stage spans, flight recorder, audit log, telemetry) is
   the same code in both modes. *)

open Core
open Cmdliner

(* ----- object tables ----- *)

type table = T_rw | T_mixed

let table_conv = Arg.enum [ ("rw", T_rw); ("mixed", T_mixed) ]

let build_objects table n =
  match table with
  | T_rw ->
      List.init n (fun i -> (Obj_id.indexed "r" i, Register.make ()))
  | T_mixed ->
      List.init n (fun i ->
          let x = Obj_id.indexed "x" i in
          match i mod 5 with
          | 0 -> (x, Register.make ())
          | 1 -> (x, Counter.make ())
          | 2 -> (x, Bank_account.make ~init:10 ())
          | 3 -> (x, Rset.make ())
          | _ -> (x, Fifo_queue.make ()))

(* ----- connections ----- *)

type conn = {
  fd : Unix.file_descr;
  id : int;  (* stable connection id (the pid row in Chrome dumps) *)
  reader : Wire.Reader.t;
  mutable out : string;
  mutable out_off : int;
  mutable sent : int;  (* bytes flushed and discarded from [out] *)
  mutable greeted : bool;
  mutable client_name : string;
  mutable subscribed : bool;  (* push Telemetry frames here *)
  mutable live : Txn_id.t list;  (* this client's incomplete submissions *)
  mutable wants_quiesce : bool;
  mutable closing : bool;  (* close once the out buffer drains *)
  mutable last_rx : float;
  mutable rx_start : float option;  (* when the pending frame began *)
  mutable replies : (string option * string option * float * int) list;
      (* Accepted answers awaiting flush: req, txn, buffered-at,
         absolute out-stream offset of the frame's last byte — the
         reply stage closes when [sent + out_off] passes it. *)
}

(* Submission provenance, kept for the life of the server: the client's
   request id is echoed in every State answer and in audit entries, and
   t_submit anchors the submit-to-completion latency.  Keyed by the
   transaction name the client was given ([T0.g] for merged submission
   [g] in sharded mode). *)
type txn_rec = {
  req : string option;
  client : string;
  t_submit : float;
  conn_id : int;
}

(* ----- durability state ----- *)

(* The live write-ahead log: a writer over the current log generation,
   the fd it appends to (swapped at rotation — the sink reads it
   through [fd]), and the cumulative compacted replay closure the next
   snapshot will persist. *)
type wal_state = {
  wal_path : string;
  snapshot_every : int;  (* appended records per snapshot; 0 = never *)
  wal_fd : Unix.file_descr ref;
  mk_writer : fresh:bool -> base_seq:int -> Wal.Writer.t;
  mutable w : Wal.Writer.t;
  mutable last_step_calls : int;  (* engine step_calls at the last cut *)
  closure : Wal.Closure.t;  (* incrementally compacted replay closure *)
  mutable snap_mark : int;  (* Writer.appended at the last snapshot *)
  wal_meta : Wal.record;
}

(* A recovery in flight: chunks of the logged call sequence are applied
   between select turns so Ping stays responsive.  Each phase pairs an
   event list with the validation that must pass once its events have
   been applied (snapshot: SG and counter agreement; log tail: the
   outcome prefix-closure check). *)
type recovery = {
  mutable phases :
    (Engine.replay_event list * (unit -> (unit, string) result)) list;
  total : int;  (* sum of event weights across all phases *)
  mutable replayed : int;
  rec_torn : bool;  (* the log had a damaged tail (now truncated) *)
}

(* ----- the server ----- *)

(* One shard: the engine lives in the select loop, which steps it in
   bursts between socket turns; the write-ahead log and the
   replication transform are single-shard features. *)
type single = {
  eng : Engine.t;
  burst : int;  (* max engine steps per loop turn *)
  replicated : bool;
  mutable logical_rev : Program.t list;  (* replication: forest so far *)
  mutable wal : wal_state option;
  mutable recovery : recovery option;
}

(* Several shards: [Shard_service] runs one worker per shard on its own
   domain.  The loop plans submissions on the router, answers Status
   from the router's thread-safe bookkeeping, and scans the open set
   for completions when a worker pokes the self-pipe.  Merged
   submission [g] is [T0.g] on the wire. *)
type sharded = {
  svc : Shard_service.t;
  notify_r : Unix.file_descr;  (* self-pipe: workers wake the select *)
  notify_w : Unix.file_descr;
  open_set : (int, unit) Hashtbl.t;  (* submitted, completion not seen *)
}

type arm = Single of single | Sharded of sharded

type server = {
  arm : arm;
  backend : Check.backend;
  objects : (Obj_id.t * Datatype.t) list;  (* logical (advertised) table *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  metrics : Metrics.t;
  hub : Telemetry.Hub.t;
  audit : Telemetry.Audit.t option;
  txns : txn_rec Txn_id.Tbl.t;
  t0 : float;  (* server start; frame times are seconds since this *)
  telemetry_interval : float;  (* 0 = no periodic frames *)
  slow_us : int;  (* audit threshold, µs *)
  prom : string option;  (* prometheus text export path *)
  recorder : Stage.Recorder.t option;  (* the flight recorder *)
  flight_dir : string;
  gcmon : Gcmon.t option;
  verbose : bool;
  mutable gc_ctx : string option * string option * int;
      (* last request context touched (req, txn, conn id): what a GC
         pause drained between loop turns is attributed to *)
  mutable dump_seq : int;
  mutable last_dump : float;  (* anomaly-dump throttle *)
  mutable pending_dump : string option;
      (* anomaly seen mid-turn; dumped at the bottom of the loop, once
         the flagged request's reply span has flushed *)
  mutable dump_hold : int;  (* turns the pending dump has waited *)
  mutable draining : bool;  (* no new conns/submissions *)
  mutable status : Wire.server_status;  (* only a WAL recovery moves it *)
}

let mono srv = Unix.gettimeofday () -. srv.t0

let send conn resp = conn.out <- conn.out ^ Wire.encode_response resp

(* A Submit acknowledgement: queue it for reply-stage timing — the
   span closes when the frame's last byte reaches the socket. *)
let send_reply srv conn ~req ~txn resp =
  send conn resp;
  conn.replies <-
    conn.replies
    @ [ (req, txn, mono srv, conn.sent + String.length conn.out) ]

(* Record one stage span: the hub's windowed/cumulative histograms
   always see it; the ring only when the flight recorder is on.
   [hub_us] overrides the histogram reading (the execute stage reports
   gate-exclusive time while the ring keeps the full interval). *)
let record_stage srv ?hub_us ~stage ~req ~txn ~conn_id t0 t1 =
  let sp =
    {
      Stage.sp_stage = stage;
      sp_req = req;
      sp_txn = txn;
      sp_conn = conn_id;
      sp_t0 = t0;
      sp_t1 = t1;
    }
  in
  Telemetry.Hub.observe_stage srv.hub stage
    (match hub_us with Some us -> us | None -> Stage.dur_us sp);
  match srv.recorder with
  | Some r -> Stage.Recorder.record r sp
  | None -> ()

let flag_dump srv reason =
  if srv.pending_dump = None then srv.pending_dump <- Some reason

(* ----- the write-ahead log ----- *)

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_whole path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Some s
  end
  else None

let write_file_sync path s =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_all fd s;
  Unix.fsync fd;
  Unix.close fd

(* Cut the log at the current engine position: one [Steps] record
   covering the step calls since the last cut, then any outcomes those
   steps produced — the ordering that makes every intact log prefix
   reproduce exactly the state its audit records claim. *)
let wal_cut s =
  match s.wal with
  | Some ws when s.recovery = None ->
      let calls = Engine.step_calls s.eng in
      let n = calls - ws.last_step_calls in
      ws.last_step_calls <- calls;
      Wal.Closure.push ws.closure (Wal.Steps n);
      Wal.Writer.log_steps ws.w n
  | _ -> ()

(* Log one replay event (Submit or Kill), cutting first so the record
   lands after the steps that preceded the corresponding engine call. *)
let wal_event s r =
  match s.wal with
  | Some ws when s.recovery = None ->
      wal_cut s;
      Wal.Closure.push ws.closure r;
      Wal.Writer.append ws.w r
  | _ -> ()

let wal_counts eng =
  Wal.Counts
    {
      submitted = Engine.submitted eng;
      committed = Engine.committed_top eng;
      aborted = Engine.aborted_top eng;
      vetoed = Engine.vetoed eng;
    }

(* Snapshot, then rotate the log.  The snapshot is the compacted
   replay closure of the whole history (merged step runs, no
   outcomes) plus the monitor's graph and the engine counters, written
   whole to a temp file and renamed into place; the log then restarts
   as a fresh generation whose [base_seq] is the snapshot's cover
   point.  Every crash window is safe: before the snapshot rename the
   old snapshot and full log recover; between the two renames the new
   snapshot plus the old log's tail (records with seq >= the cover
   point) recover; after both, the new snapshot plus the new, nearly
   empty generation. *)
let take_snapshot srv s ws =
  wal_cut s;
  Wal.Writer.flush ws.w;
  let next_seq = Wal.Writer.next_seq ws.w in
  let events = Wal.Closure.records ws.closure in
  let g = Monitor.graph (Admission.monitor (Engine.admission s.eng)) in
  let sn =
    {
      Wal.sn_next_seq = next_seq;
      sn_meta = ws.wal_meta;
      sn_events = events;
      sn_sg = Wal.sg_state_of_graph g;
      sn_counts = wal_counts s.eng;
    }
  in
  let tmp = ws.wal_path ^ ".snap.tmp" in
  write_file_sync tmp (Wal.encode_snapshot sn);
  Sys.rename tmp (ws.wal_path ^ ".snap");
  let rot = ws.wal_path ^ ".rot" in
  let fd' =
    Unix.openfile rot [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let old_fd = !(ws.wal_fd) in
  ws.wal_fd := fd';
  let w' = ws.mk_writer ~fresh:true ~base_seq:next_seq in
  ws.w <- w';
  Wal.Writer.append w' ws.wal_meta;
  Wal.Writer.flush w';
  Sys.rename rot ws.wal_path;
  Unix.close old_fd;
  ws.snap_mark <- Wal.Writer.appended w';
  Metrics.incr (Metrics.counter srv.metrics "served.wal.snapshots");
  if srv.verbose then
    Format.eprintf "ntserved: snapshot at seq %d (%d replay events)@." next_seq
      (List.length events)

let wal_turn srv s =
  match s.wal with
  | Some ws when s.recovery = None ->
      wal_cut s;
      Wal.Writer.tick ws.w;
      if
        ws.snapshot_every > 0
        && Wal.Writer.appended ws.w - ws.snap_mark >= ws.snapshot_every
      then take_snapshot srv s ws
  | _ -> ()

(* ----- recovery ----- *)

let event_weight = function `Steps n -> n | `Submit _ | `Kill _ -> 1

(* Split up to [burst] weight off the head of an event list, cutting a
   long [Steps] run mid-way so one turn never replays unboundedly. *)
let take_chunk burst events =
  let rec go acc w evs =
    if w >= burst then (List.rev acc, evs)
    else
      match evs with
      | [] -> (List.rev acc, [])
      | `Steps n :: rest when n > burst - w ->
          ( List.rev (`Steps (burst - w) :: acc),
            `Steps (n - (burst - w)) :: rest )
      | ev :: rest -> go (ev :: acc) (w + event_weight ev) rest
  in
  go [] 0 events

let recovery_turn srv s rc =
  let t0 = mono srv in
  (match rc.phases with
  | [] -> ()
  | (events, check) :: rest -> (
      let chunk, remaining = take_chunk s.burst events in
      (match Engine.replay s.eng chunk with
      | Ok _ -> ()
      | Error e ->
          Format.eprintf "ntserved: recovery failed: %s@." e;
          exit 2);
      rc.replayed <-
        rc.replayed + List.fold_left (fun a e -> a + event_weight e) 0 chunk;
      Metrics.incr
        ~by:(List.fold_left (fun a e -> a + event_weight e) 0 chunk)
        (Metrics.counter srv.metrics "served.wal.replayed");
      if remaining <> [] then rc.phases <- (remaining, check) :: rest
      else begin
        (match check () with
        | Ok () -> ()
        | Error e ->
            Format.eprintf "ntserved: recovery validation failed: %s@." e;
            exit 2);
        rc.phases <- rest
      end));
  record_stage srv ~stage:Stage.wal_replay_stage ~req:None ~txn:None ~conn_id:(-1) t0
    (mono srv);
  if rc.phases <> [] then
    srv.status <- Wire.Recovering { replayed = rc.replayed; total = rc.total }
  else begin
    s.recovery <- None;
    srv.status <-
      Wire.Recovered { replayed = rc.replayed; torn = rc.rec_torn };
    (* Serving resumes here: the log continues from the replayed
       position, so the step-call cursor starts at the replayed count. *)
    (match s.wal with
    | Some ws -> ws.last_step_calls <- Engine.step_calls s.eng
    | None -> ());
    if srv.verbose then
      Format.eprintf "ntserved: recovered %d events%s@." rc.replayed
        (if rc.rec_torn then " (torn tail truncated)" else "")
  end

let wal_fatal path e =
  Format.eprintf "ntserved: %s: %s@." path e;
  exit 2

let drop_seq n l =
  let rec go n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> go (n - 1) r in
  go n l

(* Open (or create) the log at [path], recover whatever it and its
   snapshot hold, and install the writer.  The damaged tail, if any,
   is truncated before the writer appends; the replay itself runs in
   bounded chunks inside the select loop (see [recovery_turn]), with
   submissions rejected until it completes. *)
let init_durability srv s ~path ~fsync_batch ~fsync_interval_s
    ~snapshot_every ~meta =
  let header_len = String.length (Wal.header ~magic:Wal.wal_magic ~base_seq:0) in
  let image = Option.value ~default:"" (read_whole path) in
  let scanned =
    match Wal.scan ~magic:Wal.wal_magic image with
    | Ok s -> s
    | Error e -> wal_fatal path e
  in
  let torn = scanned.Wal.sc_tail <> Wal.Clean in
  (match scanned.Wal.sc_tail with
  | Wal.Torn { valid; why } ->
      Format.eprintf "ntserved: %s: torn tail (%s); truncating to %d bytes@."
        path why valid
  | Wal.Clean -> ());
  let snap_path = path ^ ".snap" in
  let snapshot =
    match read_whole snap_path with
    | None -> None
    | Some s -> (
        match Wal.decode_snapshot s with
        | Ok sn -> Some sn
        | Error e ->
            (* A corrupt snapshot is never trusted.  When the log still
               holds the whole history we can ignore it; when the log
               was rotated past it, nothing can rebuild the prefix. *)
            if scanned.Wal.sc_base_seq = 0 then begin
              Format.eprintf
                "ntserved: %s: %s; ignoring it (log holds full history)@."
                snap_path e;
              None
            end
            else wal_fatal snap_path e)
  in
  (match snapshot with
  | Some sn when sn.Wal.sn_meta <> meta ->
      wal_fatal snap_path
        "snapshot belongs to a different server configuration"
  | _ ->
      if snapshot = None && scanned.Wal.sc_base_seq > 0 then
        wal_fatal path
          "log was rotated past a snapshot that is now missing");
  let fresh = scanned.Wal.sc_valid < header_len in
  let fd =
    Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
  in
  Unix.ftruncate fd (if fresh then 0 else scanned.Wal.sc_valid);
  ignore (Unix.lseek fd 0 Unix.SEEK_END);
  let fd = ref fd in
  let on_sync () =
    Metrics.incr (Metrics.counter srv.metrics "served.wal.syncs")
  in
  let sink =
    {
      Wal.write = (fun s -> write_all !fd s);
      sync =
        (fun () ->
          let t0 = mono srv in
          Unix.fsync !fd;
          record_stage srv ~stage:Stage.wal_fsync_stage ~req:None ~txn:None ~conn_id:(-1)
            t0 (mono srv));
    }
  in
  let mk_writer ~fresh ~base_seq =
    Wal.Writer.create ~fsync_batch ~fsync_interval_s
      ~clock:(fun () -> mono srv)
      ~fresh ~base_seq ~on_sync sink
  in
  let skip = match snapshot with Some sn -> sn.Wal.sn_next_seq | None -> 0 in
  let kept =
    drop_seq (skip - scanned.Wal.sc_base_seq) scanned.Wal.sc_records
  in
  let tail =
    match
      Wal.replayable_of_records ~base_seq:scanned.Wal.sc_base_seq
        ~skip_below:skip scanned.Wal.sc_records
    with
    | Ok rp -> rp
    | Error e -> wal_fatal path e
  in
  (match tail.Wal.rp_meta with
  | Some (m, _) when m <> meta ->
      wal_fatal path "log belongs to a different server configuration"
  | None when snapshot = None && scanned.Wal.sc_records <> [] ->
      wal_fatal path "log has records but no meta record"
  | _ -> ());
  let phases =
    (match snapshot with
    | None -> []
    | Some sn -> (
        match
          Wal.replayable_of_records ~base_seq:0 ~skip_below:0 sn.Wal.sn_events
        with
        | Error e -> wal_fatal snap_path e
        | Ok rp ->
            [
              ( rp.Wal.rp_events,
                fun () ->
                  let g =
                    Monitor.graph
                      (Admission.monitor (Engine.admission s.eng))
                  in
                  match Wal.check_sg_state sn.Wal.sn_sg g with
                  | Error _ as e -> e
                  | Ok () ->
                      if sn.Wal.sn_counts <> wal_counts s.eng then
                        Error "snapshot counters disagree with replayed engine"
                      else Ok () );
            ]))
    @ [
        ( tail.Wal.rp_events,
          fun () ->
            match
              Wal.check_outcomes
                (fun t -> Engine.state s.eng t)
                tail.Wal.rp_outcomes
            with
            | Ok _ -> Ok ()
            | Error _ as e -> e );
      ]
  in
  let total =
    List.fold_left
      (fun a (evs, _) ->
        a + List.fold_left (fun a e -> a + event_weight e) 0 evs)
      0 phases
  in
  let base_seq =
    if fresh then skip
    else scanned.Wal.sc_base_seq + List.length scanned.Wal.sc_records
  in
  let w = mk_writer ~fresh ~base_seq in
  let seed_events =
    Wal.compact
      ((match snapshot with Some sn -> sn.Wal.sn_events | None -> []) @ kept)
  in
  let ws =
    {
      wal_path = path;
      snapshot_every;
      wal_fd = fd;
      mk_writer;
      w;
      last_step_calls = 0;
      closure = Wal.Closure.of_records seed_events;
      snap_mark = Wal.Writer.appended w;
      wal_meta = meta;
    }
  in
  (* A brand-new generation begins with its Meta record; an existing
     one already holds it (validated above). *)
  if fresh then begin
    Wal.Writer.append w meta;
    ws.snap_mark <- Wal.Writer.appended w
  end;
  s.wal <- Some ws;
  if total > 0 || torn || snapshot <> None || scanned.Wal.sc_records <> []
  then begin
    s.recovery <-
      Some { phases; total; replayed = 0; rec_torn = torn };
    srv.status <- Wire.Recovering { replayed = 0; total }
  end
  else srv.status <- Wire.Fresh

let wal_shutdown s =
  match s.wal with
  | None -> ()
  | Some ws ->
      wal_cut s;
      Wal.Writer.flush ws.w;
      (try Unix.close !(ws.wal_fd) with Unix.Unix_error _ -> ())

let sanitize_reason s =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '-' || c = '_'
      then c
      else '-')
    s

(* Write the ring as JSONL + Chrome trace.  Anomaly dumps are
   throttled to one per second ([force] is for the Dump request and
   SIGQUIT); files are numbered so later dumps never clobber earlier
   evidence. *)
let do_dump srv ~force reason =
  match srv.recorder with
  | None -> None
  | Some r ->
      let now = mono srv in
      if (not force) && now -. srv.last_dump < 1.0 then None
      else begin
        srv.last_dump <- now;
        srv.dump_seq <- srv.dump_seq + 1;
        let base =
          Printf.sprintf "flight-%03d-%s" srv.dump_seq (sanitize_reason reason)
        in
        let jsonl = Filename.concat srv.flight_dir (base ^ ".jsonl") in
        let chrome = Filename.concat srv.flight_dir (base ^ ".trace.json") in
        let oc = open_out jsonl in
        let spans = Stage.Recorder.dump_jsonl r ~reason ~now oc in
        close_out oc;
        let oc = open_out chrome in
        ignore (Stage.Recorder.dump_chrome r ~reason ~now oc);
        close_out oc;
        Metrics.incr (Metrics.counter srv.metrics "served.flight_dumps");
        if srv.verbose then
          Format.eprintf "ntserved: flight dump (%s): %d spans -> %s@." reason
            spans jsonl;
        Some (spans, Stage.Recorder.dropped r, jsonl, chrome)
      end

(* ----- the engine arms ----- *)

(* A disconnected client's incomplete submissions are orphans. *)
let close_conn srv conn =
  Hashtbl.remove srv.conns conn.fd;
  List.iter
    (fun t ->
      match srv.arm with
      | Single s ->
          wal_event s (Wal.Kill { txn = t });
          ignore (Engine.kill s.eng t)
      | Sharded sh -> (
          match Txn_id.path t with
          | [ g ] -> Shard_service.kill sh.svc g
          | _ -> ()))
    conn.live;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* Replication serves logical registers: re-transform the grown logical
   forest (version assignment is prefix-stable, so already-submitted
   programs keep their physical form) and submit the new program's
   physical image. *)
let physical_of srv s prog =
  s.logical_rev <- prog :: s.logical_rev;
  let forest = List.rev s.logical_rev in
  match
    Replication.replicate Check.replication_config
      ~objects:(List.map fst srv.objects) forest
  with
  | plan -> (
      match List.rev plan.Replication.physical_forest with
      | p :: _ -> Ok p
      | [] -> Error "empty physical forest")
  | exception Invalid_argument e ->
      s.logical_rev <- List.tl s.logical_rev;
      Error e

(* The validate stage: parse, plus the replication transform. *)
let validate srv program =
  match (Program_io.parse_program_text program, srv.arm) with
  | Ok prog, Single s when s.replicated -> physical_of srv s prog
  | parsed, _ -> parsed

(* The admit stage: hand the program to the engine (or the router). *)
let admit srv prog =
  match srv.arm with
  | Single s -> Engine.submit s.eng prog
  | Sharded sh ->
      Result.map
        (fun g ->
          Hashtbl.replace sh.open_set g ();
          Txn_id.of_path [ g ])
        (Shard_service.submit sh.svc prog)

let wire_state srv t : Wire.txn_state =
  match srv.arm with
  | Single s -> (
      match Engine.state s.eng t with
      | Engine.Unknown | Engine.Pending -> Wire.Pending
      | Engine.Running -> Wire.Running
      | Engine.Committed v -> Wire.Committed (Value.to_string v)
      | Engine.Aborted None -> Wire.Aborted None
      | Engine.Aborted (Some veto) ->
          Wire.Aborted (Some veto.Admission.witness))
  | Sharded sh -> (
      (* Merged ids are dense: anything at or past [submitted] was
         never issued, and is as unknown as a name of the wrong shape. *)
      match Txn_id.path t with
      | [ g ]
        when g >= 0 && g < Shard_router.submitted (Shard_service.router sh.svc)
        -> (
          match Shard_service.result sh.svc g with
          | Shard_router.Pending -> Wire.Running
          | Shard_router.Committed v -> Wire.Committed (Value.to_string v)
          | Shard_router.Aborted None -> Wire.Aborted None
          | Shard_router.Aborted (Some veto) ->
              Wire.Aborted (Some veto.Admission.witness))
      | _ -> Wire.Pending)

let shard_stats sh = Shard_service.stats sh.svc

let shard_sum f sh =
  Array.fold_left (fun acc st -> acc + f st) 0 (shard_stats sh)

(* A multiversion backend serializes by pseudotime; the completion-order
   monitor then flags its reads as inappropriate even when correct, so
   mvts is judged on cycle alarms alone. *)
let actionable_alarms srv =
  let mvts = srv.backend = Check.Mvts in
  match srv.arm with
  | Single s ->
      if mvts then Engine.cycle_alarms s.eng else Engine.alarms s.eng
  | Sharded sh ->
      shard_sum
        (fun st ->
          if mvts then st.Shard_engine.sh_cycle_alarms
          else st.Shard_engine.sh_alarms)
        sh

let shard_rows sh =
  Array.to_list
    (Array.mapi
       (fun i (st : Shard_engine.stats) ->
         {
           Wire.r_shard = i;
           r_submitted = st.sh_submitted;
           r_committed = st.sh_committed;
           r_aborted = st.sh_aborted;
           r_vetoed = st.sh_vetoed;
           r_live = st.sh_live;
         })
       (shard_stats sh))

(* Engine counters for a frame, plus the per-shard rows.  Shard engines
   live on other domains, so their half comes from the counter
   snapshots the workers publish. *)
let frame_counts srv =
  match srv.arm with
  | Single s -> (Telemetry.Hub.counts_of_engine s.eng, [])
  | Sharded sh ->
      ( Telemetry.Hub.merge
          (Array.to_list
             (Array.map
                (fun (st : Shard_engine.stats) ->
                  {
                    Telemetry.Hub.n_submitted = st.sh_submitted;
                    n_committed = st.sh_committed;
                    n_aborted = st.sh_aborted;
                    n_vetoed = st.sh_vetoed;
                    n_orphans = st.sh_orphans;
                    n_live = st.sh_live;
                    n_doomed = st.sh_doomed;
                    n_sg_nodes = st.sh_sg_nodes;
                    n_sg_edges = st.sh_sg_edges;
                    n_sg_reorders = st.sh_sg_reorders;
                  })
                (shard_stats sh))),
        shard_rows sh )

(* Client-visible totals.  Sharded ones come from the router (merged
   tops: a cross-shard program counts once, not once per piece);
   vetoes and alarms are engine-level, summed over shards. *)
let quiesced_response srv =
  let committed, aborted, vetoed, per_shard =
    match srv.arm with
    | Single s ->
        (Engine.committed_top s.eng, Engine.aborted_top s.eng,
         Engine.vetoed s.eng, [])
    | Sharded sh ->
        let c, a = Shard_router.counts (Shard_service.router sh.svc) in
        (c, a, shard_sum (fun st -> st.Shard_engine.sh_vetoed) sh, shard_rows sh)
  in
  Wire.Quiesced
    { committed; aborted; vetoed; alarms = actionable_alarms srv; per_shard }

let req_of srv t =
  match Txn_id.Tbl.find_opt srv.txns t with
  | Some r -> r.req
  | None -> None

let subscriber_count srv =
  Hashtbl.fold (fun _ c n -> if c.subscribed then n + 1 else n) srv.conns 0

let build_frame srv ~cut =
  let counts, per_shard = frame_counts srv in
  (if cut then Telemetry.Hub.cut else Telemetry.Hub.peek)
    ~per_shard srv.hub ~counts ~alarms:(actionable_alarms srv)
    ~conns:(Hashtbl.length srv.conns) ~subscribers:(subscriber_count srv)
    ~now:(mono srv)

(* Every completed submission, from either arm: feed the latency
   window, retire it from its client's kill list, audit vetoes and slow
   requests, and flag an anomaly dump. *)
let complete srv txn outcome veto =
  match Txn_id.Tbl.find_opt srv.txns txn with
  | None -> ()
  | Some r -> (
      let now = mono srv in
      let latency_us =
        int_of_float (Float.max 0.0 ((now -. r.t_submit) *. 1e6))
      in
      Telemetry.Hub.observe_latency srv.hub latency_us;
      srv.gc_ctx <- (r.req, Some (Txn_id.to_string txn), r.conn_id);
      Hashtbl.iter
        (fun _ c ->
          if c.id = r.conn_id then
            c.live <- List.filter (fun u -> not (Txn_id.equal u txn)) c.live)
        srv.conns;
      let slow = veto = None && latency_us >= srv.slow_us in
      if veto <> None then flag_dump srv "veto";
      if slow then flag_dump srv "slow";
      match srv.audit with
      | None -> ()
      | Some audit -> (
          match veto with
          | Some v ->
              Telemetry.Audit.veto audit ~now ~req:r.req ~client:r.client ~txn
                ~latency_us v
          | None ->
              if slow then
                let outcome =
                  match outcome with
                  | `Committed -> "committed"
                  | `Aborted -> "aborted"
                in
                Telemetry.Audit.slow audit ~now ~req:r.req ~client:r.client
                  ~txn ~latency_us ~outcome))

(* The single engine's completion hook: runs inside Engine.step at every
   top-level Commit/Abort, while the admission record is fresh (and
   before the engine retires its stage_times entry). *)
let on_complete srv s txn outcome =
  (* Audit the completion in the log (buffered; appended after the
     covering Steps record at the next cut).  During recovery the
     replayed completions are already in the log. *)
  (match s.wal with
  | Some ws when s.recovery = None ->
      let oc =
        match (outcome, Engine.state s.eng txn) with
        | `Committed, Engine.Committed v -> Wal.Committed (Value.to_string v)
        | `Aborted, Engine.Aborted veto ->
            Wal.Aborted (Option.map (fun v -> v.Admission.witness) veto)
        | `Committed, _ -> Wal.Committed "?"
        | `Aborted, _ -> Wal.Aborted None
      in
      Wal.Writer.note_outcome ws.w ~txn oc
  | _ -> ());
  (* execute / gate stages off the engine's clock-stamped readings.
     Histograms get gate-exclusive execute time so stage sums do not
     double-count; the ring keeps the full execute interval with a gate
     span nested at its end, which the flight analyzer deduplicates by
     containment. *)
  (match (Txn_id.Tbl.find_opt srv.txns txn, Engine.stage_times s.eng txn) with
  | Some r, Some st ->
      let txn_s = Some (Txn_id.to_string txn) in
      let gate_us = int_of_float ((st.Engine.st_gate *. 1e6) +. 0.5) in
      let exec_us =
        int_of_float
          (Float.max 0.0 ((st.Engine.st_complete -. st.Engine.st_start) *. 1e6))
      in
      record_stage srv
        ~hub_us:(max 0 (exec_us - gate_us))
        ~stage:"execute" ~req:r.req ~txn:txn_s ~conn_id:r.conn_id
        st.Engine.st_start st.Engine.st_complete;
      record_stage srv ~stage:"gate" ~req:r.req ~txn:txn_s ~conn_id:r.conn_id
        (st.Engine.st_complete -. st.Engine.st_gate)
        st.Engine.st_complete
  | _ -> ());
  complete srv txn outcome
    (if outcome = `Aborted then Admission.veto_of (Engine.admission s.eng) txn
     else None)

(* One turn of engine work.  The single engine replays a recovery chunk
   or drains a burst of steps; sharded, the loop only collects the
   workers' completions.  [`Waiting] means shards still hold
   submissions — the loop sleeps on the self-pipe meanwhile. *)
let engine_turn srv buf =
  match srv.arm with
  | Single s ->
      (* while a recovery is in flight the engine replays the log in
         bounded chunks instead of serving (submissions are rejected),
         so Ping and Status stay responsive *)
      let status =
        match s.recovery with
        | Some rc ->
            recovery_turn srv s rc;
            `Progress
        | None -> Engine.drain ~burst:s.burst s.eng
      in
      wal_turn srv s;
      (status :> [ `Progress | `Quiescent | `Truncated | `Waiting ])
  | Sharded sh ->
      (try ignore (Unix.read sh.notify_r buf 0 (Bytes.length buf))
       with Unix.Unix_error _ -> ());
      (* read [pending] first: whatever it counted as done is visible
         to the scan below *)
      let quiet = Shard_service.pending sh.svc = 0 in
      Hashtbl.filter_map_inplace
        (fun g () ->
          let txn = Txn_id.of_path [ g ] in
          match Shard_service.result sh.svc g with
          | Shard_router.Pending -> Some ()
          | Shard_router.Committed _ ->
              complete srv txn `Committed None;
              None
          | Shard_router.Aborted veto ->
              complete srv txn `Aborted veto;
              None)
        sh.open_set;
      if quiet then `Quiescent else `Waiting

(* ----- requests ----- *)

let handle_request srv conn (req : Wire.request) =
  Metrics.incr (Metrics.counter srv.metrics "served.requests");
  match req with
  | Wire.Hello { client } ->
      conn.greeted <- true;
      conn.client_name <- client;
      send conn
        (Wire.Welcome
           {
             server = "ntserved";
             version = Version.string;
             backend = Check.backend_name srv.backend;
             objects =
               List.map
                 (fun (x, dt) -> (Obj_id.name x, Program_io.dtype_decl dt))
                 srv.objects;
             status = srv.status;
             shards =
               (match srv.arm with
               | Single _ -> 1
               | Sharded sh -> Shard_service.shards sh.svc);
           })
  | Wire.Submit { req; _ } when not conn.greeted ->
      send conn (Wire.Rejected { why = "say hello first"; req })
  | Wire.Submit { req; _ } when srv.draining ->
      send conn (Wire.Rejected { why = "server is draining"; req })
  | Wire.Submit { req; _ }
    when (match srv.status with Wire.Recovering _ -> true | _ -> false) ->
      send conn (Wire.Rejected { why = "server is recovering"; req })
  | Wire.Submit { program; req } -> (
      let t_v0 = mono srv in
      srv.gc_ctx <- (req, None, conn.id);
      match validate srv program with
      | Error why -> send conn (Wire.Rejected { why; req })
      | Ok prog -> (
          let t_v1 = mono srv in
          record_stage srv ~stage:"validate" ~req ~txn:None ~conn_id:conn.id
            t_v0 t_v1;
          match admit srv prog with
          | Error why -> send conn (Wire.Rejected { why; req })
          | Ok txn ->
              let t_a1 = mono srv in
              (match srv.arm with
              | Single s ->
                  wal_event s
                    (Wal.Submit
                       {
                         req;
                         client = conn.client_name;
                         program = Program_io.program_to_string prog;
                       })
              | Sharded _ -> ());
              let txn_s = Some (Txn_id.to_string txn) in
              record_stage srv ~stage:"admit" ~req ~txn:txn_s ~conn_id:conn.id
                t_v1 t_a1;
              conn.live <- txn :: conn.live;
              Txn_id.Tbl.replace srv.txns txn
                { req; client = conn.client_name; t_submit = t_a1;
                  conn_id = conn.id };
              Metrics.incr (Metrics.counter srv.metrics "served.submissions");
              send_reply srv conn ~req ~txn:txn_s (Wire.Accepted { txn; req })))
  | Wire.Status t ->
      send conn
        (Wire.State { txn = t; state = wire_state srv t; req = req_of srv t })
  | Wire.Metrics -> send conn (Wire.Metrics_dump (Metrics.to_json srv.metrics))
  | Wire.Subscribe ->
      conn.subscribed <- true;
      Metrics.incr (Metrics.counter srv.metrics "served.subscribes");
      (* One frame right away (the open interval), then one per tick. *)
      send conn (Wire.Telemetry (build_frame srv ~cut:false))
  | Wire.Ping ->
      let live, doomed =
        match srv.arm with
        | Single s -> (Engine.live_top s.eng, Engine.doomed_count s.eng)
        | Sharded sh ->
            ( Shard_service.pending sh.svc,
              shard_sum (fun st -> st.Shard_engine.sh_doomed) sh )
      in
      send conn
        (Wire.Pong
           {
             t_mono = mono srv;
             live;
             doomed;
             conns = Hashtbl.length srv.conns;
             status = srv.status;
           })
  | Wire.Dump -> (
      match do_dump srv ~force:true "request" with
      | Some (spans, dropped, jsonl, chrome) ->
          send conn (Wire.Dumped { spans; dropped; jsonl; chrome })
      | None -> send conn (Wire.Error_msg "flight recorder disabled"))
  | Wire.Quiesce -> conn.wants_quiesce <- true
  | Wire.Shutdown ->
      srv.draining <- true;
      send conn Wire.Goodbye;
      conn.closing <- true

let pump_frames srv conn =
  let rec go () =
    if not conn.closing then
      match Wire.Reader.next conn.reader with
      | Ok None ->
          (* no complete frame buffered: the next bytes start a frame *)
          if Wire.Reader.buffered conn.reader = 0 then conn.rx_start <- None
      | Ok (Some payload) ->
          let t_r1 = mono srv in
          let t_r0 = Option.value ~default:t_r1 conn.rx_start in
          conn.rx_start <-
            (if Wire.Reader.buffered conn.reader > 0 then Some t_r1 else None);
          (match Wire.decode_request payload with
          | Ok req ->
              let t_d1 = mono srv in
              (* Read (frame assembly) and decode spans carry the
                 request id when the frame was a submission — the link
                 that chains them to the later stages. *)
              let rid =
                match req with Wire.Submit { req; _ } -> req | _ -> None
              in
              record_stage srv ~stage:"read" ~req:rid ~txn:None
                ~conn_id:conn.id t_r0 t_r1;
              record_stage srv ~stage:"decode" ~req:rid ~txn:None
                ~conn_id:conn.id t_r1 t_d1;
              handle_request srv conn req
          | Error e ->
              send conn (Wire.Error_msg e);
              flag_dump srv "reader-error";
              conn.closing <- true);
          go ()
      | Error e ->
          send conn (Wire.Error_msg e);
          flag_dump srv "reader-error";
          conn.closing <- true
  in
  go ()

(* ----- the select loop ----- *)

let terminate = ref false
let dump_signal = ref false  (* SIGQUIT: dump the flight recorder *)
let next_conn_id = ref 0

(* Prometheus text export: write-then-rename so scrapers never see a
   torn file. *)
let export_prom srv =
  match srv.prom with
  | None -> ()
  | Some path ->
      let tmp = path ^ ".tmp" in
      let oc = open_out tmp in
      let fmt = Format.formatter_of_out_channel oc in
      Metrics.pp_prometheus fmt srv.metrics;
      Format.pp_print_flush fmt ();
      close_out oc;
      Sys.rename tmp path

let run_server listen_fd srv ~read_timeout =
  let buf = Bytes.create 8192 in
  let status = ref `Progress in
  let continue = ref true in
  let last_frame = ref (mono srv) in
  while !continue do
    if !terminate then srv.draining <- true;
    let conn_fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) srv.conns [] in
    let rfds =
      (match srv.arm with Single _ -> [] | Sharded sh -> [ sh.notify_r ])
      @ (if srv.draining then [] else [ listen_fd ])
      @ List.filter
          (fun fd -> not (Hashtbl.find srv.conns fd).closing)
          conn_fds
    in
    let wfds =
      List.filter
        (fun fd ->
          let c = Hashtbl.find srv.conns fd in
          String.length c.out > c.out_off)
        conn_fds
    in
    (* Spin while the in-loop engine has work; otherwise sleep until a
       socket (or, sharded, a worker's self-pipe poke) wakes us. *)
    let timeout = if !status = `Progress then 0.0 else 0.05 in
    let r, w, _ =
      try Unix.select rfds wfds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* accepts *)
    if List.mem listen_fd r then begin
      match Unix.accept listen_fd with
      | fd, _ ->
          Unix.set_nonblock fd;
          incr next_conn_id;
          Hashtbl.replace srv.conns fd
            {
              fd;
              id = !next_conn_id;
              reader = Wire.Reader.create ();
              out = "";
              out_off = 0;
              sent = 0;
              greeted = false;
              client_name = "?";
              subscribed = false;
              live = [];
              wants_quiesce = false;
              closing = false;
              last_rx = Unix.gettimeofday ();
              rx_start = None;
              replies = [];
            };
          Metrics.incr (Metrics.counter srv.metrics "served.accepts")
      | exception Unix.Unix_error _ -> ()
    end;
    (* reads *)
    List.iter
      (fun fd ->
        match Hashtbl.find_opt srv.conns fd with
        | None -> ()
        | Some conn -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 -> close_conn srv conn
            | n ->
                conn.last_rx <- Unix.gettimeofday ();
                if conn.rx_start = None then conn.rx_start <- Some (mono srv);
                Wire.Reader.feed conn.reader (Bytes.sub_string buf 0 n);
                pump_frames srv conn
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
            | exception Unix.Unix_error _ -> close_conn srv conn))
      r;
    status := engine_turn srv buf;
    if !status = `Truncated then begin
      if srv.verbose then Format.eprintf "ntserved: step budget exhausted@.";
      srv.draining <- true
    end;
    (* telemetry tick: close the window, push a frame to every
       subscriber, refresh the prometheus export *)
    if srv.telemetry_interval > 0.0 then begin
      let now = mono srv in
      if now -. !last_frame >= srv.telemetry_interval then begin
        last_frame := now;
        let frame = build_frame srv ~cut:true in
        Hashtbl.iter
          (fun _ c ->
            if c.subscribed && not c.closing then
              send c (Wire.Telemetry frame))
          srv.conns;
        export_prom srv
      end
    end;
    (* quiesce waiters are answered only when truly idle — sharded,
       once every submission, local or cross-shard, has reported *)
    if !status = `Quiescent then
      Hashtbl.iter
        (fun _ conn ->
          if conn.wants_quiesce then begin
            conn.wants_quiesce <- false;
            send conn (quiesced_response srv)
          end)
        srv.conns;
    (* writes *)
    List.iter
      (fun fd ->
        match Hashtbl.find_opt srv.conns fd with
        | None -> ()
        | Some conn -> (
            let pending = String.length conn.out - conn.out_off in
            if pending > 0 then
              match Unix.write_substring fd conn.out conn.out_off pending with
              | n ->
                  conn.out_off <- conn.out_off + n;
                  (* close reply spans whose last byte just flushed *)
                  if conn.replies <> [] then begin
                    let flushed = conn.sent + conn.out_off in
                    let matured, waiting =
                      List.partition
                        (fun (_, _, _, eoff) -> eoff <= flushed)
                        conn.replies
                    in
                    if matured <> [] then begin
                      conn.replies <- waiting;
                      let now = mono srv in
                      List.iter
                        (fun (req, txn, t0, _) ->
                          record_stage srv ~stage:"reply" ~req ~txn
                            ~conn_id:conn.id t0 now)
                        matured
                    end
                  end;
                  if conn.out_off >= String.length conn.out then begin
                    conn.sent <- conn.sent + String.length conn.out;
                    conn.out <- "";
                    conn.out_off <- 0;
                    if conn.closing then close_conn srv conn
                  end
              | exception
                  Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                  ()
              | exception Unix.Unix_error _ -> close_conn srv conn))
      w;
    (* GC pauses completed since the last turn become spans attributed
       to the most recently touched request context (exact when the
       pause fell inside that request's handling, approximate when it
       fell between requests — see doc/observability.mld). *)
    (match srv.gcmon with
    | None -> ()
    | Some g ->
        let now = mono srv in
        let pauses = Gcmon.poll g ~now in
        if pauses <> [] then begin
          let req, txn, cid = srv.gc_ctx in
          List.iter
            (fun (p : Gcmon.pause) ->
              let dur_us =
                int_of_float
                  (Float.max 0.0 ((p.Gcmon.gc_t1 -. p.Gcmon.gc_t0) *. 1e6)
                  +. 0.5)
              in
              Telemetry.Hub.observe_gc srv.hub ~dur_us;
              match srv.recorder with
              | Some rcd ->
                  Stage.Recorder.record rcd
                    {
                      Stage.sp_stage = Stage.gc_stage;
                      sp_req = req;
                      sp_txn = txn;
                      sp_conn = cid;
                      sp_t0 = p.Gcmon.gc_t0;
                      sp_t1 = p.Gcmon.gc_t1;
                    }
              | None -> ())
            pauses
        end);
    (* Anomaly dumps are deferred to the bottom of the turn and held
       while any Accepted answer is still unflushed, so the flagged
       request's reply span makes it into the ring first (bounded hold:
       a stuck peer cannot postpone evidence forever). *)
    (match srv.pending_dump with
    | None -> ()
    | Some reason ->
        let replies_waiting =
          Hashtbl.fold (fun _ c acc -> acc || c.replies <> []) srv.conns false
        in
        if (not replies_waiting) || srv.dump_hold >= 100 then begin
          srv.pending_dump <- None;
          srv.dump_hold <- 0;
          ignore (do_dump srv ~force:false reason)
        end
        else srv.dump_hold <- srv.dump_hold + 1);
    if !dump_signal then begin
      dump_signal := false;
      ignore (do_dump srv ~force:true "sigquit")
    end;
    (* read timeouts *)
    if read_timeout > 0.0 then begin
      let now = Unix.gettimeofday () in
      let stale =
        Hashtbl.fold
          (fun _ c acc ->
            if now -. c.last_rx > read_timeout && String.length c.out = c.out_off
            then c :: acc
            else acc)
          srv.conns []
      in
      List.iter (fun c -> close_conn srv c) stale
    end;
    (* drain exit: idle engine, nothing buffered *)
    if srv.draining && (!status = `Quiescent || !status = `Truncated) then begin
      let flushed =
        Hashtbl.fold
          (fun _ c acc -> acc && String.length c.out = c.out_off)
          srv.conns true
      in
      if flushed then begin
        Hashtbl.iter (fun _ c -> try Unix.close c.fd with _ -> ()) srv.conns;
        Hashtbl.reset srv.conns;
        continue := false
      end
    end
  done

(* ----- obs plumbing (mirrors ntsim) ----- *)

type obs_format = Obs_jsonl | Obs_chrome

let obs_format_conv =
  Arg.enum [ ("jsonl", Obs_jsonl); ("chrome", Obs_chrome) ]

(* Telemetry needs only a metrics-enabled recorder: the hub ranks hot
   objects off the [runtime.refused.*] counter deltas, so the default
   recorder emits no events at all and the wait path stays as cheap as
   an unobserved run.  [--obs-out] opts into the full event stream. *)
let setup_obs metrics obs_format obs_out =
  match (obs_format, obs_out) with
  | _, None -> (Obs.create ~metrics (), fun () -> ())
  | fmt, Some path ->
      let sink =
        match Option.value ~default:Obs_jsonl fmt with
        | Obs_jsonl -> Obs_sink.jsonl_file path
        | Obs_chrome -> Chrome_trace.sink_file path
      in
      let obs = Obs.create ~metrics ~sink () in
      (obs, fun () -> Obs.close obs)

(* The sharded variant: shard [s] writes PATH.shard<s>, each with its
   own registry — worker domains must not share one.  [Shard_service]
   calls [obs_for] on the serving thread before spawning, so the
   closer list needs no lock. *)
let setup_shard_obs obs_format obs_out =
  match obs_out with
  | None -> (None, fun () -> ())
  | Some path ->
      let closers = ref [] in
      let obs_for s =
        let sink =
          let spath = Printf.sprintf "%s.shard%d" path s in
          match Option.value ~default:Obs_jsonl obs_format with
          | Obs_jsonl -> Obs_sink.jsonl_file spath
          | Obs_chrome -> Chrome_trace.sink_file spath
        in
        let obs = Obs.create ~sink () in
        closers := obs :: !closers;
        obs
      in
      (Some obs_for, fun () -> List.iter Obs.close !closers)

(* ----- command line ----- *)

let make_listen socket port =
  match (socket, port) with
  | Some path, None ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      (fd, fun () -> try Unix.unlink path with Unix.Unix_error _ -> ())
  | None, Some p ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p));
      Unix.listen fd 64;
      (fd, fun () -> ())
  | _ ->
      Format.eprintf "ntserved: pass exactly one of --socket or --port@.";
      exit 2

let install_signals () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_term = Sys.Signal_handle (fun _ -> terminate := true) in
  Sys.set_signal Sys.sigterm on_term;
  Sys.set_signal Sys.sigint on_term;
  Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> dump_signal := true))

let refuse fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "ntserved: %s@." m;
      exit 2)
    fmt

(* The single engine: the backend's engine over the (for replication,
   physical) object table, with its completion hook tied to the server
   record through [post_complete]. *)
let single_arm ~policy ~max_steps ~admission ~seed ~burst ~t0 ~obs
    ~post_complete backend objects =
  let replicated = backend = Check.Replication in
  let engine_objects =
    if not replicated then objects
    else begin
      let plan =
        Replication.replicate Check.replication_config
          ~objects:(List.map fst objects) []
      in
      let schema = plan.Replication.physical_schema in
      List.map (fun x -> (x, schema.Schema.dtype_of x)) schema.Schema.objects
    end
  in
  let eng =
    Engine.create ~policy ~max_steps ~obs ~admission
      ~on_top_complete:(fun u o -> !post_complete u o)
      ~clock:(fun () -> Unix.gettimeofday () -. t0)
      ~seed engine_objects
      (Check.factory_of backend)
  in
  { eng; burst; replicated; logical_rev = []; wal = None; recovery = None }

let sharded_arm ~policy ~max_steps ~admission ~seed ~obs_for ~shards backend
    objects =
  let notify_r, notify_w = Unix.pipe () in
  Unix.set_nonblock notify_r;
  Unix.set_nonblock notify_w;
  let notify () =
    (* Worker-side wake-up; a full pipe already guarantees a wake. *)
    try ignore (Unix.write notify_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  let svc =
    Shard_service.start ~policy ~max_steps ~gating:admission ?obs_for ~notify
      ~shards ~seed objects
      (Check.factory_of backend)
  in
  { svc; notify_r; notify_w; open_set = Hashtbl.create 256 }

let serve_cmd socket port backend_name table n_objects seed policy admission
    max_steps burst read_timeout wal fsync_batch fsync_interval snapshot_every
    obs_format obs_out telemetry_interval audit_log prom slow_ms flight
    flight_dir gc_trace shards verbose =
  let backend =
    match Check.backend_of_name backend_name with
    | Some b when List.mem b Check.correct_backends -> b
    | Some _ -> refuse "broken backends are for ntcheck only"
    | None -> refuse "unknown backend %s" backend_name
  in
  if shards < 1 then refuse "--shards must be at least 1";
  (* The sharded service has no per-shard log yet (ROADMAP), and the
     replication transform re-derives the whole physical forest per
     submission — both are single-shard features; refuse loudly rather
     than silently degrade. *)
  if shards > 1 && wal <> None then
    refuse
      "--wal requires a single shard (per-shard logging is not \
       implemented; drop --shards or --wal)";
  if shards > 1 && backend = Check.Replication then
    refuse
      "the replication backend is single-shard only (its \
       logical-to-physical transform re-derives the whole forest per \
       submission)";
  (* The log records physically transformed programs, but the
     replication transform re-derives the whole physical forest from
     the logical one — replay would not rebuild that state.  Scope
     line, not a format limit. *)
  if wal <> None && backend = Check.Replication then
    refuse "--wal does not support the replication backend";
  let table = if Check.rw_only backend then T_rw else table in
  let objects = build_objects table n_objects in
  let metrics = Metrics.create () in
  let hub = Telemetry.Hub.create ~interval_s:telemetry_interval metrics in
  let t0 = Unix.gettimeofday () in
  (* The engine's completion hook needs the server record, which needs
     the engine; tie the knot through a cell. *)
  let post_complete = ref (fun _ _ -> ()) in
  let arm, finish_obs =
    if shards = 1 then
      let obs, finish_obs = setup_obs metrics obs_format obs_out in
      ( Single
          (single_arm ~policy ~max_steps ~admission ~seed ~burst ~t0 ~obs
             ~post_complete backend objects),
        finish_obs )
    else
      let obs_for, finish_obs = setup_shard_obs obs_format obs_out in
      ( Sharded
          (sharded_arm ~policy ~max_steps ~admission ~seed ~obs_for ~shards
             backend objects),
        finish_obs )
  in
  let audit = Option.map Telemetry.Audit.open_file audit_log in
  let recorder =
    if flight > 0 then Some (Stage.Recorder.create ~capacity:flight) else None
  in
  let gcmon = if gc_trace then Gcmon.start () else None in
  if gc_trace && gcmon = None && verbose then
    Format.eprintf "ntserved: runtime-events tracing unavailable@.";
  let srv =
    {
      arm;
      backend;
      objects;
      conns = Hashtbl.create 16;
      metrics;
      hub;
      audit;
      txns = Txn_id.Tbl.create 256;
      t0;
      telemetry_interval;
      slow_us = slow_ms * 1000;
      prom;
      draining = false;
      recorder;
      flight_dir;
      gcmon;
      verbose;
      gc_ctx = (None, None, -1);
      dump_seq = 0;
      last_dump = neg_infinity;
      pending_dump = None;
      dump_hold = 0;
      status = Wire.Fresh;
    }
  in
  (match (arm, wal) with
  | Single s, Some path ->
      post_complete := on_complete srv s;
      let meta =
        Wal.Meta
          {
            seed;
            backend = Check.backend_name backend;
            policy =
              (match policy with
              | Runtime.Random_step -> "random-step"
              | Runtime.Bsp_rounds -> "bsp-rounds");
            inform = "eager";  (* the engine's default inform policy *)
            abort_prob = 0.0;
            objects =
              List.map
                (fun (x, dt) -> (Obj_id.name x, Program_io.dtype_decl dt))
                objects;
          }
      in
      init_durability srv s ~path ~fsync_batch
        ~fsync_interval_s:(float_of_int fsync_interval /. 1000.)
        ~snapshot_every ~meta
  | Single s, None -> post_complete := on_complete srv s
  | Sharded _, _ -> ());
  let listen_fd, cleanup = make_listen socket port in
  install_signals ();
  if verbose then
    Format.printf "ntserved: %s backend, %d objects, %sadmission %s@."
      (Check.backend_name backend)
      (List.length objects)
      (if shards > 1 then Printf.sprintf "%d shards, " shards else "")
      (if admission then "on" else "off");
  run_server listen_fd srv ~read_timeout;
  (match arm with
  | Single s -> wal_shutdown s
  | Sharded sh ->
      Shard_service.stop sh.svc;
      (try Unix.close sh.notify_r with Unix.Unix_error _ -> ());
      (try Unix.close sh.notify_w with Unix.Unix_error _ -> ()));
  Unix.close listen_fd;
  cleanup ();
  Option.iter Gcmon.stop gcmon;
  let report =
    match arm with
    | Single s ->
        let r = Engine.finish s.eng in
        fun () ->
          Format.printf
            "ntserved: served %d submissions: %d committed, %d aborted (%d \
             vetoed, %d orphaned), %d monitor alarms@."
            (Engine.submitted s.eng) r.Runtime.committed_top
            r.Runtime.aborted_top (Engine.vetoed s.eng)
            (Engine.orphan_aborts s.eng) (actionable_alarms srv)
    | Sharded sh ->
        let r, _forest, _schema = Shard_service.finish sh.svc in
        fun () ->
          let rt = Shard_service.router sh.svc in
          Format.printf
            "ntserved: served %d submissions over %d shards (%d \
             cross-shard): %d committed, %d aborted (%d vetoed), %d monitor \
             alarms@."
            (Shard_router.submitted rt) shards (Shard_router.cross_count rt)
            r.Runtime.committed_top r.Runtime.aborted_top
            (shard_sum (fun st -> st.Shard_engine.sh_vetoed) sh)
            (actionable_alarms srv);
          if verbose then
            Array.iteri
              (fun i (st : Shard_engine.stats) ->
                Format.printf
                  "  shard %d: %d pieces, %d committed, %d aborted, %d \
                   vetoed, %d steps@."
                  i st.sh_submitted st.sh_committed st.sh_aborted st.sh_vetoed
                  st.sh_steps)
              (shard_stats sh)
  in
  finish_obs ();
  export_prom srv;
  Option.iter Telemetry.Audit.close audit;
  report ();
  if actionable_alarms srv > 0 then exit 1

let cmd =
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let port =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Listen on loopback TCP.")
  in
  let backend =
    Arg.(
      value & opt string "undo"
      & info [ "backend" ] ~docv:"NAME"
          ~doc:"Concurrency control: moss, commlock, undo, mvts, replication.")
  in
  let table =
    Arg.(
      value & opt table_conv T_mixed
      & info [ "types" ] ~doc:"Object table flavor (rw or mixed).")
  in
  let n_objects =
    Arg.(value & opt int 4 & info [ "objects" ] ~docv:"N" ~doc:"Object count.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N") in
  let policy =
    Arg.(
      value
      & opt (enum [ ("random", Runtime.Random_step); ("bsp", Runtime.Bsp_rounds) ])
          Runtime.Random_step
      & info [ "policy" ])
  in
  let admission =
    Arg.(
      value & flag
      & info [ "no-admission" ]
          ~doc:"Disable the commit gate (the monitor still runs).")
    |> Term.app (Term.const not)
  in
  let max_steps =
    Arg.(value & opt int 100_000_000 & info [ "max-steps" ] ~docv:"N")
  in
  let burst =
    Arg.(
      value & opt int 256
      & info [ "burst" ] ~docv:"N"
          ~doc:"Max engine steps per select-loop turn.")
  in
  let read_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "read-timeout" ] ~docv:"SECONDS"
          ~doc:"Drop connections idle this long (0 disables).")
  in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"PATH"
          ~doc:
            "Write-ahead log: every accepted submission, orphan kill \
             and engine-step run is logged before acknowledgement, and \
             on restart the log (plus PATH.snap, when snapshots are \
             on) is replayed to rebuild the exact pre-crash engine, \
             monitor and admission state.")
  in
  let fsync_batch =
    Arg.(
      value & opt int 1
      & info [ "fsync-batch" ] ~docv:"N"
          ~doc:
            "Group commit: fsync once per N appended records (1 = \
             every record, the unbatched baseline; 0 = never by count, \
             rely on --fsync-interval and shutdown).")
  in
  let fsync_interval =
    Arg.(
      value & opt int 0
      & info [ "fsync-interval" ] ~docv:"MS"
          ~doc:
            "Also fsync when dirty records are this old, milliseconds \
             (0 disables the timer).")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:
            "Write a snapshot and rotate the log every N appended \
             records (0 disables snapshots).")
  in
  let obs_format =
    Arg.(value & opt (some obs_format_conv) None & info [ "obs-format" ])
  in
  let obs_out =
    Arg.(value & opt (some string) None & info [ "obs-out" ] ~docv:"FILE")
  in
  let telemetry_interval =
    Arg.(
      value & opt float 1.0
      & info [ "telemetry-interval" ] ~docv:"SECONDS"
          ~doc:
            "Window-rotation and Telemetry-push period (0 disables \
             periodic frames; Subscribe still answers immediately).")
  in
  let audit_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSON line per admission veto (with the cycle \
             witness chain) and per slow request.")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Rewrite FILE atomically with the Prometheus text rendering \
             of the metrics registry at every telemetry interval.")
  in
  let slow_ms =
    Arg.(
      value & opt int 250
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Audit-log submissions slower than this, milliseconds.")
  in
  let flight =
    Arg.(
      value & opt int 4096
      & info [ "flight" ] ~docv:"SPANS"
          ~doc:
            "Flight-recorder capacity: the last SPANS stage spans are \
             kept in a ring and dumped on anomalies (veto, slow \
             request, reader poisoning), on SIGQUIT, and on the Dump \
             wire request.  0 disables the recorder.")
  in
  let flight_dir =
    Arg.(
      value & opt string "."
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:"Where flight dumps (JSONL + Chrome trace) are written.")
  in
  let gc_trace =
    Arg.(
      value & flag
      & info [ "no-gc-trace" ]
          ~doc:
            "Disable GC-pause attribution (runtime-events subscription \
             on OCaml 5, collection-count fallback otherwise).")
    |> Term.app (Term.const not)
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Serve from N shard engines, one per domain (OCaml 5; system \
             threads on 4.x), with cross-shard commits gated by the \
             spine.  N=1 steps the one engine inside the select loop; \
             N>1 keeps the flight recorder, audit log and telemetry \
             (minus the engine-clock execute and gate stages) but \
             refuses --wal and the replication backend.")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ]) in
  let term =
    Term.(
      const serve_cmd $ socket $ port $ backend $ table $ n_objects $ seed
      $ policy $ admission $ max_steps $ burst $ read_timeout $ wal
      $ fsync_batch $ fsync_interval $ snapshot_every $ obs_format $ obs_out
      $ telemetry_interval $ audit_log $ prom $ slow_ms $ flight $ flight_dir
      $ gc_trace $ shards $ verbose)
  in
  Cmd.v
    (Cmd.info "ntserved" ~version:Version.string
       ~doc:
         "Serve nested transactions over a socket with online \
          serialization-graph admission control.")
    term

let () = exit (Cmd.eval cmd)
