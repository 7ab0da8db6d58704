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

   One select loop interleaves accepts, reads, writes and engine work,
   and serves one model at every shard count: a [Shard_cluster], whose
   router plans each submission and answers Status.  At one shard the
   loop drains the cluster inline, so served executions are sequential
   interleavings — exactly the generic-system behaviors the paper's
   theorems cover — and the write-ahead log drives it.  With
   --shards N > 1 [Shard_service] workers step it on their own
   domains and the loop collects completions from the router;
   everything between the socket and the cluster (stage spans, flight
   recorder, audit log, telemetry) is the same code. *)

open Core
open Cmdliner

let refuse fmt =
  Format.kasprintf
    (fun m ->
      Format.eprintf "ntserved: %s@." m;
      exit 2)
    fmt

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

(* The log's file side: the fd the current generation appends to
   (swapped at rotation — the sink reads it through the ref) and a
   writer factory over it.  What is logged, when, and what recovery may
   trust is [Durable] / [Wal.Recovery.plan]. *)
type wal_file = {
  wal_path : string;
  snapshot_every : int;  (* appended records per snapshot; 0 = never *)
  wal_fd : Unix.file_descr ref;
  mk_writer : fresh:bool -> base_seq:int -> Wal.Writer.t;
  mutable rotated : int * int;  (* records and syncs of rotated-out writers *)
}

(* A recovery in flight: the plan replays in bounded chunks between
   select turns so Ping stays responsive; [resume] opens the logging
   session once it has been replayed and validated. *)
type recovery = {
  progress : Durable.progress;
  torn : bool;  (* the log had a damaged tail (now truncated) *)
  resume : unit -> Durable.Session.t;
}

(* ----- the server ----- *)

(* The cluster is the one model: drained inline at one shard, where the
   log (a one-shard feature) drives it; stepped by workers that poke the
   self-pipe above one shard.  Its router answers Status at every shard
   count.  Merged submission [g] is [T0.g] on the wire. *)
type server = {
  cl : Shard_cluster.t;
  workers : Shard_service.t option;  (* above one shard *)
  burst : int;  (* max engine steps per loop turn, inline *)
  notify_r : Unix.file_descr;  (* self-pipe: workers wake the select *)
  notify_w : Unix.file_descr;
  open_set : (int, unit) Hashtbl.t;  (* submitted, completion not seen *)
  mutable wal : wal_file option;
  mutable session : Durable.Session.t option;  (* logging; None while recovering *)
  mutable recovery : recovery option;
  backend : Check.backend;
  objects : (Obj_id.t * Datatype.t) list;  (* logical (advertised) table *)
  replicated : bool;
  mutable logical_rev : Program.t list;  (* replication: forest so far *)
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
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let write_file_sync path s =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  write_all fd s;
  Unix.fsync fd;
  Unix.close fd

(* A rename or a file creation survives power loss only once the
   directory holding the name is synced. *)
let fsync_dir path =
  let fd = Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* Records appended and syncs made by every writer of this process. *)
let wal_counts wf ss =
  let w = Durable.Session.writer ss and r, s = wf.rotated in
  (r + Wal.Writer.appended w, s + Wal.Writer.syncs w)

(* Snapshot, then rotate the log.  The snapshot is written whole to a
   temp file and renamed into place; the log then restarts as a fresh
   generation whose [base_seq] is the snapshot's cover point.  Every
   crash window is safe: before the snapshot rename the old snapshot
   and full log recover; between the two renames the new snapshot plus
   the old log's tail (records with seq >= the cover point) recover;
   after both, the new snapshot plus the new, nearly empty generation.
   Each rename is synced before the next: a rotated log next to the old
   snapshot, after power loss, is a pair recovery refuses. *)
let take_snapshot srv wf ss =
  let image = Durable.Session.snapshot ss in
  let next_seq = Wal.Writer.next_seq (Durable.Session.writer ss) in
  let tmp = wf.wal_path ^ ".snap.tmp" in
  write_file_sync tmp image;
  Sys.rename tmp (wf.wal_path ^ ".snap");
  fsync_dir wf.wal_path;
  let rot = wf.wal_path ^ ".rot" in
  let fd' =
    Unix.openfile rot [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let old_fd = !(wf.wal_fd) in
  wf.wal_fd := fd';
  wf.rotated <- wal_counts wf ss;
  Durable.Session.rotate ss (wf.mk_writer ~fresh:true ~base_seq:next_seq);
  Sys.rename rot wf.wal_path;
  fsync_dir wf.wal_path;
  Unix.close old_fd;
  Metrics.incr (Metrics.counter srv.metrics "served.wal.snapshots");
  if srv.verbose then
    Format.eprintf "ntserved: snapshot at seq %d (%d replay events)@." next_seq
      (Durable.Session.closure_length ss)

let wal_turn srv =
  match (srv.wal, srv.session) with
  | Some wf, Some ss ->
      Durable.Session.cut ss;
      Wal.Writer.tick (Durable.Session.writer ss);
      if Durable.Session.due ss ~every:wf.snapshot_every then
        take_snapshot srv wf ss
  | _ -> ()

(* ----- recovery ----- *)

let recovery_turn srv rc =
  let t0 = mono srv in
  let before = Durable.replayed rc.progress in
  let turn = Durable.turn ~burst:srv.burst srv.cl rc.progress in
  let replayed = Durable.replayed rc.progress in
  Metrics.incr ~by:(replayed - before)
    (Metrics.counter srv.metrics "served.wal.replayed");
  record_stage srv ~stage:Stage.wal_replay_stage ~req:None ~txn:None ~conn_id:(-1) t0
    (mono srv);
  match turn with
  | Error e -> refuse "recovery failed: %s" e
  | Ok `More ->
      srv.status <-
        Wire.Recovering { replayed; total = Durable.total rc.progress }
  | Ok `Done ->
      (* Serving resumes here, logging from the replayed position. *)
      srv.recovery <- None;
      srv.session <- Some (rc.resume ());
      srv.status <- Wire.Recovered { replayed; torn = rc.torn };
      if srv.verbose then
        Format.eprintf "ntserved: recovered %d events%s@." replayed
          (if rc.torn then " (torn tail truncated)" else "")

(* Open (or create) the log at [path] and plan the recovery of whatever
   it and its snapshot hold.  The replay runs in bounded chunks inside
   the select loop (see [recovery_turn]), with submissions rejected
   until it completes; only then is the damaged tail, if any, truncated
   and the writer installed. *)
let init_durability srv ~path ~fsync_batch ~fsync_interval_s ~snapshot_every
    ~meta =
  let snap_path = path ^ ".snap" in
  let file = function `Log -> path | `Snapshot -> snap_path in
  let plan =
    match
      Wal.Recovery.plan ~meta
        ~log:(Option.value ~default:"" (read_whole path))
        ~snapshot:(read_whole snap_path)
    with
    | Ok plan -> plan
    | Error { Wal.Recovery.culprit; why } -> refuse "%s: %s" (file culprit) why
  in
  (match plan.Wal.Recovery.tail with
  | Wal.Torn { why; _ } ->
      Format.eprintf "ntserved: %s: torn tail (%s); truncating to %d bytes@."
        path why plan.Wal.Recovery.valid
  | Wal.Clean -> ());
  List.iter
    (fun { Wal.Recovery.culprit; why } ->
      Format.eprintf "ntserved: %s: %s@." (file culprit) why)
    plan.Wal.Recovery.notes;
  let fd = ref (Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644) in
  fsync_dir path;
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
  (* The log is cut back (or restarted) only once the replay has been
     validated: until then a crash or a refusal leaves it as found. *)
  let resume () =
    let valid = plan.Wal.Recovery.valid in
    Unix.ftruncate !fd valid;
    ignore (Unix.lseek !fd 0 Unix.SEEK_END);
    Durable.Session.create ~plan ~meta srv.cl
      (mk_writer ~fresh:(valid = 0) ~base_seq:plan.Wal.Recovery.base_seq)
  in
  srv.wal <-
    Some
      { wal_path = path; snapshot_every; wal_fd = fd; mk_writer; rotated = (0, 0) };
  if plan.Wal.Recovery.empty then begin
    srv.session <- Some (resume ());
    srv.status <- Wire.Fresh
  end
  else begin
    srv.recovery <-
      Some
        {
          progress = Durable.start plan;
          torn = plan.Wal.Recovery.tail <> Wal.Clean;
          resume;
        };
    srv.status <-
      Wire.Recovering { replayed = 0; total = plan.Wal.Recovery.total }
  end

let wal_shutdown srv =
  Option.iter Durable.Session.flush srv.session;
  Option.iter
    (fun wf -> try Unix.close !(wf.wal_fd) with Unix.Unix_error _ -> ())
    srv.wal

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

(* ----- the cluster ----- *)

(* A disconnected client's incomplete submissions are orphans.  Kills,
   like submissions, go to the workers, else the log, else the cluster. *)
let close_conn srv conn =
  Hashtbl.remove srv.conns conn.fd;
  List.iter
    (fun t ->
      match (Txn_id.path t, srv.workers, srv.session) with
      | [ g ], Some w, _ -> Shard_service.kill w g
      | [ g ], None, Some ss -> ignore (Durable.Session.kill ss g)
      | [ g ], None, None -> ignore (Shard_cluster.kill srv.cl g)
      | _ -> ())
    conn.live;
  (try Unix.close conn.fd with Unix.Unix_error _ -> ())

(* Replication serves logical registers: re-transform the grown logical
   forest (version assignment is prefix-stable, so already-submitted
   programs keep their physical form) and submit the new program's
   physical image. *)
let physical_of srv prog =
  srv.logical_rev <- prog :: srv.logical_rev;
  let forest = List.rev srv.logical_rev in
  match
    Replication.replicate Check.replication_config
      ~objects:(List.map fst srv.objects) forest
  with
  | plan -> (
      match List.rev plan.Replication.physical_forest with
      | p :: _ -> Ok p
      | [] -> Error "empty physical forest")
  | exception Invalid_argument e ->
      srv.logical_rev <- List.tl srv.logical_rev;
      Error e

(* The validate stage: parse, plus the replication transform. *)
let validate srv program =
  match Program_io.parse_program_text program with
  | Ok prog when srv.replicated -> physical_of srv prog
  | parsed -> parsed

(* The admit stage: hand the program to the cluster, logging it before
   it is acknowledged when the log is on. *)
let admit srv ~req ~client prog =
  Result.map
    (fun g ->
      Hashtbl.replace srv.open_set g ();
      Txn_id.of_path [ g ])
    (match (srv.workers, srv.session) with
    | Some w, _ -> Shard_service.submit w prog
    | None, Some ss -> Durable.Session.submit ss ?req ~client prog
    | None, None -> Shard_cluster.submit srv.cl prog)

(* Merged ids are dense: anything at or past [submitted] was never
   issued, and is as unknown as a name of the wrong shape. *)
let wire_state srv t : Wire.txn_state =
  match Txn_id.path t with
  | [ g ] when g >= 0 && g < Shard_router.submitted (Shard_cluster.router srv.cl)
    -> (
      match Shard_cluster.result srv.cl g with
      | Shard_router.Pending -> Wire.Running
      | Shard_router.Committed v -> Wire.Committed (Value.to_string v)
      | Shard_router.Aborted None -> Wire.Aborted None
      | Shard_router.Aborted (Some veto) ->
          Wire.Aborted (Some veto.Admission.witness))
  | _ -> Wire.Pending

(* Per-shard engine counters: the inline engine's, or the snapshots the
   workers publish (their engines live on other domains). *)
let shard_stats srv =
  match srv.workers with
  | Some w -> Shard_service.stats w
  | None -> [| Shard_engine.snapshot (Shard_cluster.engine srv.cl 0) |]

let shard_sum f srv =
  Array.fold_left (fun acc st -> acc + f st) 0 (shard_stats srv)

(* A multiversion backend serializes by pseudotime; the completion-order
   monitor then flags its reads as inappropriate even when correct, so
   mvts is judged on cycle alarms alone. *)
let actionable_alarms srv =
  let mvts = srv.backend = Check.Mvts in
  shard_sum
    (fun st ->
      if mvts then st.Shard_engine.sh_cycle_alarms else st.Shard_engine.sh_alarms)
    srv

(* One shard reports no per-shard rows. *)
let shard_rows srv =
  if Shard_cluster.shards srv.cl = 1 then []
  else
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
         (shard_stats srv))

(* Engine counters for a frame, plus the per-shard rows. *)
let frame_counts srv =
  (Engine.sum_stats (Array.to_list (shard_stats srv)), shard_rows srv)

(* Client-visible totals: commits and aborts from the router (merged
   tops: a cross-shard program counts once, not once per piece);
   vetoes and alarms are engine-level, summed over shards. *)
let quiesced_response srv =
  let committed, aborted = Shard_router.counts (Shard_cluster.router srv.cl) in
  Wire.Quiesced
    {
      committed;
      aborted;
      vetoed = shard_sum (fun st -> st.Shard_engine.sh_vetoed) srv;
      alarms = actionable_alarms srv;
      per_shard = shard_rows srv;
    }

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

(* Every completed submission, with the router's result: feed the
   latency window, retire it from its client's kill list, audit vetoes
   and slow requests, and flag an anomaly dump. *)
let complete srv txn result =
  let veto = match result with Shard_router.Aborted v -> v | _ -> None in
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
                  match result with
                  | Shard_router.Committed _ -> "committed"
                  | _ -> "aborted"
                in
                Telemetry.Audit.slow audit ~now ~req:r.req ~client:r.client
                  ~txn ~latency_us ~outcome))

(* The completion hook of the inline engine: runs inside its step at
   every top-level Commit/Abort, while the admission record is fresh
   (and before the engine retires its stage_times entry). *)
let on_complete srv txn outcome =
  (* Audit the completion in the log.  During recovery there is no
     session: the replayed completions are already in the log. *)
  Option.iter (fun ss -> Durable.Session.note_outcome ss txn outcome) srv.session;
  let eng = Shard_engine.engine (Shard_cluster.engine srv.cl 0) in
  (* execute / gate stages off the engine's clock-stamped readings.
     Histograms get gate-exclusive execute time so stage sums do not
     double-count; the ring keeps the full execute interval with a gate
     span nested at its end, which the flight analyzer deduplicates by
     containment. *)
  (match (Txn_id.Tbl.find_opt srv.txns txn, Engine.stage_times eng txn) with
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
  (* completed at the instant it happened, not at the next scan *)
  match Txn_id.path txn with
  | [ g ] ->
      Hashtbl.remove srv.open_set g;
      complete srv txn (Shard_cluster.result srv.cl g)
  | _ -> ()

(* One turn of engine work: inline, a recovery chunk or a burst of
   steps; with workers, only their pokes ([`Waiting] while they hold
   submissions).  Then collect what the inline hook did not take. *)
let engine_turn srv buf =
  let status =
    match (srv.workers, srv.recovery) with
    | Some _, _ ->
        (try ignore (Unix.read srv.notify_r buf 0 (Bytes.length buf))
         with Unix.Unix_error _ -> ());
        (* read [pending] first: whatever it counted as done is visible
           to the scan below *)
        if Shard_router.pending (Shard_cluster.router srv.cl) = 0 then `Quiescent
        else `Waiting
    | None, Some rc ->
        (* while a recovery is in flight the cluster replays the log in
           bounded chunks instead of serving (submissions are
           rejected), so Ping and Status stay responsive *)
        recovery_turn srv rc;
        `Progress
    | None, None ->
        (Shard_cluster.drain ~burst:srv.burst srv.cl
          :> [ `Progress | `Quiescent | `Truncated | `Waiting ])
  in
  wal_turn srv;
  Hashtbl.filter_map_inplace
    (fun g () ->
      match Shard_cluster.result srv.cl g with
      | Shard_router.Pending -> Some ()
      | result ->
          complete srv (Txn_id.of_path [ g ]) result;
          None)
    srv.open_set;
  status

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
             shards = Shard_cluster.shards srv.cl;
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
          match admit srv ~req ~client:conn.client_name prog with
          | Error why -> send conn (Wire.Rejected { why; req })
          | Ok txn ->
              let t_a1 = mono srv in
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
      send conn
        (Wire.Pong
           {
             t_mono = mono srv;
             live = Shard_router.pending (Shard_cluster.router srv.cl);
             doomed = shard_sum (fun st -> st.Shard_engine.sh_doomed) srv;
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
      (srv.notify_r :: (if srv.draining then [] else [ listen_fd ]))
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
   an unobserved run.  [--obs-out] opts into the full event stream.
   Above one shard, shard [s] writes PATH.shard<s>, each with its own
   registry — worker domains must not share one.  [Shard_service]
   calls [obs_for] on the serving thread before spawning, so the closer
   list needs no lock. *)
let setup_obs ~shards metrics obs_format obs_out =
  let closers = ref [] in
  let metrics = if shards = 1 then Some metrics else None in
  let obs_for s =
    match obs_out with
    | None -> if shards = 1 then Obs.create ?metrics () else Obs.null
    | Some path ->
        let path =
          if shards = 1 then path else Printf.sprintf "%s.shard%d" path s
        in
        let sink =
          match Option.value ~default:Obs_jsonl obs_format with
          | Obs_jsonl -> Obs_sink.jsonl_file path
          | Obs_chrome -> Chrome_trace.sink_file path
        in
        let obs = Obs.create ?metrics ~sink () in
        closers := obs :: !closers;
        obs
  in
  (obs_for, fun () -> List.iter Obs.close !closers)

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
  | _ -> refuse "pass exactly one of --socket or --port"

let install_signals () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let on_term = Sys.Signal_handle (fun _ -> terminate := true) in
  Sys.set_signal Sys.sigterm on_term;
  Sys.set_signal Sys.sigint on_term;
  Sys.set_signal Sys.sigquit (Sys.Signal_handle (fun _ -> dump_signal := true))

(* The table the engines run: the replicas, for replication. *)
let physical_objects backend objects =
  if backend <> Check.Replication then objects
  else
    let plan =
      Replication.replicate Check.replication_config
        ~objects:(List.map fst objects) []
    in
    let schema = plan.Replication.physical_schema in
    List.map (fun x -> (x, schema.Schema.dtype_of x)) schema.Schema.objects

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
  (* The sharded service has no per-shard log yet (ROADMAP); refuse
     loudly rather than silently degrade. *)
  if shards > 1 && wal <> None then
    refuse
      "--wal requires a single shard (per-shard logging is not \
       implemented; drop --shards or --wal)";
  (* The log records physically transformed programs, but the
     replication transform re-derives the whole physical forest from
     the logical one — replay would not rebuild that state.  Scope
     line, not a format limit. *)
  if wal <> None && backend = Check.Replication then
    refuse "--wal does not support the replication backend";
  let table = if Check.rw_only backend then T_rw else table in
  let objects = build_objects table n_objects in
  (* Replicas are co-sharded by the default partition key, so a
     logical access's quorum subtree stays on one shard. *)
  let engine_objects = physical_objects backend objects in
  let metrics = Metrics.create () in
  let hub = Telemetry.Hub.create ~interval_s:telemetry_interval metrics in
  let t0 = Unix.gettimeofday () in
  let obs_for, finish_obs = setup_obs ~shards metrics obs_format obs_out in
  let notify_r, notify_w = Unix.pipe () in
  Unix.set_nonblock notify_r;
  Unix.set_nonblock notify_w;
  let notify () =
    (* Worker-side wake-up; a full pipe already guarantees a wake. *)
    try ignore (Unix.write notify_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()
  in
  (* The inline engine's completion hook needs the server record, which
     needs the cluster; tie the knot through a cell. *)
  let post_complete = ref (fun _ _ -> ()) in
  (* The clock and the completion hook reach the engine at one shard. *)
  let cl =
    Shard_cluster.create ~policy ~max_steps ~gating:admission ~obs_for
      ~clock:(fun () -> Unix.gettimeofday () -. t0)
      ~on_top_complete:(fun u o -> !post_complete u o)
      ~shards ~seed engine_objects (Check.factory_of backend)
  in
  let workers =
    if shards = 1 then None else Some (Shard_service.spawn ~notify cl)
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
      cl;
      workers;
      burst;
      notify_r;
      notify_w;
      open_set = Hashtbl.create 256;
      wal = None;
      session = None;
      recovery = None;
      backend;
      objects;
      replicated = backend = Check.Replication;
      logical_rev = [];
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
  post_complete := on_complete srv;
  Option.iter
    (fun path ->
      (* the engine runs its default inform policy and no faults *)
      init_durability srv ~path ~fsync_batch
        ~fsync_interval_s:(float_of_int fsync_interval /. 1000.)
        ~snapshot_every
        ~meta:
          (Wal.meta ~seed ~backend:(Check.backend_name backend) ~policy
             ~inform_policy:Runtime.Eager ~abort_prob:0.0 objects))
    wal;
  let listen_fd, cleanup = make_listen socket port in
  install_signals ();
  if verbose then
    Format.printf "ntserved: %s backend, %d objects, %sadmission %s@."
      (Check.backend_name backend)
      (List.length objects)
      (if shards > 1 then Printf.sprintf "%d shards, " shards else "")
      (if admission then "on" else "off");
  run_server listen_fd srv ~read_timeout;
  wal_shutdown srv;
  Option.iter Shard_service.stop workers;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ notify_r; notify_w ];
  Unix.close listen_fd;
  cleanup ();
  Option.iter Gcmon.stop gcmon;
  let r, _forest, _schema = Shard_cluster.finish cl in
  finish_obs ();
  export_prom srv;
  Option.iter Telemetry.Audit.close audit;
  let rt = Shard_cluster.router cl in
  Format.printf
    "ntserved: served %d submissions%s: %d committed, %d aborted (%d \
     vetoed%s), %d monitor alarms@."
    (Shard_router.submitted rt)
    (if shards = 1 then ""
     else
       Printf.sprintf " over %d shards (%d cross-shard)" shards
         (Shard_router.cross_count rt))
    r.Runtime.committed_top r.Runtime.aborted_top
    (shard_sum (fun st -> st.Shard_engine.sh_vetoed) srv)
    (if shards > 1 then ""
     else
       Printf.sprintf ", %d orphaned"
         (shard_sum (fun st -> st.Shard_engine.sh_orphans) srv))
    (actionable_alarms srv);
  (match (srv.wal, srv.session) with
  | Some wf, Some ss ->
      let records, syncs = wal_counts wf ss in
      Format.printf "ntserved: wal %d records in %d syncs@." records syncs
  | _ -> ());
  if verbose && shards > 1 then
    Array.iteri
      (fun i (st : Shard_engine.stats) ->
        Format.printf
          "  shard %d: %d pieces, %d committed, %d aborted, %d vetoed, %d \
           steps@."
          i st.sh_submitted st.sh_committed st.sh_aborted st.sh_vetoed
          st.sh_steps)
      (shard_stats srv);
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
            "Group commit: fsync when a log call leaves N or more \
             appended records unsynced (1 = every log call: a \
             submission, a kill or a turn's cut, the unbatched \
             baseline; 0 = never by count, rely on --fsync-interval \
             and shutdown).  A call's records go out in one write.")
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
            "Serve from a cluster of N shard engines, with cross-shard \
             commits gated by the spine.  N=1 drains the one engine \
             inside the select loop; N>1 runs one engine per domain \
             (OCaml 5; system threads on 4.x) and keeps the flight \
             recorder, audit log and telemetry (minus the engine-clock \
             execute and gate stages) but refuses --wal.")
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
