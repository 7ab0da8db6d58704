(* ntload: a load generator for ntserved.

   Each simulated client connects, learns the servable objects from the
   Welcome response, and then loops: generate a random program over
   those objects, Submit it, poll Status until the transaction commits
   or aborts, record the latency, repeat.  By default the loop is
   closed (one outstanding transaction per client); --open-loop RATE
   switches to Poisson arrivals decoupled from completions, and
   --workload smallbank swaps the random programs for Zipf-contended
   multi-account transactions.  Fault injection:

     --drop-rate P    disconnect (without waiting) right after a
                      Submit with probability P — the server must
                      orphan-abort the transaction and stay serializable;
     --slow-clients N the first N clients dribble their frames a few
                      bytes per tick, exercising partial-frame reads.

   Every Submit carries a client request id ("c<client>-<n>") and the
   echoes are verified, so a captured exchange is attributable end to
   end.  --subscribe opens a telemetry side channel and cross-checks
   the server's windowed latency p99 against the client-side histogram
   (reported as a power-of-two bucket distance).

   Exits nonzero if the server's Quiesced report carries monitor
   alarms, or if any echoed request id mismatches.

   Example:
     ntload --socket /tmp/nt.sock --clients 8 --requests 50 --drop-rate 0.1 *)

open Core
open Cmdliner

(* ----- program generation from the advertised object table ----- *)

type workload = W_random | W_smallbank

let gen_program rng objects ~depth ~fanout =
  let leaf () =
    let x, dt = Rng.pick_list rng objects in
    Program.access x (dt.Datatype.sample_ops rng)
  in
  let rec node d =
    if d = 0 then leaf ()
    else
      let n = 1 + Rng.int rng fanout in
      let comb = if Rng.bool rng then Program.Seq else Program.Par in
      Program.Node
        ( comb,
          List.init n (fun _ -> if Rng.int rng 3 = 0 then leaf () else node (d - 1))
        )
  in
  node depth

(* ----- client state machines ----- *)

type phase =
  | Greeting  (* Hello sent, Welcome pending *)
  | Idle  (* submitting as arrivals fall due, polling what is in flight *)
  | Dropping  (* Submit sent; close as soon as it flushes *)
  | Done

type client = {
  id : int;
  rng : Rng.t;
  slow : bool;
  mutable fd : Unix.file_descr option;
  mutable reader : Wire.Reader.t;
  mutable out : string;
  mutable out_off : int;
  mutable phase : phase;
  mutable remaining : int;
  mutable reqno : int;  (* request-id sequence: "c<id>-<reqno>" *)
  (* in-flight submissions, oldest first (rid, latency origin, txn once
     Accepted), and the next scheduled arrival; the closed loop keeps at
     most one outstanding and its next arrival is due once that settles *)
  mutable outstanding : (string * float * Txn_id.t option) list;
  mutable next_arrival : float;
}

type stats = {
  mutable submitted : int;
  mutable committed : int;
  mutable aborted : int;
  mutable vetoed_seen : int;
  mutable rejected : int;
  mutable dropped : int;
  mutable proto_errors : int;
  mutable req_mismatches : int;  (* echoed request id <> the one sent *)
}

(* ----- the telemetry side channel (--subscribe) ----- *)

type sub = {
  s_conn : Wire_client.conn;  (* nonblocking once subscribed *)
  mutable s_frames : Wire.telemetry list;  (* newest first *)
  mutable s_alive : bool;
}

let sub_last_seq s =
  match s.s_frames with [] -> 0 | f :: _ -> f.Wire.seq

(* Merge the windowed histograms that [hists] picks out of each pushed
   (cut) frame, by name in first-seen order (the server's canonical
   order for stages).  The first frame a subscriber receives is the
   immediate peek of the open interval; its counts reappear in the next
   cut, so skip it.  Returns (name, buckets, count, max) for every name
   with samples. *)
let sub_merged s hists =
  let cuts =
    match List.rev s.s_frames with _ :: rest -> rest | [] -> []
  in
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (f : Wire.telemetry) ->
      List.iter
        (fun (name, (h : Wire.hist)) ->
          if h.Wire.h_count > 0 then begin
            let buckets, count, maxv =
              match Hashtbl.find_opt tbl name with
              | Some x -> x
              | None ->
                  let x = (Array.make 64 0, ref 0, ref 0) in
                  Hashtbl.add tbl name x;
                  order := name :: !order;
                  x
            in
            count := !count + h.Wire.h_count;
            if h.Wire.h_max > !maxv then maxv := h.Wire.h_max;
            List.iter
              (fun (i, n) ->
                if i >= 0 && i < 64 then buckets.(i) <- buckets.(i) + n)
              h.Wire.h_buckets
          end)
        (hists f))
    cuts;
  List.rev_map
    (fun name ->
      let buckets, count, maxv = Hashtbl.find tbl name in
      (name, buckets, !count, !maxv))
    !order

let send c req = c.out <- c.out ^ Wire.encode_request req

(* A blocking Hello/Ping exchange before the campaign: a dead, deaf,
   or pre-v3 server fails fast here instead of as a timeout storm
   once all the load connections are up. *)
let ping_server addr =
  let c = Wire_client.dial addr in
  let rec pong = function
    | Wire.Pong _ -> ()
    | Wire.Error_msg e -> failwith e
    | Wire.Goodbye -> failwith "server said goodbye"
    | _ -> pong (Wire_client.recv c)
  in
  let fail why =
    Format.eprintf "ntload: ping failed: %s@." why;
    exit 1
  in
  (try
     Wire_client.send c (Wire.Hello { client = "ntload-ping" });
     pong (Wire_client.call c Wire.Ping)
   with
  | Failure e -> fail e
  | Wire_client.Closed -> fail "connection closed"
  | Unix.Unix_error (e, _, _) -> fail (Unix.error_message e));
  Wire_client.close c

let open_client addr c =
  let fd = Wire_client.connect addr in
  Unix.set_nonblock fd;
  c.fd <- Some fd;
  c.reader <- Wire.Reader.create ();
  c.out <- "";
  c.out_off <- 0;
  c.phase <- Greeting;
  send c (Wire.Hello { client = Printf.sprintf "ntload-%d" c.id })

let close_client c =
  (match c.fd with
  | Some fd -> ( try Unix.close fd with _ -> ())
  | None -> ());
  c.fd <- None

let run_load addr ~clients ~requests ~seed ~depth ~fanout ~drop_rate
    ~slow_clients ~shutdown ~subscribe ~json ~kill_after ~kill_pid ~workload
    ~open_rate =
  let master = Rng.create seed in
  let stats =
    {
      submitted = 0;
      committed = 0;
      aborted = 0;
      vetoed_seen = 0;
      rejected = 0;
      dropped = 0;
      proto_errors = 0;
      req_mismatches = 0;
    }
  in
  let metrics = Metrics.create () in
  let latency = Metrics.histogram metrics "ntload.latency_us" in
  let objects = ref [] in
  let cs =
    List.init clients (fun id ->
        {
          id;
          rng = Rng.split master;
          slow = id < slow_clients;
          fd = None;
          reader = Wire.Reader.create ();
          out = "";
          out_off = 0;
          phase = Done;
          remaining = requests;
          reqno = 0;
          outstanding = [];
          next_arrival = 0.0;
        })
  in
  ping_server addr;
  List.iter (open_client addr) cs;
  (* the telemetry side channel: a read-mostly observer alongside the
     load connections, so server windows can be cross-checked against
     the client-side histogram *)
  let sub =
    if not subscribe then None
    else begin
      let c = Wire_client.dial addr in
      Wire_client.send c (Wire.Hello { client = "ntload-sub" });
      Wire_client.send c Wire.Subscribe;
      Unix.set_nonblock c.Wire_client.fd;
      Some { s_conn = c; s_frames = []; s_alive = true }
    end
  in
  let t_start = Unix.gettimeofday () in
  (* --workload smallbank runs over the advertised registers only; the
     table is fixed after the first Welcome, so force lazily. *)
  let sb_accounts =
    lazy
      (let accts =
         List.filter
           (fun (_, dt) -> dt.Datatype.dt_name = "register")
           !objects
       in
       if List.length accts < 2 then begin
         Format.eprintf
           "ntload: --workload smallbank needs at least 2 register objects \
            (try ntserved --types rw)@.";
         exit 2
       end;
       Array.of_list (List.map fst accts))
  in
  let gen_txn c =
    match workload with
    | W_random -> gen_program c.rng !objects ~depth ~fanout
    | W_smallbank ->
        Gen.smallbank_txn ~theta:Gen.smallbank_profile.Gen.theta c.rng
          (Lazy.force sb_accounts)
  in
  let check_echo rid req =
    if req <> Some rid then stats.req_mismatches <- stats.req_mismatches + 1
  in
  (* --kill-after: crash injection.  After the Nth Accepted ack the
     target pid gets SIGKILL — no drain, no flush, exactly the torn
     state the recovery path must survive.  We stop immediately; the
     acknowledged prefix is what a subsequent `ntwal verify` checks. *)
  let acks = ref 0 in
  let killed = ref false in
  let maybe_kill () =
    match (kill_after, kill_pid) with
    | Some n, Some pid when (not !killed) && !acks >= n ->
        Unix.kill pid Sys.sigkill;
        killed := true;
        Format.printf "ntload: sent SIGKILL to %d after %d acks@." pid !acks
    | _ -> ()
  in
  (* ----- arrivals -----
     The closed loop keeps one submission outstanding per client and the
     next one falls due the moment it settles.  Open loop (--open-loop
     RATE): submissions arrive as a Poisson process — exponential
     inter-arrival gaps at RATE/clients per client — decoupled from
     completions, so a client keeps multiple transactions outstanding
     when the server lags the offered load. *)
  let window = if open_rate = None then 1 else max_int in
  let per_client_rate =
    match open_rate with
    | Some r -> r /. float_of_int (Stdlib.max 1 clients)
    | None -> 0.0
  in
  let exp_gap rng = -.log (1.0 -. Rng.float rng 1.0) /. per_client_rate in
  (* A closed-loop request is timed from its send.  An open-loop one is
     timed from its due arrival, not from when the pump got round to
     firing it, so a stall shows up as queueing delay in the latencies
     instead of hiding it; [late_max] is how far behind its schedule
     the generator fell. *)
  let late_max = ref 0.0 in
  let submit c now =
    let prog = gen_txn c in
    let rid = Printf.sprintf "c%d-%d" c.id c.reqno in
    c.reqno <- c.reqno + 1;
    send c
      (Wire.Submit
         { program = Program_io.program_to_string prog; req = Some rid });
    stats.submitted <- stats.submitted + 1;
    c.remaining <- c.remaining - 1;
    if drop_rate > 0.0 && Rng.float c.rng 1.0 < drop_rate then
      c.phase <- Dropping
    else begin
      let t0 =
        if open_rate = None then Unix.gettimeofday () else c.next_arrival
      in
      c.outstanding <- c.outstanding @ [ (rid, t0, None) ]
    end;
    if open_rate <> None then begin
      late_max := Float.max !late_max (now -. c.next_arrival);
      c.next_arrival <- c.next_arrival +. exp_gap c.rng
    end
  in
  (* fire every arrival that is due; a client is done only once its
     last submission has settled *)
  let pump now c =
    while
      c.phase = Idle && c.remaining > 0
      && List.length c.outstanding < window
      && now >= c.next_arrival
    do
      submit c now
    done;
    if c.phase = Idle && c.remaining <= 0 && c.outstanding = [] then begin
      c.phase <- Done;
      close_client c
    end
  in
  let settle c rid t0 =
    Metrics.observe latency
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e6));
    c.outstanding <- List.filter (fun (r, _, _) -> r <> rid) c.outstanding
  in
  let abandon c =
    stats.proto_errors <- stats.proto_errors + 1;
    c.phase <- Done;
    close_client c
  in
  (* A connection's answers come in request order, so Accepted and
     Rejected answer the oldest submission not yet accepted. *)
  let unaccepted c =
    List.find_opt (fun (_, _, tx) -> tx = None) c.outstanding
  in
  let handle c (resp : Wire.response) =
    match (c.phase, resp) with
    | Greeting, Wire.Welcome w ->
        if !objects = [] then
          objects :=
            List.map
              (fun (name, decl) ->
                match Program_io.parse_dtype_decl decl with
                | Ok dt -> (Obj_id.make name, dt)
                | Error e ->
                    Format.eprintf "ntload: bad decl for %s: %s@." name e;
                    exit 2)
              w.objects;
        c.phase <- Idle;
        if open_rate <> None then
          c.next_arrival <- Unix.gettimeofday () +. exp_gap c.rng
    | _, Wire.Accepted { txn; req } -> (
        match unaccepted c with
        | None -> abandon c
        | Some (rid, _, _) ->
            check_echo rid req;
            incr acks;
            maybe_kill ();
            c.outstanding <-
              List.map
                (fun (r, t0, tx) ->
                  if r = rid then (r, t0, Some txn) else (r, t0, tx))
                c.outstanding;
            send c (Wire.Status txn))
    | _, Wire.Rejected { why; req = _ } -> (
        stats.rejected <- stats.rejected + 1;
        Format.eprintf "ntload: submission rejected: %s@." why;
        match unaccepted c with
        | Some (rid, _, _) ->
            c.outstanding <-
              List.filter (fun (r, _, _) -> r <> rid) c.outstanding
        | None -> ())
    | _, Wire.State { txn; state = st; req } -> (
        let hit =
          List.find_opt
            (fun (_, _, tx) ->
              match tx with Some t -> Txn_id.equal t txn | None -> false)
            c.outstanding
        in
        match (hit, st) with
        | None, _ -> abandon c
        | Some (rid, t0, _), Wire.Committed _ ->
            check_echo rid req;
            stats.committed <- stats.committed + 1;
            settle c rid t0
        | Some (rid, t0, _), Wire.Aborted veto ->
            check_echo rid req;
            stats.aborted <- stats.aborted + 1;
            if veto <> None then stats.vetoed_seen <- stats.vetoed_seen + 1;
            settle c rid t0
        | Some _, (Wire.Pending | Wire.Running) -> send c (Wire.Status txn))
    | _, Wire.Error_msg why ->
        Format.eprintf "ntload: protocol error: %s@." why;
        abandon c
    | _, _ -> abandon c
  in
  let buf = Bytes.create 8192 in
  let all_done () = List.for_all (fun c -> c.phase = Done) cs in
  let done_seq = ref None and t_done = ref 0.0 in
  (* With --subscribe, linger after the load completes until one more
     cut frame arrives (it covers the tail interval), bounded by 5s. *)
  let sub_waiting () =
    match sub with
    | None -> false
    | Some s -> (
        s.s_alive
        &&
        match !done_seq with
        | None -> true
        | Some dseq ->
            sub_last_seq s <= dseq
            && Unix.gettimeofday () -. !t_done < 5.0)
  in
  while (not !killed) && ((not (all_done ())) || sub_waiting ()) do
    (if all_done () && !done_seq = None then
       match sub with
       | Some s ->
           done_seq := Some (sub_last_seq s);
           t_done := Unix.gettimeofday ()
       | None -> ());
    List.iter (pump (Unix.gettimeofday ())) cs;
    let fds c = match c.fd with Some fd -> [ fd ] | None -> [] in
    let sub_fds =
      match sub with
      | Some s when s.s_alive -> [ s.s_conn.Wire_client.fd ]
      | _ -> []
    in
    let rfds = List.concat_map fds cs @ sub_fds in
    let wfds =
      List.concat_map
        (fun c -> if String.length c.out > c.out_off then fds c else [])
        cs
    in
    let r, w, _ =
      try Unix.select rfds wfds [] 0.005
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* telemetry side channel *)
    (match sub with
    | Some ({ s_conn = { fd; reader }; _ } as s)
      when s.s_alive && List.mem fd r -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> s.s_alive <- false
        | n ->
            Wire.Reader.feed reader (Bytes.sub_string buf 0 n);
            let rec drain () =
              match Wire.Reader.next reader with
              | Ok None -> ()
              | Ok (Some payload) ->
                  (match Wire.decode_response payload with
                  | Ok (Wire.Telemetry f) -> s.s_frames <- f :: s.s_frames
                  | Ok _ -> ()
                  | Error e ->
                      Format.eprintf "ntload: subscribe: %s@." e;
                      s.s_alive <- false);
                  if s.s_alive then drain ()
              | Error e ->
                  Format.eprintf "ntload: subscribe: %s@." e;
                  s.s_alive <- false
            in
            drain ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
        | exception Unix.Unix_error _ -> s.s_alive <- false)
    | _ -> ());
    List.iter
      (fun c ->
        match c.fd with
        | Some fd when List.mem fd w && String.length c.out > c.out_off -> (
            let pending = String.length c.out - c.out_off in
            let chunk = if c.slow then min pending 7 else pending in
            match Unix.write_substring fd c.out c.out_off chunk with
            | n ->
                c.out_off <- c.out_off + n;
                if c.out_off >= String.length c.out then begin
                  c.out <- "";
                  c.out_off <- 0;
                  if c.phase = Dropping then begin
                    (* mid-transaction disconnect: the server must
                       orphan the submission we never awaited *)
                    stats.dropped <- stats.dropped + 1;
                    close_client c;
                    if c.remaining <= 0 then c.phase <- Done
                    else open_client addr c
                  end
                end
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
            | exception Unix.Unix_error _ ->
                c.phase <- Done;
                close_client c)
        | _ -> ())
      cs;
    List.iter
      (fun c ->
        match c.fd with
        | Some fd when List.mem fd r -> (
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 ->
                if c.phase <> Done then begin
                  stats.proto_errors <- stats.proto_errors + 1;
                  c.phase <- Done
                end;
                close_client c
            | n ->
                Wire.Reader.feed c.reader (Bytes.sub_string buf 0 n);
                let rec drain () =
                  if c.phase <> Done then
                    match Wire.Reader.next c.reader with
                    | Ok None -> ()
                    | Ok (Some payload) -> (
                        match Wire.decode_response payload with
                        | Ok resp ->
                            handle c resp;
                            drain ()
                        | Error e ->
                            Format.eprintf "ntload: bad frame: %s@." e;
                            abandon c)
                    | Error e ->
                        Format.eprintf "ntload: framing error: %s@." e;
                        abandon c
                in
                drain ()
            | exception
                Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                ()
            | exception Unix.Unix_error _ ->
                c.phase <- Done;
                close_client c)
        | _ -> ())
      cs
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  (match sub with
  | Some s -> Wire_client.close s.s_conn
  | None -> ());
  if !killed then begin
    List.iter close_client cs;
    Format.printf
      "ntload: server killed after %d acknowledged submissions (%.2fs)@."
      !acks elapsed;
    exit 0
  end;
  (* a fresh control connection: drain the server and fetch its tallies *)
  let quiesced =
    let c = Wire_client.dial addr in
    let rec await q =
      match Wire_client.recv c with
      | Wire.Quiesced _ as q when shutdown ->
          Wire_client.send c Wire.Shutdown;
          await (Some q)
      | Wire.Quiesced _ as q -> Some q
      | Wire.Goodbye -> q
      | _ -> await q
      | exception (Wire_client.Closed | Unix.Unix_error _) -> q
      | exception Failure e ->
          Format.eprintf "ntload: control: %s@." e;
          q
    in
    Wire_client.send c (Wire.Hello { client = "ntload-control" });
    Wire_client.send c Wire.Quiesce;
    let q = await None in
    Wire_client.close c;
    q
  in
  let h = Metrics.histogram_stats latency in
  let alarms, srv_committed, srv_aborted, srv_vetoed =
    match quiesced with
    | Some (Wire.Quiesced q) -> (q.alarms, q.committed, q.aborted, q.vetoed)
    | _ -> (-1, -1, -1, -1)
  in
  (* per-shard rows ride the Quiesced report when the server runs more
     than one shard; empty on a classic single-engine server *)
  let shard_rows =
    match quiesced with
    | Some (Wire.Quiesced q) -> q.per_shard
    | _ -> []
  in
  (* server-side window p99 from the subscription, and its distance to
     the client-side p99 in power-of-two buckets *)
  let frames_seen, srv_p99, p99_distance =
    match sub with
    | None -> (0, -1, -1)
    | Some s -> (
        match sub_merged s (fun f -> [ ("latency", f.Wire.w_latency) ]) with
        | [ (_, buckets, count, maxv) ] ->
            let p99 = Metrics.quantile buckets ~count ~max:maxv 0.99 in
            ( List.length s.s_frames,
              p99,
              abs (Metrics.bucket_of p99 - Metrics.bucket_of h.Metrics.p99) )
        | _ -> (List.length s.s_frames, -1, -1))
  in
  (* per-stage server breakdown (p99 of each stage's windowed
     histogram), and the consistency check: the serving-path stages
     between decode and completion partition the submit-to-completion
     interval, so their p99s should not sum past the server's e2e p99
     by more than one power-of-two bucket.  Read and reply lie outside
     that interval (socket time) and are excluded; the check is only
     meaningful on a clean closed loop, so fault-injection campaigns
     skip it. *)
  let stage_stats =
    match sub with
    | None -> []
    | Some s ->
        List.map
          (fun (name, buckets, count, maxv) ->
            (name, Metrics.quantile buckets ~count ~max:maxv 0.99, count))
          (sub_merged s (fun f -> f.Wire.stages))
  in
  let inner_stages = [ "decode"; "validate"; "admit"; "gate"; "execute" ] in
  let stage_sum_p99 =
    List.fold_left
      (fun acc (name, p99, _) ->
        if List.mem name inner_stages then acc + p99 else acc)
      0 stage_stats
  in
  let stage_check_active =
    drop_rate = 0.0 && slow_clients = 0 && open_rate = None && srv_p99 > 0
    && stage_sum_p99 > 0
    && List.exists (fun (name, _, _) -> name = "execute") stage_stats
  in
  let stage_check_failed =
    stage_check_active
    && Metrics.bucket_of stage_sum_p99 > Metrics.bucket_of srv_p99 + 1
  in
  if json then
    print_endline
      (Obs_json.to_string
         (Obs_json.Obj
            ([
               ("clients", Obs_json.Int clients);
               ("requests", Obs_json.Int requests);
               ("submitted", Obs_json.Int stats.submitted);
               ("committed", Obs_json.Int stats.committed);
               ("aborted", Obs_json.Int stats.aborted);
               ("vetoed_seen", Obs_json.Int stats.vetoed_seen);
               ("rejected", Obs_json.Int stats.rejected);
               ("dropped", Obs_json.Int stats.dropped);
               ("proto_errors", Obs_json.Int stats.proto_errors);
               ("req_mismatches", Obs_json.Int stats.req_mismatches);
               ("elapsed_s", Obs_json.Float elapsed);
               ( "throughput_per_s",
                 Obs_json.Float
                   (float_of_int (stats.committed + stats.aborted) /. elapsed)
               );
               ("latency_us_p50", Obs_json.Int h.Metrics.p50);
               ("latency_us_p99", Obs_json.Int h.Metrics.p99);
               ("latency_us_p999", Obs_json.Int h.Metrics.p999);
               ("latency_us_max", Obs_json.Int h.Metrics.max);
               ( "latency_us_buckets",
                 Obs_json.Arr
                   (List.map
                      (fun (i, n) ->
                        Obs_json.Arr [ Obs_json.Int i; Obs_json.Int n ])
                      (Metrics.histogram_buckets latency)) );
               ("server_committed", Obs_json.Int srv_committed);
               ("server_aborted", Obs_json.Int srv_aborted);
               ("server_vetoed", Obs_json.Int srv_vetoed);
               ("server_alarms", Obs_json.Int alarms);
             ]
            @ (if open_rate = None then []
               else
                 [
                   ( "open_loop_late_ms_max",
                     Obs_json.Float (!late_max *. 1e3) );
                 ])
            @
            (if sub = None then []
             else
               [
                 ("telemetry_frames", Obs_json.Int frames_seen);
                 ("server_latency_us_p99", Obs_json.Int srv_p99);
                 ("p99_bucket_distance", Obs_json.Int p99_distance);
               ])
            @ (if shard_rows = [] then []
               else
                 [
                   ( "server_shards",
                     Obs_json.Arr
                       (List.map
                          (fun (r : Wire.shard_row) ->
                            Obs_json.Obj
                              [
                                ("shard", Obs_json.Int r.r_shard);
                                ("submitted", Obs_json.Int r.r_submitted);
                                ("committed", Obs_json.Int r.r_committed);
                                ("aborted", Obs_json.Int r.r_aborted);
                                ("vetoed", Obs_json.Int r.r_vetoed);
                                ("live", Obs_json.Int r.r_live);
                              ])
                          shard_rows) );
                 ])
            @
            if stage_stats = [] then []
            else
              [
                ( "server_stage_p99_us",
                  Obs_json.Obj
                    (List.map
                       (fun (name, p99, _) -> (name, Obs_json.Int p99))
                       stage_stats) );
                ( "server_stage_count",
                  Obs_json.Obj
                    (List.map
                       (fun (name, _, count) -> (name, Obs_json.Int count))
                       stage_stats) );
                ("stage_sum_p99_us", Obs_json.Int stage_sum_p99);
                ( "stage_sum_check",
                  Obs_json.Str
                    (if not stage_check_active then "skipped"
                     else if stage_check_failed then "fail"
                     else "ok") );
              ])))
  else begin
    Format.printf
      "ntload: %d submitted, %d committed, %d aborted (%d vetoed), %d \
       dropped, %d rejected in %.2fs (%.0f txn/s)@."
      stats.submitted stats.committed stats.aborted stats.vetoed_seen
      stats.dropped stats.rejected elapsed
      (float_of_int (stats.committed + stats.aborted) /. elapsed);
    Format.printf
      "ntload: latency p50 %dus  p99 %dus  p999 %dus  max %dus (%d samples)@."
      h.Metrics.p50 h.Metrics.p99 h.Metrics.p999 h.Metrics.max
      h.Metrics.count;
    (match sub with
    | Some _ when srv_p99 >= 0 ->
        Format.printf
          "ntload: server window p99 %dus (client %dus; bucket distance %d; \
           %d frames)@."
          srv_p99 h.Metrics.p99 p99_distance frames_seen
    | Some _ ->
        Format.printf "ntload: subscription saw %d frames, no latency data@."
          frames_seen
    | None -> ());
    if stage_stats <> [] then
      Format.printf "ntload: server stage p99: %s  (sum %dus, check %s)@."
        (String.concat "  "
           (List.map
              (fun (name, p99, _) -> Printf.sprintf "%s %dus" name p99)
              stage_stats))
        stage_sum_p99
        (if not stage_check_active then "skipped"
         else if stage_check_failed then "FAIL"
         else "ok");
    match quiesced with
    | Some (Wire.Quiesced q) ->
        Format.printf
          "server: %d committed, %d aborted, %d vetoed, %d alarms@."
          q.committed q.aborted q.vetoed q.alarms;
        List.iter
          (fun (r : Wire.shard_row) ->
            Format.printf
              "server: shard %d: %d pieces, %d committed, %d aborted, %d \
               vetoed, %d live@."
              r.r_shard r.r_submitted r.r_committed r.r_aborted r.r_vetoed
              r.r_live)
          q.per_shard
    | _ -> Format.printf "server: no quiesced report@."
  end;
  if stage_check_failed then begin
    Format.eprintf
      "ntload: stage p99 sum %dus exceeds server e2e p99 %dus by more than \
       one bucket@."
      stage_sum_p99 srv_p99;
    exit 1
  end;
  if stats.proto_errors > 0 then exit 1;
  if stats.req_mismatches > 0 then exit 1;
  if alarms > 0 then exit 1;
  if alarms < 0 then exit 1

let load_cmd addr clients requests seed depth fanout drop_rate slow_clients
    shutdown subscribe json kill_after kill_pid workload open_rate =
  if kill_after <> None && kill_pid = None then begin
    Format.eprintf "ntload: --kill-after needs --kill-pid@.";
    exit 2
  end;
  (match open_rate with
  | Some r when r <= 0.0 ->
      Format.eprintf "ntload: --open-loop rate must be positive@.";
      exit 2
  | Some _ when drop_rate > 0.0 ->
      (* a dropped connection severs every outstanding submission on it,
         so the open-loop accounting could never settle *)
      Format.eprintf "ntload: --open-loop is incompatible with --drop-rate@.";
      exit 2
  | _ -> ());
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  run_load addr ~clients ~requests ~seed ~depth ~fanout ~drop_rate
    ~slow_clients ~shutdown ~subscribe ~json ~kill_after ~kill_pid ~workload
    ~open_rate

let cmd =
  let clients =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc:"Client count.")
  in
  let requests =
    Arg.(
      value & opt int 25
      & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N") in
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~docv:"N" ~doc:"Program depth.")
  in
  let fanout =
    Arg.(value & opt int 3 & info [ "fanout" ] ~docv:"N" ~doc:"Max fanout.")
  in
  let drop_rate =
    Arg.(
      value & opt float 0.0
      & info [ "drop-rate" ] ~docv:"P"
          ~doc:"Probability of disconnecting right after a Submit.")
  in
  let slow_clients =
    Arg.(
      value & opt int 0
      & info [ "slow-clients" ] ~docv:"N"
          ~doc:"How many clients dribble their frames byte by byte.")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send Shutdown once the run completes.")
  in
  let subscribe =
    Arg.(
      value & flag
      & info [ "subscribe" ]
          ~doc:
            "Open a telemetry side channel and cross-check the server's \
             window p99 against the client-side histogram.")
  in
  let json = Arg.(value & flag & info [ "json" ]) in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Crash injection: SIGKILL the --kill-pid process after the \
             Nth acknowledged submission, then exit.")
  in
  let kill_pid =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-pid" ] ~docv:"PID"
          ~doc:"The server pid --kill-after signals.")
  in
  let workload =
    Arg.(
      value
      & opt (enum [ ("random", W_random); ("smallbank", W_smallbank) ]) W_random
      & info [ "workload" ] ~docv:"W"
          ~doc:
            "Program family: $(b,random) (nested programs over every \
             advertised object) or $(b,smallbank) (Zipf-contended \
             multi-account read-modify-write transactions over the \
             advertised registers).")
  in
  let open_rate =
    Arg.(
      value
      & opt (some float) None
      & info [ "open-loop" ] ~docv:"RATE"
          ~doc:
            "Open-loop mode: submissions arrive as a Poisson process at \
             RATE transactions per second (split across clients) with \
             exponential inter-arrival gaps, decoupled from completions — \
             clients keep multiple transactions outstanding when the \
             server lags the offered load.  Latency is timed from each \
             arrival's due time, and $(b,--json) reports \
             $(b,open_loop_late_ms_max), the furthest the generator fell \
             behind its schedule.  Incompatible with $(b,--drop-rate).")
  in
  let term =
    Term.(
      const load_cmd $ Wire_client.addr "ntload" $ clients $ requests $ seed
      $ depth $ fanout $ drop_rate $ slow_clients $ shutdown $ subscribe
      $ json $ kill_after $ kill_pid $ workload $ open_rate)
  in
  Cmd.v
    (Cmd.info "ntload" ~version:Version.string
       ~doc:"Closed-loop load generator for ntserved, with fault injection.")
    term

let () = exit (Cmd.eval cmd)
