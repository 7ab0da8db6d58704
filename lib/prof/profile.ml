open Nt_base
open Nt_obs

(* Per-object contention accumulator.  The wait histogram lives in the
   metrics registry (as "wait.ticks.<obj>") so that registry merging
   carries it; the scalar totals live here for the top-K table. *)
type obj_stat = {
  mutable waits : int;  (* completed wait streaks *)
  mutable wait_events : int;  (* Wait events (refusal retries) *)
  mutable total_waited : int;  (* sum of streak durations *)
  mutable max_waited : int;
}

type edge_stat = {
  e_src : Txn_id.t;
  e_dst : Txn_id.t;
  e_kind : string;
  e_obj : Obj_id.t option;
  e_w1 : Txn_id.t;
  e_w1_ts : int;
  e_w2 : Txn_id.t;
  e_w2_ts : int;
  mutable e_count : int;  (* recurrences across merged runs *)
}

type t = {
  m : Metrics.t;
  objs : (string, obj_stat) Hashtbl.t;
  edges : (string * string * string, edge_stat) Hashtbl.t;
      (* keyed by (src, dst, kind) string forms *)
  g : unit Nt_sg.Graph.t;
  pending : (string * string, int) Hashtbl.t;
      (* (txn, obj) -> waited ticks of the still-open streak *)
  mutable events : int;
  mutable bad_lines : int;
}

let create () =
  {
    m = Metrics.create ();
    objs = Hashtbl.create 32;
    edges = Hashtbl.create 64;
    g = Nt_sg.Graph.create ();
    pending = Hashtbl.create 32;
    events = 0;
    bad_lines = 0;
  }

let metrics t = t.m
let events t = t.events
let bad_lines t = t.bad_lines

let obj_stat t name =
  match Hashtbl.find_opt t.objs name with
  | Some s -> s
  | None ->
      let s = { waits = 0; wait_events = 0; total_waited = 0; max_waited = 0 } in
      Hashtbl.replace t.objs name s;
      s

let close_streak t obj_name waited =
  let s = obj_stat t obj_name in
  s.waits <- s.waits + 1;
  s.total_waited <- s.total_waited + waited;
  if waited > s.max_waited then s.max_waited <- waited;
  Metrics.observe (Metrics.histogram t.m ("wait.ticks." ^ obj_name)) waited

let feed t (e : Event.t) =
  t.events <- t.events + 1;
  match e with
  | Event.Begin _ -> Metrics.incr (Metrics.counter t.m "txn.created")
  | Event.End { outcome; dur; _ } -> (
      match outcome with
      | Event.Committed ->
          Metrics.incr (Metrics.counter t.m "txn.committed");
          Metrics.observe (Metrics.histogram t.m "txn.commit.ticks") dur
      | Event.Aborted ->
          Metrics.incr (Metrics.counter t.m "txn.aborted");
          Metrics.observe (Metrics.histogram t.m "txn.abort.ticks") dur)
  | Event.Instant { name; _ } ->
      Metrics.incr (Metrics.counter t.m ("event." ^ name))
  | Event.Counter { name; value; _ } ->
      (* Counter tracks are cumulative samples: the last one wins. *)
      Metrics.set (Metrics.gauge t.m ("sample." ^ name)) (float_of_int value)
  | Event.Wait { txn; obj; waited; _ } ->
      let obj_name = Obj_id.name obj in
      let s = obj_stat t obj_name in
      s.wait_events <- s.wait_events + 1;
      Metrics.incr (Metrics.counter t.m "wait.events");
      (* Within one blocked streak [waited] strictly grows (one tick
         per executed action); a drop means the previous streak ended
         off-stream (the access unblocked or aborted) and a new one
         started. *)
      let key = (Txn_id.to_string txn, obj_name) in
      (match Hashtbl.find_opt t.pending key with
      | Some prev when waited <= prev -> close_streak t obj_name prev
      | _ -> ());
      Hashtbl.replace t.pending key waited
  | Event.Edge { src; dst; kind; obj; w1; w1_ts; w2; w2_ts; _ } -> (
      Metrics.incr (Metrics.counter t.m ("sg.edge." ^ kind));
      Nt_sg.Graph.add_edge t.g src dst ();
      let key = (Txn_id.to_string src, Txn_id.to_string dst, kind) in
      match Hashtbl.find_opt t.edges key with
      | Some es -> es.e_count <- es.e_count + 1
      | None ->
          Hashtbl.replace t.edges key
            {
              e_src = src;
              e_dst = dst;
              e_kind = kind;
              e_obj = obj;
              e_w1 = w1;
              e_w1_ts = w1_ts;
              e_w2 = w2;
              e_w2_ts = w2_ts;
              e_count = 1;
            })

(* Flush still-open wait streaks into the histograms (the trace ended
   while those accesses were blocked, or they unblocked without a
   further refusal). *)
let finish t =
  Hashtbl.iter (fun (_, obj_name) waited -> close_streak t obj_name waited)
    t.pending;
  Hashtbl.reset t.pending

let feed_line t line =
  let line = String.trim line in
  if line = "" then Ok ()
  else
    match Json.parse line with
    | Error e ->
        t.bad_lines <- t.bad_lines + 1;
        Error e
    | Ok j -> (
        match Event.of_json j with
        | Error e ->
            t.bad_lines <- t.bad_lines + 1;
            Error e
        | Ok e ->
            feed t e;
            Ok ())

let load t path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let errors = ref [] in
      let lineno = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lineno;
           match feed_line t line with
           | Ok () -> ()
           | Error e ->
               if List.length !errors < 5 then
                 errors := Printf.sprintf "%s:%d: %s" path !lineno e :: !errors
         done
       with End_of_file -> ());
      finish t;
      List.rev !errors)

let sink t =
  {
    Sink.emit = (fun e -> feed t e);
    flush = ignore;
    close = (fun () -> finish t);
  }

let merge dst src =
  Metrics.merge dst.m src.m;
  Hashtbl.iter
    (fun name s ->
      let d = obj_stat dst name in
      d.waits <- d.waits + s.waits;
      d.wait_events <- d.wait_events + s.wait_events;
      d.total_waited <- d.total_waited + s.total_waited;
      if s.max_waited > d.max_waited then d.max_waited <- s.max_waited)
    src.objs;
  Hashtbl.iter
    (fun key es ->
      Nt_sg.Graph.add_edge dst.g es.e_src es.e_dst ();
      match Hashtbl.find_opt dst.edges key with
      | Some d -> d.e_count <- d.e_count + es.e_count
      | None -> Hashtbl.replace dst.edges key { es with e_count = es.e_count })
    src.edges;
  dst.events <- dst.events + src.events;
  dst.bad_lines <- dst.bad_lines + src.bad_lines

(* --- Reports ----------------------------------------------------------- *)

let top_objects t k =
  Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.objs []
  |> List.sort (fun (na, a) (nb, b) ->
         match compare b.total_waited a.total_waited with
         | 0 -> (
             match compare b.wait_events a.wait_events with
             | 0 -> compare na nb
             | c -> c)
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let hot_edges t k =
  Hashtbl.fold (fun _ es acc -> es :: acc) t.edges []
  |> List.sort (fun a b ->
         match compare b.e_count a.e_count with
         | 0 -> (
             match compare a.e_w2_ts b.e_w2_ts with
             | 0 ->
                 compare
                   (Txn_id.to_string a.e_src, Txn_id.to_string a.e_dst)
                   (Txn_id.to_string b.e_src, Txn_id.to_string b.e_dst)
             | c -> c)
         | c -> c)
  |> List.filteri (fun i _ -> i < k)

let pp_edge fmt es =
  Format.fprintf fmt "%s -> %s  %s%s  (%s@%d ~ %s@%d)%s"
    (Txn_id.to_string es.e_src)
    (Txn_id.to_string es.e_dst)
    es.e_kind
    (match es.e_obj with Some x -> " at " ^ Obj_id.name x | None -> "")
    (Txn_id.to_string es.e_w1)
    es.e_w1_ts
    (Txn_id.to_string es.e_w2)
    es.e_w2_ts
    (if es.e_count > 1 then Printf.sprintf "  x%d" es.e_count else "")

let edge_label t a b =
  let a_s = Txn_id.to_string a and b_s = Txn_id.to_string b in
  let found =
    Hashtbl.fold
      (fun (s, d, _) es acc ->
        match acc with
        | Some _ -> acc
        | None -> if s = a_s && d = b_s then Some es else None)
      t.edges None
  in
  match found with
  | None -> None
  | Some es ->
      Some
        (Printf.sprintf "%s%s: %s@%d ~ %s@%d" es.e_kind
           (match es.e_obj with Some x -> " " ^ Obj_id.name x | None -> "")
           (Txn_id.to_string es.e_w1)
           es.e_w1_ts
           (Txn_id.to_string es.e_w2)
           es.e_w2_ts)

let dot t =
  let cycle =
    Option.value ~default:[] (Nt_sg.Graph.find_cycle t.g)
  in
  Nt_sg.Dot.of_graph ~cycle ~edge_label:(edge_label t) t.g

let has_cycle t = Nt_sg.Graph.find_cycle t.g <> None

let report ?(top = 10) fmt t =
  finish t;
  let counter name =
    Metrics.counter_value (Metrics.counter t.m name)
  in
  Format.fprintf fmt "== summary ==@\n";
  Format.fprintf fmt
    "events %d  txns created %d  committed %d  aborted %d  wait events %d@\n"
    t.events (counter "txn.created") (counter "txn.committed")
    (counter "txn.aborted") (counter "wait.events");
  if t.bad_lines > 0 then
    Format.fprintf fmt "(%d malformed trace lines skipped)@\n" t.bad_lines;
  let aborts =
    List.filter_map
      (fun (label, name) ->
        let v = counter name in
        if v > 0 then Some (Printf.sprintf "%s %d" label v) else None)
      [
        ("lock-conflict", "event.deadlock.victim");
        ("injected", "event.abort.injected");
        ("monitor-cycle", "event.monitor.cycle");
        ("monitor-inappropriate", "event.monitor.inappropriate");
      ]
  in
  if aborts <> [] then
    Format.fprintf fmt "abort/alarm causes: %s@\n" (String.concat ", " aborts);
  Format.fprintf fmt "@\n== top %d contended objects ==@\n" top;
  let tops = top_objects t top in
  if tops = [] then Format.fprintf fmt "(no lock waits recorded)@\n"
  else begin
    Format.fprintf fmt "%-16s %8s %8s %12s %8s %8s %8s@\n" "object" "streaks"
      "refusals" "total-ticks" "max" "p50" "p99";
    List.iter
      (fun (name, s) ->
        let h = Metrics.histogram_stats (Metrics.histogram t.m ("wait.ticks." ^ name)) in
        Format.fprintf fmt "%-16s %8d %8d %12d %8d %8d %8d@\n" name s.waits
          s.wait_events s.total_waited s.max_waited h.Metrics.p50
          h.Metrics.p99)
      tops
  end;
  Format.fprintf fmt "@\n== hottest SG edges ==@\n";
  let edges = hot_edges t top in
  if edges = [] then Format.fprintf fmt "(no SG edges in trace)@\n"
  else
    List.iter (fun es -> Format.fprintf fmt "%a@\n" pp_edge es) edges;
  if has_cycle t then
    Format.fprintf fmt "@\n!! the recorded SG contains a cycle@\n";
  Format.fprintf fmt "@\n== metrics registry ==@\n%a@\n" Metrics.pp t.m

let prometheus t =
  finish t;
  Format.asprintf "%a" Metrics.pp_prometheus t.m
