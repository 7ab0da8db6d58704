open Nt_base
open Nt_obs

let protocol_version = 5
let max_frame = 4 * 1024 * 1024
let max_header = 20

let frame payload = Printf.sprintf "%d\n%s" (String.length payload) payload

let prefix_for_error s =
  let n = min 20 (String.length s) in
  let p = String.sub s 0 n in
  if String.length s > n then p ^ "..." else p

module Reader = struct
  type t = { mutable acc : string }

  let create () = { acc = "" }
  let feed t s = if s <> "" then t.acc <- t.acc ^ s
  let buffered t = String.length t.acc

  let digits s = s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

  let next t =
    match String.index_opt t.acc '\n' with
    | None ->
        if String.length t.acc > max_header then
          Error
            (Printf.sprintf
               "frame header too long: no newline in first %d bytes (%S)"
               (String.length t.acc)
               (prefix_for_error t.acc))
        else Ok None
    | Some i -> (
        let hdr = String.sub t.acc 0 i in
        if not (digits hdr) then
          Error (Printf.sprintf "bad frame header %S" (prefix_for_error hdr))
        else
          match int_of_string_opt hdr with
          | None -> Error (Printf.sprintf "bad frame header %S" hdr)
          | Some len when len > max_frame ->
              Error
                (Printf.sprintf
                   "frame of %d bytes exceeds max_frame (%d bytes)" len
                   max_frame)
          | Some len ->
              let start = i + 1 in
              if String.length t.acc - start < len then Ok None
              else begin
                let payload = String.sub t.acc start len in
                t.acc <-
                  String.sub t.acc (start + len)
                    (String.length t.acc - start - len);
                Ok (Some payload)
              end)

  type eof = Clean | Torn of { buffered : int; expected : int option }

  let eof t =
    if t.acc = "" then Clean
    else
      let expected =
        match String.index_opt t.acc '\n' with
        | None -> None
        | Some i -> int_of_string_opt (String.sub t.acc 0 i)
      in
      Torn { buffered = String.length t.acc; expected }

  let describe_eof = function
    | Clean -> "clean shutdown at a frame boundary"
    | Torn { buffered; expected = Some len } ->
        Printf.sprintf
          "stream ended mid-frame: %d bytes buffered of a %d-byte payload"
          buffered len
    | Torn { buffered; expected = None } ->
        Printf.sprintf "stream ended mid-frame: %d header bytes buffered"
          buffered
end

type request =
  | Hello of { client : string }
  | Submit of { program : string; req : string option }
  | Status of Txn_id.t
  | Metrics
  | Subscribe
  | Ping
  | Dump
  | Quiesce
  | Shutdown

type txn_state =
  | Pending
  | Running
  | Committed of string
  | Aborted of string option

type server_status =
  | Fresh
  | Recovering of { replayed : int; total : int }
  | Recovered of { replayed : int; torn : bool }

type hist = {
  h_count : int;
  h_sum : int;
  h_min : int;
  h_max : int;
  h_p50 : int;
  h_p99 : int;
  h_p999 : int;
  h_buckets : (int * int) list;
}

let empty_hist =
  {
    h_count = 0;
    h_sum = 0;
    h_min = 0;
    h_max = 0;
    h_p50 = 0;
    h_p99 = 0;
    h_p999 = 0;
    h_buckets = [];
  }

(* One shard's counters, carried in Telemetry and Quiesced answers
   when the server runs sharded ([shards > 1] in its Welcome); empty
   on single-engine servers and pre-v5 peers. *)
type shard_row = {
  r_shard : int;
  r_submitted : int;
  r_committed : int;
  r_aborted : int;
  r_vetoed : int;
  r_live : int;
}

type telemetry = {
  seq : int;
  t_mono : float;
  interval_s : float;
  w_requests : int;
  w_submitted : int;
  w_committed : int;
  w_aborted : int;
  w_vetoed : int;
  w_orphans : int;
  w_alarms : int;
  w_latency : hist;
  o_live : int;
  o_doomed : int;
  o_conns : int;
  o_subscribers : int;
  c_submitted : int;
  c_committed : int;
  c_aborted : int;
  c_vetoed : int;
  c_alarms : int;
  sg_nodes : int;
  sg_edges : int;
  sg_reorders : int;
  hot : (string * int) list;
  stages : (string * hist) list;
  gc_pause : hist;
  gc_pct : float;
  per_shard : shard_row list;
}

type response =
  | Welcome of {
      server : string;
      version : string;
      backend : string;
      status : server_status;
      objects : (string * string) list;
      shards : int;  (** Worker domains; 1 on single-engine servers. *)
    }
  | Accepted of { txn : Txn_id.t; req : string option }
  | Rejected of { why : string; req : string option }
  | State of { txn : Txn_id.t; state : txn_state; req : string option }
  | Metrics_dump of Json.t
  | Telemetry of telemetry
  | Pong of {
      t_mono : float;
      live : int;
      doomed : int;
      conns : int;
      status : server_status;
    }
  | Dumped of { spans : int; dropped : int; jsonl : string; chrome : string }
  | Quiesced of {
      committed : int;
      aborted : int;
      vetoed : int;
      alarms : int;
      per_shard : shard_row list;
    }
  | Goodbye
  | Error_msg of string

(* --- encoding --- *)

let obj fields = Json.Obj fields
let str s = Json.Str s
let int n = Json.Int n
let txn t = str (Txn_id.to_string t)

let opt_req req fields =
  match req with None -> fields | Some r -> ("req", str r) :: fields

let request_to_json = function
  | Hello { client } -> obj [ ("type", str "hello"); ("client", str client) ]
  | Submit { program; req } ->
      obj (("type", str "submit") :: opt_req req [ ("program", str program) ])
  | Status t -> obj [ ("type", str "status"); ("txn", txn t) ]
  | Metrics -> obj [ ("type", str "metrics") ]
  | Subscribe -> obj [ ("type", str "subscribe") ]
  | Ping -> obj [ ("type", str "ping") ]
  | Dump -> obj [ ("type", str "dump") ]
  | Quiesce -> obj [ ("type", str "quiesce") ]
  | Shutdown -> obj [ ("type", str "shutdown") ]

let status_fields = function
  | Fresh -> [ ("status", str "fresh") ]
  | Recovering { replayed; total } ->
      [
        ("status", str "recovering");
        ("replayed", int replayed);
        ("total", int total);
      ]
  | Recovered { replayed; torn } ->
      [
        ("status", str "recovered");
        ("replayed", int replayed);
        ("torn", Json.Bool torn);
      ]

let state_fields = function
  | Pending -> [ ("state", str "pending") ]
  | Running -> [ ("state", str "running") ]
  | Committed v -> [ ("state", str "committed"); ("value", str v) ]
  | Aborted None -> [ ("state", str "aborted") ]
  | Aborted (Some why) -> [ ("state", str "aborted"); ("veto", str why) ]

let shard_row_to_json r =
  obj
    [
      ("shard", int r.r_shard);
      ("submitted", int r.r_submitted);
      ("committed", int r.r_committed);
      ("aborted", int r.r_aborted);
      ("vetoed", int r.r_vetoed);
      ("live", int r.r_live);
    ]

let per_shard_fields = function
  | [] -> []
  | rows -> [ ("shards", Json.Arr (List.map shard_row_to_json rows)) ]

let hist_to_json h =
  obj
    [
      ("count", int h.h_count);
      ("sum", int h.h_sum);
      ("min", int h.h_min);
      ("max", int h.h_max);
      ("p50", int h.h_p50);
      ("p99", int h.h_p99);
      ("p999", int h.h_p999);
      ( "buckets",
        Json.Arr
          (List.map (fun (i, n) -> Json.Arr [ int i; int n ]) h.h_buckets) );
    ]

let telemetry_to_json t =
  obj
    ([
      ("type", str "telemetry");
      ("seq", int t.seq);
      ("t", Json.Float t.t_mono);
      ("interval_s", Json.Float t.interval_s);
      ( "win",
        obj
          [
            ("requests", int t.w_requests);
            ("submitted", int t.w_submitted);
            ("committed", int t.w_committed);
            ("aborted", int t.w_aborted);
            ("vetoed", int t.w_vetoed);
            ("orphans", int t.w_orphans);
            ("alarms", int t.w_alarms);
            ("latency_us", hist_to_json t.w_latency);
          ] );
      ( "occ",
        obj
          [
            ("live", int t.o_live);
            ("doomed", int t.o_doomed);
            ("conns", int t.o_conns);
            ("subscribers", int t.o_subscribers);
          ] );
      ( "total",
        obj
          [
            ("submitted", int t.c_submitted);
            ("committed", int t.c_committed);
            ("aborted", int t.c_aborted);
            ("vetoed", int t.c_vetoed);
            ("alarms", int t.c_alarms);
          ] );
      ( "sg",
        obj
          [
            ("nodes", int t.sg_nodes);
            ("edges", int t.sg_edges);
            ("reorders", int t.sg_reorders);
          ] );
      ( "hot",
        Json.Arr
          (List.map (fun (x, w) -> Json.Arr [ str x; int w ]) t.hot) );
      ( "stages",
        obj (List.map (fun (s, h) -> (s, hist_to_json h)) t.stages) );
      ( "gc",
        obj
          [ ("pause_us", hist_to_json t.gc_pause); ("pct", Json.Float t.gc_pct) ]
      );
    ]
    @ per_shard_fields t.per_shard)

let response_to_json = function
  | Welcome { server; version; backend; status; objects; shards } ->
      obj
        ([
           ("type", str "welcome");
           ("server", str server);
           ("version", str version);
           ("protocol", int protocol_version);
           ("backend", str backend);
           ("shards", int shards);
         ]
        @ status_fields status
        @ [
            ( "objects",
              Json.Arr
                (List.map
                   (fun (name, decl) ->
                     obj [ ("name", str name); ("decl", str decl) ])
                   objects) );
          ])
  | Accepted { txn = t; req } ->
      obj (("type", str "accepted") :: opt_req req [ ("txn", txn t) ])
  | Rejected { why; req } ->
      obj (("type", str "rejected") :: opt_req req [ ("why", str why) ])
  | State { txn = t; state; req } ->
      obj
        (("type", str "state")
        :: opt_req req (("txn", txn t) :: state_fields state))
  | Metrics_dump j -> obj [ ("type", str "metrics"); ("metrics", j) ]
  | Telemetry t -> telemetry_to_json t
  | Pong { t_mono; live; doomed; conns; status } ->
      obj
        ([
           ("type", str "pong");
           ("t", Json.Float t_mono);
           ("live", int live);
           ("doomed", int doomed);
           ("conns", int conns);
         ]
        @ status_fields status)
  | Dumped { spans; dropped; jsonl; chrome } ->
      obj
        [
          ("type", str "dumped");
          ("spans", int spans);
          ("dropped", int dropped);
          ("jsonl", str jsonl);
          ("chrome", str chrome);
        ]
  | Quiesced { committed; aborted; vetoed; alarms; per_shard } ->
      obj
        ([
           ("type", str "quiesced");
           ("committed", int committed);
           ("aborted", int aborted);
           ("vetoed", int vetoed);
           ("alarms", int alarms);
         ]
        @ per_shard_fields per_shard)
  | Goodbye -> obj [ ("type", str "goodbye") ]
  | Error_msg why -> obj [ ("type", str "error"); ("why", str why) ]

(* --- decoding --- *)

let ( let* ) r f = Result.bind r f

let field name j =
  match Json.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let str_field name j =
  let* v = field name j in
  match Json.to_str_opt v with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "field %S: expected a string" name)

let int_field name j =
  let* v = field name j in
  match Json.to_int_opt v with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "field %S: expected an integer" name)

let float_field name j =
  let* v = field name j in
  match v with
  | Json.Float f -> Ok f
  | Json.Int n -> Ok (float_of_int n)
  | _ -> Error (Printf.sprintf "field %S: expected a number" name)

let req_field j =
  match Json.member "req" j with
  | None -> Ok None
  | Some v -> (
      match Json.to_str_opt v with
      | Some r -> Ok (Some r)
      | None -> Error "field \"req\": expected a string")

let txn_field name j =
  let* s = str_field name j in
  match Txn_id.of_string s with
  | Some t -> Ok t
  | None -> Error (Printf.sprintf "field %S: bad transaction name %S" name s)

let request_of_json j =
  let* ty = str_field "type" j in
  match ty with
  | "hello" ->
      let* client = str_field "client" j in
      Ok (Hello { client })
  | "submit" ->
      let* program = str_field "program" j in
      let* req = req_field j in
      Ok (Submit { program; req })
  | "status" ->
      let* t = txn_field "txn" j in
      Ok (Status t)
  | "metrics" -> Ok Metrics
  | "subscribe" -> Ok Subscribe
  | "ping" -> Ok Ping
  | "dump" -> Ok Dump
  | "quiesce" -> Ok Quiesce
  | "shutdown" -> Ok Shutdown
  | other -> Error (Printf.sprintf "unknown request type %S" other)

(* Absent on pre-durability servers: default [Fresh]. *)
let status_of_json j =
  match Json.member "status" j with
  | None -> Ok Fresh
  | Some v -> (
      match Json.to_str_opt v with
      | None -> Error "field \"status\": expected a string"
      | Some "fresh" -> Ok Fresh
      | Some "recovering" ->
          let* replayed = int_field "replayed" j in
          let* total = int_field "total" j in
          Ok (Recovering { replayed; total })
      | Some "recovered" ->
          let* replayed = int_field "replayed" j in
          let torn =
            match Json.member "torn" j with
            | Some (Json.Bool b) -> b
            | _ -> false
          in
          Ok (Recovered { replayed; torn })
      | Some other -> Error (Printf.sprintf "unknown server status %S" other))

let state_of_json j =
  let* st = str_field "state" j in
  match st with
  | "pending" -> Ok Pending
  | "running" -> Ok Running
  | "committed" ->
      let* v = str_field "value" j in
      Ok (Committed v)
  | "aborted" -> (
      match Json.member "veto" j with
      | Some v -> (
          match Json.to_str_opt v with
          | Some why -> Ok (Aborted (Some why))
          | None -> Error "field \"veto\": expected a string")
      | None -> Ok (Aborted None))
  | other -> Error (Printf.sprintf "unknown transaction state %S" other)

let pairs_field ~name ~of_fst ~of_snd j =
  match Json.member name j with
  | Some (Json.Arr items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | Json.Arr [ a; b ] -> (
              match (of_fst a, of_snd b) with
              | Some a, Some b -> Ok ((a, b) :: acc)
              | _ ->
                  Error (Printf.sprintf "field %S: bad pair element" name))
          | _ -> Error (Printf.sprintf "field %S: expected pairs" name))
        (Ok []) items
      |> Result.map List.rev
  | Some _ -> Error (Printf.sprintf "field %S: expected an array" name)
  | None -> Error (Printf.sprintf "missing field %S" name)

let hist_of_json j =
  let* h_count = int_field "count" j in
  let* h_sum = int_field "sum" j in
  let* h_min = int_field "min" j in
  let* h_max = int_field "max" j in
  let* h_p50 = int_field "p50" j in
  let* h_p99 = int_field "p99" j in
  let* h_p999 = int_field "p999" j in
  let* h_buckets =
    pairs_field ~name:"buckets" ~of_fst:Json.to_int_opt
      ~of_snd:Json.to_int_opt j
  in
  Ok { h_count; h_sum; h_min; h_max; h_p50; h_p99; h_p999; h_buckets }

(* Absent on single-engine servers and pre-v5 peers: default []. *)
let per_shard_of_json j =
  match Json.member "shards" j with
  | None -> Ok []
  | Some (Json.Arr items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* r_shard = int_field "shard" item in
          let* r_submitted = int_field "submitted" item in
          let* r_committed = int_field "committed" item in
          let* r_aborted = int_field "aborted" item in
          let* r_vetoed = int_field "vetoed" item in
          let* r_live = int_field "live" item in
          Ok
            ({ r_shard; r_submitted; r_committed; r_aborted; r_vetoed; r_live }
            :: acc))
        (Ok []) items
      |> Result.map List.rev
  | Some _ -> Error "field \"shards\": expected an array"

let telemetry_of_json j =
  let* seq = int_field "seq" j in
  let* t_mono = float_field "t" j in
  let* interval_s = float_field "interval_s" j in
  let* win = field "win" j in
  let* w_requests = int_field "requests" win in
  let* w_submitted = int_field "submitted" win in
  let* w_committed = int_field "committed" win in
  let* w_aborted = int_field "aborted" win in
  let* w_vetoed = int_field "vetoed" win in
  let* w_orphans = int_field "orphans" win in
  let* w_alarms = int_field "alarms" win in
  let* lat = field "latency_us" win in
  let* w_latency = hist_of_json lat in
  let* occ = field "occ" j in
  let* o_live = int_field "live" occ in
  let* o_doomed = int_field "doomed" occ in
  let* o_conns = int_field "conns" occ in
  let* o_subscribers = int_field "subscribers" occ in
  let* total = field "total" j in
  let* c_submitted = int_field "submitted" total in
  let* c_committed = int_field "committed" total in
  let* c_aborted = int_field "aborted" total in
  let* c_vetoed = int_field "vetoed" total in
  let* c_alarms = int_field "alarms" total in
  let* sg = field "sg" j in
  let* sg_nodes = int_field "nodes" sg in
  let* sg_edges = int_field "edges" sg in
  let* sg_reorders = int_field "reorders" sg in
  let* hot =
    pairs_field ~name:"hot" ~of_fst:Json.to_str_opt ~of_snd:Json.to_int_opt j
  in
  let* stages =
    match Json.member "stages" j with
    | Some (Json.Obj fields) ->
        List.fold_left
          (fun acc (name, hj) ->
            let* acc = acc in
            let* h = hist_of_json hj in
            Ok ((name, h) :: acc))
          (Ok []) fields
        |> Result.map List.rev
    | Some _ -> Error "field \"stages\": expected an object"
    | None -> Ok []
  in
  let* gc_pause, gc_pct =
    match Json.member "gc" j with
    | None -> Ok (empty_hist, 0.)
    | Some gc ->
        let* p = field "pause_us" gc in
        let* gc_pause = hist_of_json p in
        let* gc_pct = float_field "pct" gc in
        Ok (gc_pause, gc_pct)
  in
  let* per_shard = per_shard_of_json j in
  Ok
    {
      seq;
      t_mono;
      interval_s;
      w_requests;
      w_submitted;
      w_committed;
      w_aborted;
      w_vetoed;
      w_orphans;
      w_alarms;
      w_latency;
      o_live;
      o_doomed;
      o_conns;
      o_subscribers;
      c_submitted;
      c_committed;
      c_aborted;
      c_vetoed;
      c_alarms;
      sg_nodes;
      sg_edges;
      sg_reorders;
      hot;
      stages;
      gc_pause;
      gc_pct;
      per_shard;
    }

let response_of_json j =
  let* ty = str_field "type" j in
  match ty with
  | "welcome" ->
      let* server = str_field "server" j in
      let* version = str_field "version" j in
      let* backend = str_field "backend" j in
      let* objects =
        match Json.member "objects" j with
        | Some (Json.Arr items) ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                let* name = str_field "name" item in
                let* decl = str_field "decl" item in
                Ok ((name, decl) :: acc))
              (Ok []) items
            |> Result.map List.rev
        | Some _ -> Error "field \"objects\": expected an array"
        | None -> Error "missing field \"objects\""
      in
      let* status = status_of_json j in
      (* Absent on pre-v5 servers: a single engine. *)
      let shards =
        match Json.member "shards" j with
        | Some v -> Option.value ~default:1 (Json.to_int_opt v)
        | None -> 1
      in
      Ok (Welcome { server; version; backend; status; objects; shards })
  | "accepted" ->
      let* t = txn_field "txn" j in
      let* req = req_field j in
      Ok (Accepted { txn = t; req })
  | "rejected" ->
      let* why = str_field "why" j in
      let* req = req_field j in
      Ok (Rejected { why; req })
  | "state" ->
      let* t = txn_field "txn" j in
      let* state = state_of_json j in
      let* req = req_field j in
      Ok (State { txn = t; state; req })
  | "metrics" ->
      let* m = field "metrics" j in
      Ok (Metrics_dump m)
  | "telemetry" ->
      let* t = telemetry_of_json j in
      Ok (Telemetry t)
  | "pong" ->
      let* t_mono = float_field "t" j in
      let* live = int_field "live" j in
      let* doomed = int_field "doomed" j in
      let* conns = int_field "conns" j in
      let* status = status_of_json j in
      Ok (Pong { t_mono; live; doomed; conns; status })
  | "dumped" ->
      let* spans = int_field "spans" j in
      let* dropped = int_field "dropped" j in
      let* jsonl = str_field "jsonl" j in
      let* chrome = str_field "chrome" j in
      Ok (Dumped { spans; dropped; jsonl; chrome })
  | "quiesced" ->
      let* committed = int_field "committed" j in
      let* aborted = int_field "aborted" j in
      let* vetoed = int_field "vetoed" j in
      let* alarms = int_field "alarms" j in
      let* per_shard = per_shard_of_json j in
      Ok (Quiesced { committed; aborted; vetoed; alarms; per_shard })
  | "goodbye" -> Ok Goodbye
  | "error" ->
      let* why = str_field "why" j in
      Ok (Error_msg why)
  | other -> Error (Printf.sprintf "unknown response type %S" other)

let decode_with of_json payload =
  let* j = Json.parse payload in
  of_json j

let encode_request r = frame (Json.to_string (request_to_json r))
let decode_request payload = decode_with request_of_json payload
let encode_response r = frame (Json.to_string (response_to_json r))
let decode_response payload = decode_with response_of_json payload

let hist_of_metrics h =
  let s = Metrics.histogram_stats h in
  {
    h_count = s.Metrics.count;
    h_sum = s.Metrics.sum;
    h_min = s.Metrics.min;
    h_max = s.Metrics.max;
    h_p50 = s.Metrics.p50;
    h_p99 = s.Metrics.p99;
    h_p999 = s.Metrics.p999;
    h_buckets = Metrics.histogram_buckets h;
  }

let pp_request ppf r =
  Format.pp_print_string ppf (Json.to_string (request_to_json r))

let pp_response ppf r =
  Format.pp_print_string ppf (Json.to_string (response_to_json r))
