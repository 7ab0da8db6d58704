(* The write-ahead log: framing, checksums, torn-tail-tolerant
   scanning, group-commit batching and snapshot encode/decode.  See
   wal.mli for the format and doc/durability.mld for the recovery
   argument.  No I/O and no [unix] here: byte sinks and fsync are
   injected, like the engine's clock. *)

open Nt_base

let wal_magic = "NTWAL03\n"
let snap_magic = "NTSNAP4\n"
let header_len = 16
let max_record = 16 * 1024 * 1024

(* ----- CRC32 (IEEE 802.3, reflected, poly 0xEDB88320) ----- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  String.iter
    (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8))
    s;
  !c lxor 0xFFFFFFFF

(* ----- records ----- *)

type outcome = Committed of string | Aborted of string option

type record =
  | Meta of {
      seed : int;
      backend : string;
      policy : string;
      inform : string;
      abort_prob : float;
      objects : (string * string) list;
    }
  | Submit of { req : string option; client : string; program : string }
  | Kill of { txn : Txn_id.t }
  | Steps of int
  | Outcome of { txn : Txn_id.t; outcome : outcome }
  | Sg_state of { nodes : string array; edges : (int * int) list }
  | Counts of { submitted : int; committed : int; aborted : int; vetoed : int }

let record_name = function
  | Meta _ -> "meta"
  | Submit _ -> "submit"
  | Kill _ -> "kill"
  | Steps _ -> "steps"
  | Outcome _ -> "outcome"
  | Sg_state _ -> "sg-state"
  | Counts _ -> "counts"

(* ----- binary encode ----- *)

let add_u8 b n = Buffer.add_char b (Char.chr (n land 0xFF))

let add_u32 b n =
  add_u8 b (n lsr 24);
  add_u8 b (n lsr 16);
  add_u8 b (n lsr 8);
  add_u8 b n

let add_u64 b n =
  add_u32 b ((n lsr 32) land 0xFFFFFFFF);
  add_u32 b (n land 0xFFFFFFFF)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_opt_str b = function
  | None -> add_u8 b 0
  | Some s ->
      add_u8 b 1;
      add_str b s

let tag_of = function
  | Meta _ -> 1
  | Submit _ -> 2
  | Kill _ -> 3
  | Steps _ -> 4
  | Outcome _ -> 5
  | Sg_state _ -> 6
  | Counts _ -> 7

let payload_of r =
  let b = Buffer.create 64 in
  add_u8 b (tag_of r);
  (match r with
  | Meta { seed; backend; policy; inform; abort_prob; objects } ->
      add_u64 b seed;
      add_str b backend;
      add_str b policy;
      add_str b inform;
      (* [abort_prob] is non-negative, so the sign bit is clear and the
         IEEE image fits OCaml's 63-bit int exactly. *)
      add_u64 b (Int64.to_int (Int64.bits_of_float abort_prob));
      add_u32 b (List.length objects);
      List.iter
        (fun (name, decl) ->
          add_str b name;
          add_str b decl)
        objects
  | Submit { req; client; program } ->
      add_opt_str b req;
      add_str b client;
      add_str b program
  | Kill { txn } -> add_str b (Txn_id.to_string txn)
  | Steps n -> add_u64 b n
  | Outcome { txn; outcome } -> (
      add_str b (Txn_id.to_string txn);
      match outcome with
      | Committed v ->
          add_u8 b 0;
          add_str b v
      | Aborted None -> add_u8 b 1
      | Aborted (Some why) ->
          add_u8 b 2;
          add_str b why)
  | Sg_state { nodes; edges } ->
      add_u32 b (Array.length nodes);
      Array.iter (fun n -> add_str b n) nodes;
      add_u32 b (List.length edges);
      List.iter
        (fun (u, v) ->
          add_u32 b u;
          add_u32 b v)
        edges
  | Counts { submitted; committed; aborted; vetoed } ->
      add_u64 b submitted;
      add_u64 b committed;
      add_u64 b aborted;
      add_u64 b vetoed);
  Buffer.contents b

let encode_record r =
  let payload = payload_of r in
  let b = Buffer.create (String.length payload + 8) in
  add_u32 b (String.length payload);
  add_u32 b (crc32 payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* ----- binary decode (total: exceptions confined to this block) ----- *)

exception Bad of string

type cursor = { s : string; mutable pos : int }

let need c n msg =
  if c.pos + n > String.length c.s then
    raise (Bad (Printf.sprintf "truncated %s at byte %d" msg c.pos))

let get_u8 c msg =
  need c 1 msg;
  let n = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  n

let get_u32 c msg =
  need c 4 msg;
  let b i = Char.code c.s.[c.pos + i] in
  let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  n

let get_u64 c msg =
  let hi = get_u32 c msg in
  let lo = get_u32 c msg in
  (hi lsl 32) lor lo

let get_str c msg =
  let n = get_u32 c msg in
  if n > max_record then raise (Bad (Printf.sprintf "implausible %s length %d" msg n));
  need c n msg;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt_str c msg =
  match get_u8 c msg with
  | 0 -> None
  | 1 -> Some (get_str c msg)
  | k -> raise (Bad (Printf.sprintf "bad option tag %d for %s" k msg))

let get_txn c msg =
  let s = get_str c msg in
  match Txn_id.of_string s with
  | Some t -> t
  | None -> raise (Bad (Printf.sprintf "bad transaction name %S in %s" s msg))

let decode_payload payload =
  let c = { s = payload; pos = 0 } in
  match
    let r =
      match get_u8 c "tag" with
      | 1 ->
          let seed = get_u64 c "meta.seed" in
          let backend = get_str c "meta.backend" in
          let policy = get_str c "meta.policy" in
          let inform = get_str c "meta.inform" in
          let abort_prob =
            Int64.float_of_bits (Int64.of_int (get_u64 c "meta.abort-prob"))
          in
          let n = get_u32 c "meta.objects" in
          if n > max_record then raise (Bad "implausible object count");
          let objects =
            List.init n (fun _ ->
                let name = get_str c "meta.object.name" in
                let decl = get_str c "meta.object.decl" in
                (name, decl))
          in
          Meta { seed; backend; policy; inform; abort_prob; objects }
      | 2 ->
          let req = get_opt_str c "submit.req" in
          let client = get_str c "submit.client" in
          let program = get_str c "submit.program" in
          Submit { req; client; program }
      | 3 -> Kill { txn = get_txn c "kill.txn" }
      | 4 -> Steps (get_u64 c "steps")
      | 5 -> (
          let txn = get_txn c "outcome.txn" in
          match get_u8 c "outcome.kind" with
          | 0 -> Outcome { txn; outcome = Committed (get_str c "outcome.value") }
          | 1 -> Outcome { txn; outcome = Aborted None }
          | 2 ->
              Outcome { txn; outcome = Aborted (Some (get_str c "outcome.veto")) }
          | k -> raise (Bad (Printf.sprintf "bad outcome kind %d" k)))
      | 6 ->
          let n = get_u32 c "sg.nodes" in
          if n > max_record then raise (Bad "implausible node count");
          let nodes = Array.init n (fun _ -> get_str c "sg.node") in
          let m = get_u32 c "sg.edges" in
          if m > max_record then raise (Bad "implausible edge count");
          let edges =
            List.init m (fun _ ->
                let u = get_u32 c "sg.edge.src" in
                let v = get_u32 c "sg.edge.dst" in
                if u >= n || v >= n then
                  raise (Bad (Printf.sprintf "edge (%d,%d) out of range" u v));
                (u, v))
          in
          Sg_state { nodes; edges }
      | 7 ->
          let submitted = get_u64 c "counts.submitted" in
          let committed = get_u64 c "counts.committed" in
          let aborted = get_u64 c "counts.aborted" in
          let vetoed = get_u64 c "counts.vetoed" in
          Counts { submitted; committed; aborted; vetoed }
      | t -> raise (Bad (Printf.sprintf "unknown record tag %d" t))
    in
    if c.pos <> String.length payload then
      raise
        (Bad
           (Printf.sprintf "%d trailing bytes after %s record"
              (String.length payload - c.pos)
              (record_name r)));
    r
  with
  | r -> Ok r
  | exception Bad e -> Error e

(* ----- file header and scanning ----- *)

let header ~magic ~base_seq =
  let b = Buffer.create header_len in
  Buffer.add_string b magic;
  add_u64 b base_seq;
  Buffer.contents b

type tail = Clean | Torn of { valid : int; why : string }

type scanned = {
  sc_base_seq : int;
  sc_records : record list;
  sc_offsets : int list;
  sc_valid : int;
  sc_tail : tail;
}

let scan ~magic s =
  let len = String.length s in
  if len = 0 then
    Ok
      {
        sc_base_seq = 0;
        sc_records = [];
        sc_offsets = [];
        sc_valid = 0;
        sc_tail = Clean;
      }
  else if len < header_len then
    (* Too short to even hold the header.  If what is there agrees with
       the magic it is a torn header (crash during creation); anything
       else is not our file. *)
    let n = min len (String.length magic) in
    if String.sub s 0 n = String.sub magic 0 n then
      Ok
        {
          sc_base_seq = 0;
          sc_records = [];
          sc_offsets = [];
          sc_valid = 0;
          sc_tail = Torn { valid = 0; why = "truncated file header" };
        }
    else Error (Printf.sprintf "bad magic (not a %s file)" (String.trim magic))
  else if String.sub s 0 (String.length magic) <> magic then
    Error (Printf.sprintf "bad magic (not a %s file)" (String.trim magic))
  else begin
    let c = { s; pos = String.length magic } in
    let base_seq = get_u64 c "base-seq" in
    let records = ref [] and offsets = ref [] in
    let tail = ref Clean and valid = ref header_len in
    let pos = ref header_len in
    (try
       while !pos < len do
         let remaining = len - !pos in
         if remaining < 8 then begin
           tail :=
             Torn
               {
                 valid = !valid;
                 why =
                   Printf.sprintf "truncated length prefix (%d bytes)" remaining;
               };
           raise Exit
         end;
         let c = { s; pos = !pos } in
         let plen = get_u32 c "length" in
         let crc = get_u32 c "crc" in
         if plen > max_record then begin
           tail :=
             Torn
               {
                 valid = !valid;
                 why = Printf.sprintf "implausible record length %d" plen;
               };
           raise Exit
         end;
         if remaining - 8 < plen then begin
           tail :=
             Torn
               {
                 valid = !valid;
                 why =
                   Printf.sprintf "cut mid-record (want %d payload bytes, have %d)"
                     plen (remaining - 8);
               };
           raise Exit
         end;
         let payload = String.sub s (!pos + 8) plen in
         if crc32 payload <> crc then begin
           tail := Torn { valid = !valid; why = "checksum mismatch" };
           raise Exit
         end;
         (match decode_payload payload with
         | Ok r ->
             records := r :: !records;
             offsets := !pos :: !offsets
         | Error e ->
             tail := Torn { valid = !valid; why = "undecodable record: " ^ e };
             raise Exit);
         pos := !pos + 8 + plen;
         valid := !pos
       done
     with Exit -> ());
    Ok
      {
        sc_base_seq = base_seq;
        sc_records = List.rev !records;
        sc_offsets = List.rev !offsets;
        sc_valid = !valid;
        sc_tail = !tail;
      }
  end

(* ----- writer ----- *)

type sink = { write : string -> unit; sync : unit -> unit }

let buffer_sink b = { write = Buffer.add_string b; sync = (fun () -> ()) }

module Writer = struct
  type t = {
    sink : sink;
    fsync_batch : int;
    fsync_interval_s : float;
    clock : (unit -> float) option;
    on_sync : unit -> unit;
    mutable next_seq : int;
    mutable appended : int;
    mutable syncs : int;
    mutable bytes : int;
    mutable dirty : int;  (* records appended since the last sync *)
    mutable last_sync : float;
    mutable pending : (Txn_id.t * outcome) list;  (* newest first *)
  }

  let create ?(fsync_batch = 1) ?(fsync_interval_s = 0.) ?clock ?(fresh = true)
      ~base_seq ~on_sync sink =
    let t =
      {
        sink;
        fsync_batch;
        fsync_interval_s;
        clock;
        on_sync;
        next_seq = base_seq;
        appended = 0;
        syncs = 0;
        bytes = 0;
        dirty = 0;
        last_sync = (match clock with Some c -> c () | None -> 0.);
        pending = [];
      }
    in
    if fresh then begin
      let h = header ~magic:wal_magic ~base_seq in
      sink.write h;
      t.bytes <- t.bytes + String.length h
    end;
    t

  let do_sync t =
    t.sink.sync ();
    t.syncs <- t.syncs + 1;
    t.dirty <- 0;
    (match t.clock with Some c -> t.last_sync <- c () | None -> ());
    t.on_sync ()

  (* One writer call is one [write] and at most one [sync]: durability
     is what a call promises when it returns, and no caller acts
     between two records of one call.  The bytes are those of the
     records written one at a time. *)
  let write_call t = function
    | [] -> ()
    | records ->
        let chunk = String.concat "" (List.map encode_record records) in
        let n = List.length records in
        t.sink.write chunk;
        t.bytes <- t.bytes + String.length chunk;
        t.next_seq <- t.next_seq + n;
        t.appended <- t.appended + n;
        t.dirty <- t.dirty + n;
        if t.fsync_batch > 0 && t.dirty >= t.fsync_batch then do_sync t

  let append t r = write_call t [ r ]
  let note_outcome t ~txn outcome = t.pending <- (txn, outcome) :: t.pending

  let log_steps t n =
    let outcomes =
      List.rev_map (fun (txn, outcome) -> Outcome { txn; outcome }) t.pending
    in
    t.pending <- [];
    write_call t (if n > 0 then Steps n :: outcomes else outcomes)

  let tick t =
    match t.clock with
    | Some c
      when t.dirty > 0 && t.fsync_interval_s > 0.
           && c () -. t.last_sync >= t.fsync_interval_s ->
        do_sync t
    | _ -> ()

  let flush t =
    log_steps t 0;
    if t.dirty > 0 then do_sync t

  let next_seq t = t.next_seq
  let appended t = t.appended
  let syncs t = t.syncs
  let bytes_written t = t.bytes
end

(* ----- snapshots ----- *)

type snapshot = {
  sn_next_seq : int;
  sn_meta : record;
  sn_events : record list;
  sn_sg : record;
  sn_counts : record;
}

let encode_snapshot sn =
  let b = Buffer.create 4096 in
  Buffer.add_string b (header ~magic:snap_magic ~base_seq:sn.sn_next_seq);
  let add r = Buffer.add_string b (encode_record r) in
  add sn.sn_meta;
  List.iter add sn.sn_events;
  add sn.sn_sg;
  add sn.sn_counts;
  Buffer.contents b

let decode_snapshot s =
  let ( let* ) = Result.bind in
  let* sc = scan ~magic:snap_magic s in
  match sc.sc_tail with
  | Torn { why; _ } ->
      (* Snapshots are written whole to a temp file and renamed into
         place, so a damaged tail is corruption, not a crash artifact. *)
      Error ("corrupt snapshot: " ^ why)
  | Clean -> (
      match sc.sc_records with
      | (Meta _ as meta) :: rest -> (
          let rec split acc = function
            | [ (Sg_state _ as sg); (Counts _ as counts) ] ->
                Ok (List.rev acc, sg, counts)
            | ((Submit _ | Kill _ | Steps _) as ev) :: rest ->
                split (ev :: acc) rest
            | r :: _ ->
                Error
                  (Printf.sprintf "corrupt snapshot: unexpected %s record"
                     (record_name r))
            | [] -> Error "corrupt snapshot: missing sg-state/counts trailer"
          in
          match split [] rest with
          | Ok (events, sg, counts) ->
              Ok
                {
                  sn_next_seq = sc.sc_base_seq;
                  sn_meta = meta;
                  sn_events = events;
                  sn_sg = sg;
                  sn_counts = counts;
                }
          | Error _ as e -> e)
      | _ -> Error "corrupt snapshot: missing meta record")

(* An incrementally-maintained replay closure: [push] merges adjacent
   [Steps] runs, drops empty ones and every non-replay record, so the
   retained list never holds two adjacent [Steps] nor any audit-only
   record.  With
   [e] retained [Submit]/[Kill] records the closure is at most
   [2*e + 1] records long, however many raw records were pushed. *)
module Closure = struct
  type t = {
    mutable rev : record list;  (* compacted, newest first *)
    mutable events : int;  (* retained [Submit]/[Kill] records *)
  }

  let create () = { rev = []; events = 0 }

  let push t r =
    match r with
    | Steps n when n > 0 -> (
        match t.rev with
        | Steps m :: rest -> t.rev <- Steps (n + m) :: rest
        | _ -> t.rev <- r :: t.rev)
    | Steps _ -> ()
    | Submit _ | Kill _ ->
        t.rev <- r :: t.rev;
        t.events <- t.events + 1
    | Outcome _ | Meta _ | Sg_state _ | Counts _ -> ()

  let of_records rs =
    let t = create () in
    List.iter (push t) rs;
    t

  let records t = List.rev t.rev
  let length t = List.length t.rev
  let events t = t.events
end

(* ----- replay ----- *)

type replay_event = [ `Submit of Nt_serial.Program.t | `Kill of Txn_id.t | `Steps of int ]

type replayable = {
  rp_events : replay_event list;
  rp_outcomes : (Txn_id.t * outcome) list;
}

let replayable_of_records ~base_seq ~skip_below records =
  let ( let* ) = Result.bind in
  let rec go i events outcomes = function
    | [] -> Ok { rp_events = List.rev events; rp_outcomes = List.rev outcomes }
    | r :: rest ->
        let seq = base_seq + i in
        if seq < skip_below then go (i + 1) events outcomes rest
        else
          let* events, outcomes =
            match r with
            | Meta _ -> Ok (events, outcomes)
            | Submit { program; _ } -> (
                match Nt_workload.Program_io.parse_program_text program with
                | Ok p -> Ok (`Submit p :: events, outcomes)
                | Error e ->
                    (* The checksum passed, so this is a writer bug, not
                       bit rot: refuse rather than guess. *)
                    Error
                      (Printf.sprintf "record %d: unparsable program: %s" seq e))
            | Kill { txn } -> Ok (`Kill txn :: events, outcomes)
            | Steps n -> Ok (`Steps n :: events, outcomes)
            | Outcome { txn; outcome } -> Ok (events, (txn, outcome) :: outcomes)
            | Sg_state _ | Counts _ ->
                Error
                  (Printf.sprintf "record %d: snapshot-only %s record in a log"
                     seq (record_name r))
          in
          go (i + 1) events outcomes rest
  in
  go 0 [] [] records

let check_outcomes state outcomes =
  let rec go n = function
    | [] -> Ok n
    | (txn, recorded) :: rest -> (
        let fail what =
          Error
            (Printf.sprintf "outcome of %s not reproduced: %s"
               (Txn_id.to_string txn) what)
        in
        match (recorded, state txn) with
        | Committed v, Engine.Committed v' ->
            let v' = Value.to_string v' in
            if String.equal v v' then go (n + 1) rest
            else
              fail (Printf.sprintf "logged commit value %s, replayed %s" v v')
        | Aborted _, Engine.Aborted _ -> go (n + 1) rest
        | Committed _, Engine.Aborted _ -> fail "logged committed, replayed aborted"
        | Aborted _, Engine.Committed _ -> fail "logged aborted, replayed committed"
        | _, Engine.Running -> fail "still running after replay"
        | _, Engine.Pending -> fail "still pending after replay"
        | _, Engine.Unknown -> fail "unknown to the replayed engine")
  in
  go 0 outcomes

(* ----- monitor-graph snapshots (dense interning) ----- *)

let sg_state_of_graph g =
  let nodes =
    Array.of_list (List.map Txn_id.to_string (Nt_sg.Graph.nodes g))
  in
  let index = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i n -> Hashtbl.replace index n i) nodes;
  let id t = Hashtbl.find index (Txn_id.to_string t) in
  let edges =
    List.rev
      (Nt_sg.Graph.fold_edges g (fun acc u v -> (id u, id v) :: acc) [])
  in
  Sg_state { nodes; edges }

let check_sg_state r g =
  match r with
  | Sg_state { nodes; edges } ->
      let want_nodes =
        List.sort_uniq String.compare (Array.to_list nodes)
      in
      let have_nodes =
        List.sort_uniq String.compare
          (List.map Txn_id.to_string (Nt_sg.Graph.nodes g))
      in
      if want_nodes <> have_nodes then
        Error
          (Printf.sprintf "snapshot SG has %d nodes, replayed monitor %d"
             (List.length want_nodes) (List.length have_nodes))
      else
        let name (u, v) = (nodes.(u), nodes.(v)) in
        let want_edges =
          List.sort_uniq compare (List.map name edges)
        in
        let have_edges =
          List.sort_uniq compare
            (List.map
               (fun (u, v) -> (Txn_id.to_string u, Txn_id.to_string v))
               (Nt_sg.Graph.edges g))
        in
        if want_edges <> have_edges then
          Error
            (Printf.sprintf "snapshot SG has %d edges, replayed monitor %d"
               (List.length want_edges) (List.length have_edges))
        else Ok ()
  | r ->
      Error
        (Printf.sprintf "expected an sg-state record, got %s" (record_name r))

(* ----- the log policy over one engine ----- *)

let meta ~seed ~backend ~policy ~inform_policy ~abort_prob objects =
  Meta
    {
      seed;
      backend;
      policy =
        (match policy with
        | Nt_generic.Runtime.Random_step -> "random-step"
        | Nt_generic.Runtime.Bsp_rounds -> "bsp-rounds");
      inform =
        (match inform_policy with
        | Nt_generic.Runtime.Eager -> "eager"
        | Nt_generic.Runtime.Lazy -> "lazy");
      abort_prob;
      objects =
        List.map
          (fun (x, dt) -> (Obj_id.name x, Nt_workload.Program_io.dtype_decl dt))
          objects;
    }

module Recovery = struct
  type check =
    | Snapshot_state of { sg : record; counts : record }
    | Outcome_prefix of (Txn_id.t * outcome) list

  type phase = { events : replay_event list; check : check }
  type problem = { culprit : [ `Log | `Snapshot ]; why : string }

  type plan = {
    phases : phase list;
    total : int;
    tail : tail;
    valid : int;
    base_seq : int;
    has_meta : bool;
    snapshot_trusted : bool;
    empty : bool;
    seed : record list;
    notes : problem list;
  }

  let weight = function `Steps n -> n | `Submit _ | `Kill _ -> 1
  let weigh events = List.fold_left (fun a e -> a + weight e) 0 events

  let rec drop n = function _ :: rest when n > 0 -> drop (n - 1) rest | l -> l
  let has_meta = List.exists (function Meta _ -> true | _ -> false)

  let plan ~meta ~log ~snapshot =
    let ( let* ) = Result.bind in
    let refuse culprit why = Error { culprit; why } in
    let blame culprit = Result.map_error (fun why -> { culprit; why }) in
    let* sc = blame `Log (scan ~magic:wal_magic log) in
    let records = sc.sc_records in
    (* A corrupt snapshot is never trusted.  While the log still holds
       the whole history it can be ignored; once the log was rotated
       past it, nothing can rebuild the prefix. *)
    let* snapshot, notes =
      match Option.map decode_snapshot snapshot with
      | None -> Ok (None, [])
      | Some (Ok sn) -> Ok (Some sn, [])
      | Some (Error e) when sc.sc_base_seq = 0 ->
          Ok
            ( None,
              [
                {
                  culprit = `Snapshot;
                  why = e ^ "; ignoring it (log holds full history)";
                };
              ] )
      | Some (Error e) -> refuse `Snapshot e
    in
    let* () =
      match snapshot with
      | Some sn when sn.sn_meta <> meta ->
          refuse `Snapshot "snapshot belongs to a different server configuration"
      | Some sn when sn.sn_next_seq < sc.sc_base_seq ->
          refuse `Log
            (Printf.sprintf
               "log starts at seq %d but the snapshot covers only seq < %d: \
                the records in between are lost"
               sc.sc_base_seq sn.sn_next_seq)
      | None when sc.sc_base_seq > 0 ->
          refuse `Log "log was rotated past a snapshot that is now missing"
      | _ ->
          if List.exists (function Meta _ as m -> m <> meta | _ -> false) records
          then refuse `Log "log belongs to a different server configuration"
          else if snapshot = None && records <> [] && not (has_meta records)
          then refuse `Log "log has records but no meta record"
          else Ok ()
    in
    let skip = match snapshot with Some sn -> sn.sn_next_seq | None -> 0 in
    let* tail_rp =
      blame `Log
        (replayable_of_records ~base_seq:sc.sc_base_seq ~skip_below:skip records)
    in
    let* head =
      match snapshot with
      | None -> Ok []
      | Some sn ->
          let* rp =
            blame `Snapshot
              (replayable_of_records ~base_seq:0 ~skip_below:0 sn.sn_events)
          in
          Ok
            [
              {
                events = rp.rp_events;
                check = Snapshot_state { sg = sn.sn_sg; counts = sn.sn_counts };
              };
            ]
    in
    let phases =
      head
      @ [ { events = tail_rp.rp_events; check = Outcome_prefix tail_rp.rp_outcomes } ]
    in
    let next = sc.sc_base_seq + List.length records in
    (* Without an intact header the log restarts as a new generation.
       So does one ending before the snapshot's cover point: appending
       there would reuse sequence numbers the snapshot already covers,
       and the snapshot holds everything the log lost. *)
    let restart = sc.sc_valid < header_len || next < skip in
    Ok
      {
        phases;
        total = List.fold_left (fun a ph -> a + weigh ph.events) 0 phases;
        tail = sc.sc_tail;
        valid = (if restart then 0 else sc.sc_valid);
        base_seq = (if restart then skip else next);
        has_meta = (not restart) && has_meta records;
        snapshot_trusted = snapshot <> None;
        empty = snapshot = None && records = [] && sc.sc_tail = Clean;
        seed =
          (match snapshot with Some sn -> sn.sn_events | None -> [])
          @ drop (skip - sc.sc_base_seq) records;
        notes;
      }
end
