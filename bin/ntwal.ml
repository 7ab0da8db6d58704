(* ntwal: inspect and verify ntserved write-ahead logs.

     ntwal dump FILE            pretty-print a log or snapshot, with the
                                torn-tail diagnosis the recovery path
                                would act on
     ntwal verify FILE --socket PATH
                                connect to a (recovered) server and
                                Status-query every Outcome record in the
                                log: the durability contract says each
                                acknowledged completion in the intact
                                prefix must be reproduced exactly

   The verify half is what the CI crash-smoke job runs after kill -9 +
   restart: it asserts the prefix-closure property end to end, over the
   wire, against the replayed engine. *)

open Core
open Cmdliner

let read_whole path =
  match open_in_bin path with
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Ok s
  | exception Sys_error e -> Error e

let pp_outcome fmt = function
  | Wal.Committed v -> Format.fprintf fmt "committed %s" v
  | Wal.Aborted None -> Format.fprintf fmt "aborted"
  | Wal.Aborted (Some w) -> Format.fprintf fmt "aborted (veto: %s)" w

let pp_record fmt = function
  | Wal.Meta { seed; backend; policy; inform; abort_prob; objects } ->
      Format.fprintf fmt "meta seed=%d backend=%s policy=%s inform=%s \
                          abort-prob=%g objects=[%s]"
        seed backend policy inform abort_prob
        (String.concat " " (List.map fst objects))
  | Wal.Submit { req; client; program } ->
      Format.fprintf fmt "submit client=%s%s %s" client
        (match req with Some r -> " req=" ^ r | None -> "")
        (String.trim program)
  | Wal.Kill { txn } -> Format.fprintf fmt "kill %s" (Txn_id.to_string txn)
  | Wal.Steps n -> Format.fprintf fmt "steps %d" n
  | Wal.Outcome { txn; outcome } ->
      Format.fprintf fmt "outcome %s %a" (Txn_id.to_string txn) pp_outcome
        outcome
  | Wal.Sg_state { nodes; edges } ->
      Format.fprintf fmt "sg-state %d nodes, %d edges" (Array.length nodes)
        (List.length edges)
  | Wal.Counts { submitted; committed; aborted; vetoed } ->
      Format.fprintf fmt
        "counts submitted=%d committed=%d aborted=%d vetoed=%d" submitted
        committed aborted vetoed

let dump_scanned what (sc : Wal.scanned) =
  Format.printf "%s: base-seq %d, %d records, %d valid bytes@." what
    sc.Wal.sc_base_seq
    (List.length sc.Wal.sc_records)
    sc.Wal.sc_valid;
  List.iteri
    (fun i r ->
      let off = List.nth sc.Wal.sc_offsets i in
      Format.printf "  %6d @%-8d %a@." (sc.Wal.sc_base_seq + i) off pp_record
        r)
    sc.Wal.sc_records;
  match sc.Wal.sc_tail with
  | Wal.Clean -> Format.printf "  tail: clean@."
  | Wal.Torn { valid; why } ->
      Format.printf "  tail: TORN after byte %d (%s)@." valid why

let dump_cmd file =
  match read_whole file with
  | Error e ->
      Format.eprintf "ntwal: %s@." e;
      exit 2
  | Ok image -> (
      match Wal.scan ~magic:Wal.wal_magic image with
      | Ok sc ->
          dump_scanned "log" sc;
          if sc.Wal.sc_tail <> Wal.Clean then exit 1
      | Error _ -> (
          (* not a log: try the snapshot magic before giving up *)
          match Wal.decode_snapshot image with
          | Ok sn ->
              Format.printf "snapshot: covers seq < %d@." sn.Wal.sn_next_seq;
              Format.printf "  %a@." pp_record sn.Wal.sn_meta;
              List.iter
                (fun r -> Format.printf "  %a@." pp_record r)
                sn.Wal.sn_events;
              Format.printf "  %a@." pp_record sn.Wal.sn_sg;
              Format.printf "  %a@." pp_record sn.Wal.sn_counts
          | Error e ->
              Format.eprintf "ntwal: %s: %s@." file e;
              exit 2))

(* ----- verify: the prefix closure, over the wire ----- *)

let verify_cmd file addr =
  let image =
    match read_whole file with
    | Ok s -> s
    | Error e ->
        Format.eprintf "ntwal: %s@." e;
        exit 2
  in
  let sc =
    match Wal.scan ~magic:Wal.wal_magic image with
    | Ok sc -> sc
    | Error e ->
        Format.eprintf "ntwal: %s: %s@." file e;
        exit 2
  in
  let outcomes =
    List.filter_map
      (function Wal.Outcome { txn; outcome } -> Some (txn, outcome) | _ -> None)
      sc.Wal.sc_records
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let c = Wire_client.dial addr in
  (match Wire_client.call c (Wire.Hello { client = "ntwal" }) with
  | Wire.Welcome _ -> ()
  | _ -> failwith "expected Welcome");
  (* wait out an in-flight recovery: the contract holds only once the
     replay has completed and been validated *)
  let rec wait_recovered () =
    match Wire_client.call c Wire.Ping with
    | Wire.Pong { status = Wire.Recovering { replayed; total }; _ } ->
        Format.printf "ntwal: server recovering (%d/%d)...@." replayed total;
        Unix.sleepf 0.1;
        wait_recovered ()
    | Wire.Pong { status; _ } -> status
    | _ -> failwith "expected Pong"
  in
  let status = wait_recovered () in
  let mismatches = ref 0 in
  List.iter
    (fun (txn, logged) ->
      let state =
        match Wire_client.call c (Wire.Status txn) with
        | Wire.State { state; _ } -> state
        | _ -> failwith "expected State"
      in
      let ok =
        match (logged, state) with
        | Wal.Committed v, Wire.Committed v' -> String.equal v v'
        | Wal.Aborted _, Wire.Aborted _ -> true
        | _ -> false
      in
      if not ok then begin
        incr mismatches;
        Format.printf "ntwal: MISMATCH %s: logged %a, served %s@."
          (Txn_id.to_string txn) pp_outcome logged
          (match state with
          | Wire.Committed v -> "committed " ^ v
          | Wire.Aborted _ -> "aborted"
          | Wire.Pending -> "pending"
          | Wire.Running -> "running")
      end)
    outcomes;
  Wire_client.close c;
  Format.printf "ntwal: %d outcomes verified against %s server, %d mismatches%s@."
    (List.length outcomes)
    (match status with
    | Wire.Fresh -> "fresh"
    | Wire.Recovered { torn = true; _ } -> "recovered (torn tail)"
    | Wire.Recovered _ -> "recovered"
    | Wire.Recovering _ -> "recovering")
    !mismatches
    (match sc.Wal.sc_tail with
    | Wal.Clean -> ""
    | Wal.Torn _ -> " (log tail torn; verified the intact prefix)");
  if !mismatches > 0 then exit 1

let dump =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "dump" ~doc:"Pretty-print a write-ahead log or snapshot.")
    Term.(const dump_cmd $ file)

let verify =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check every Outcome record in FILE against a serving (typically \
          just-recovered) ntserved: the acknowledged prefix must be \
          reproduced exactly.")
    Term.(const verify_cmd $ file $ Wire_client.addr "ntwal")

let cmd =
  Cmd.group
    (Cmd.info "ntwal" ~version:Version.string
       ~doc:"Inspect and verify ntserved write-ahead logs.")
    [ dump; verify ]

let () = exit (Cmd.eval cmd)
