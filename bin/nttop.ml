(* nttop: a terminal dashboard over ntserved's Telemetry stream.

   Connects, subscribes, and repaints a panel per pushed frame: the
   window's rates and latency percentiles, engine occupancy, cumulative
   totals, serialization-graph size and the hottest objects, plus the
   windowed latency histogram as a bar chart.

     nttop --socket /tmp/nt.sock
     nttop --port 7477 --frames 10
     nttop --socket /tmp/nt.sock --once     # one frame, no clearing: CI-able
     nttop --socket /tmp/nt.sock --json     # one JSON line per frame

   Exits nonzero if the stream dies before the requested frames, or if
   frame sequence numbers ever fail to increase. *)

open Core
open Cmdliner

(* ----- rendering ----- *)

let bar width n maxn =
  let w =
    if maxn <= 0 then 0
    else Stdlib.max 1 (n * width / Stdlib.max 1 maxn)
  in
  String.make (Stdlib.min w width) '#'

let render ~clear (f : Wire.telemetry) =
  if clear then print_string "\027[2J\027[H";
  let p = Format.printf in
  p "ntserved  seq %d  t=%.1fs  interval %.1fs@." f.Wire.seq f.Wire.t_mono
    f.Wire.interval_s;
  p "window  : %d req  %d submitted  %d committed  %d aborted  (%d vetoed, \
     %d orphans)  %d alarms@."
    f.Wire.w_requests f.Wire.w_submitted f.Wire.w_committed f.Wire.w_aborted
    f.Wire.w_vetoed f.Wire.w_orphans f.Wire.w_alarms;
  let rate n = float_of_int n /. f.Wire.interval_s in
  p "rates   : %.1f req/s  %.1f commit/s@."
    (rate f.Wire.w_requests)
    (rate f.Wire.w_committed);
  let h = f.Wire.w_latency in
  p "latency : p50 %dus  p99 %dus  p999 %dus  max %dus  (%d samples)@."
    h.Wire.h_p50 h.Wire.h_p99 h.Wire.h_p999 h.Wire.h_max h.Wire.h_count;
  p "engine  : %d live  %d doomed  %d conns  %d subscribers@." f.Wire.o_live
    f.Wire.o_doomed f.Wire.o_conns f.Wire.o_subscribers;
  p "totals  : %d submitted  %d committed  %d aborted  %d vetoed  %d alarms@."
    f.Wire.c_submitted f.Wire.c_committed f.Wire.c_aborted f.Wire.c_vetoed
    f.Wire.c_alarms;
  p "sg      : %d nodes  %d edges  %d reorders@." f.Wire.sg_nodes
    f.Wire.sg_edges f.Wire.sg_reorders;
  if f.Wire.per_shard <> [] then begin
    p "shards  :@.";
    let maxc =
      List.fold_left
        (fun m (r : Wire.shard_row) -> Stdlib.max m r.Wire.r_committed)
        0 f.Wire.per_shard
    in
    List.iter
      (fun (r : Wire.shard_row) ->
        p "  #%d  %6d pieces  %6d committed  %4d aborted  %4d vetoed  %4d \
           live  %s@."
          r.Wire.r_shard r.Wire.r_submitted r.Wire.r_committed
          r.Wire.r_aborted r.Wire.r_vetoed r.Wire.r_live
          (bar 16 r.Wire.r_committed maxc))
      f.Wire.per_shard
  end;
  let g = f.Wire.gc_pause in
  if g.Wire.h_count > 0 || f.Wire.gc_pct > 0. then
    p "gc      : %d pauses  p50 %dus  p99 %dus  max %dus  %.2f%% of wall@."
      g.Wire.h_count g.Wire.h_p50 g.Wire.h_p99 g.Wire.h_max f.Wire.gc_pct;
  if f.Wire.stages <> [] then begin
    p "stages (window, exclusive us):@.";
    let maxp99 =
      List.fold_left
        (fun m (_, (h : Wire.hist)) -> Stdlib.max m h.Wire.h_p99)
        0 f.Wire.stages
    in
    List.iter
      (fun (s, (h : Wire.hist)) ->
        p "  %-8s p50 %8d  p99 %8d  max %8d  %-16s %d@." s h.Wire.h_p50
          h.Wire.h_p99 h.Wire.h_max
          (bar 16 h.Wire.h_p99 maxp99)
          h.Wire.h_count)
      f.Wire.stages
  end;
  (match f.Wire.hot with
  | [] -> p "hot     : -@."
  | hot ->
      p "hot     : %s@."
        (String.concat "  "
           (List.map (fun (x, n) -> Printf.sprintf "%s:%d" x n) hot)));
  if h.Wire.h_buckets <> [] then begin
    p "latency histogram (window):@.";
    let maxn =
      List.fold_left (fun m (_, n) -> Stdlib.max m n) 0 h.Wire.h_buckets
    in
    List.iter
      (fun (i, n) ->
        p "  [%7d,%7d] %-24s %d@." (Metrics.bucket_lower i)
          (Metrics.bucket_upper i) (bar 24 n maxn) n)
      h.Wire.h_buckets
  end;
  Format.print_flush ()

(* ----- the loop ----- *)

let run addr ~frames ~once ~json =
  let want = if once then 1 else frames in
  let c = Wire_client.dial addr in
  Wire_client.send c (Wire.Hello { client = "nttop" });
  Wire_client.send c Wire.Subscribe;
  let seen = ref 0 in
  let last_seq = ref 0 in
  let bad = ref false in
  let stop = ref false in
  while (not !stop) && ((want <= 0 && not once) || !seen < want) do
    match Wire_client.recv c with
    | Wire.Telemetry f ->
        if f.Wire.seq <= !last_seq then begin
          Format.eprintf "nttop: sequence went backwards (%d after %d)@."
            f.Wire.seq !last_seq;
          bad := true;
          stop := true
        end
        else begin
          last_seq := f.Wire.seq;
          incr seen;
          if json then begin
            print_string
              (Obs_json.to_string (Wire.response_to_json (Wire.Telemetry f)));
            print_newline ();
            flush stdout
          end
          else render ~clear:(not once) f
        end
    | Wire.Goodbye -> stop := true
    | _ -> ()
    | exception (Wire_client.Closed | Unix.Unix_error _) -> stop := true
    | exception Failure e ->
        Format.eprintf "nttop: %s@." e;
        bad := true;
        stop := true
  done;
  Wire_client.close c;
  if !bad then exit 1;
  if want > 0 && !seen < want then begin
    Format.eprintf "nttop: stream ended after %d/%d frames@." !seen want;
    exit 1
  end

let top_cmd addr frames once json =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  run addr ~frames ~once ~json

let cmd =
  let frames =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:"Exit after N frames (0: run until the stream ends).")
  in
  let once =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render the first frame without clearing the screen, then \
             exit — for CI and snapshots.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Print each Telemetry frame as one JSON line (the wire \
             rendering, stages and gc included) instead of the panel — \
             for piping into jq or archiving.")
  in
  let term =
    Term.(const top_cmd $ Wire_client.addr "nttop" $ frames $ once $ json)
  in
  Cmd.v
    (Cmd.info "nttop" ~version:Version.string
       ~doc:"Terminal dashboard over ntserved's Telemetry stream.")
    term

let () = exit (Cmd.eval cmd)
