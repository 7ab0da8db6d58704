(* ntsim: run nested-transaction workloads under a chosen protocol and
   verify them with the serialization-graph checker.

   Examples:
     ntsim --workload rw --protocol moss --seed 3 --check
     ntsim --workload counters --protocol undo --n-top 16 --theta 0.9
     ntsim --workload banking --protocol undo --abort-prob 0.05 --trace
     ntsim --workload rw --protocol no-control --check   # watch it fail *)

open Core
open Cmdliner

type workload = Rw | Counters | Mixed | Banking | Queue

type protocol =
  | P_moss
  | P_undo
  | P_commlock
  | P_mvts
  | P_serial
  | P_no_control
  | P_unsafe_read
  | P_no_undo

let workload_conv =
  Arg.enum
    [
      ("rw", Rw); ("counters", Counters); ("mixed", Mixed);
      ("banking", Banking); ("queue", Queue);
    ]

let protocol_conv =
  Arg.enum
    [
      ("moss", P_moss); ("undo", P_undo); ("commlock", P_commlock);
      ("mvts", P_mvts);
      ("serial", P_serial);
      ("no-control", P_no_control); ("unsafe-read", P_unsafe_read);
      ("no-undo", P_no_undo);
    ]

let policy_conv =
  Arg.enum [ ("random", Runtime.Random_step); ("bsp", Runtime.Bsp_rounds) ]

type obs_format = Obs_jsonl | Obs_chrome | Obs_table

let obs_format_conv =
  Arg.enum
    [ ("jsonl", Obs_jsonl); ("chrome", Obs_chrome); ("table", Obs_table) ]

(* Build the recorder selected by --obs-out/--obs-format/--report, plus
   the finalizer that closes the sink and dumps the metrics registry
   (and, under --report, the in-process contention profile fed through
   a teed sink). *)
let setup_obs ?(report = false) obs_format obs_out =
  match (obs_format, obs_out, report) with
  | None, None, false -> (Obs.null, fun () -> ())
  | _ ->
      let fmt = Option.value ~default:Obs_table obs_format in
      let base_sink =
        match (fmt, obs_out) with
        | Obs_jsonl, Some path -> Obs_sink.jsonl_file path
        | Obs_chrome, Some path -> Chrome_trace.sink_file path
        | (Obs_jsonl | Obs_chrome), None ->
            Format.eprintf
              "--obs-format jsonl/chrome requires --obs-out FILE@.";
            exit 2
        | Obs_table, _ -> Obs_sink.null
      in
      let profile = if report then Some (Profile.create ()) else None in
      let sink =
        match profile with
        | None -> base_sink
        | Some p ->
            if base_sink == Obs_sink.null then Profile.sink p
            else Obs_sink.tee base_sink (Profile.sink p)
      in
      let obs = Obs.create ~sink () in
      let finish () =
        Obs.close obs;
        (match (fmt, obs_out) with
        | Obs_table, Some path ->
            let oc = open_out path in
            let f = Format.formatter_of_out_channel oc in
            Format.fprintf f "%a@." Metrics.pp (Obs.metrics obs);
            close_out oc;
            Format.printf "@.metrics written to %s@." path
        | Obs_jsonl, Some path ->
            Format.printf "@.telemetry streamed to %s (jsonl)@." path
        | Obs_chrome, Some path ->
            Format.printf
              "@.trace written to %s (load it in chrome://tracing or \
               https://ui.perfetto.dev)@."
              path
        | _, None -> ());
        (match profile with
        | Some p ->
            Format.printf "@.contention profile:@.%a" (Profile.report ~top:10)
              p
        | None ->
            Format.printf "@.observability metrics:@.%a@." Metrics.pp
              (Obs.metrics obs))
      in
      (obs, finish)

let build_workload workload ~seed ~n_top ~depth ~fanout ~n_objects ~theta
    ~read_ratio =
  let profile =
    { Gen.default with n_top; depth; fanout; n_objects; theta; read_ratio }
  in
  match workload with
  | Rw -> Gen.forest_and_schema Gen.registers ~seed profile
  | Counters -> Gen.forest_and_schema Gen.counters ~seed profile
  | Mixed -> Gen.forest_and_schema Gen.mixed ~seed profile
  | Banking ->
      Scenario.banking ~n_accounts:n_objects ~n_transfers:n_top ~seed
  | Queue ->
      Scenario.queue_producers_consumers ~n_producers:(n_top / 2)
        ~n_consumers:(n_top - (n_top / 2))
        ~seed

let factory_of = function
  | P_moss -> Some Moss_object.factory
  | P_undo -> Some Undo_object.factory
  | P_commlock -> Some Commlock_object.factory
  | P_mvts -> Some Mvts_object.factory
  | P_no_control -> Some Broken.no_control
  | P_unsafe_read -> Some Broken.unsafe_read
  | P_no_undo -> Some Broken.no_undo
  | P_serial -> None

let run_cmd workload protocol seed n_top depth fanout n_objects theta
    read_ratio abort_prob policy check print_trace save_path dot_path
    load_path monitor report program_path obs_format obs_out =
  let obs, finish_obs = setup_obs ~report obs_format obs_out in
  let forest, schema =
    match program_path with
    | Some path -> (
        match Bundle.load_program path with
        | Ok fs ->
            Format.printf "workload loaded from %s@." path;
            fs
        | Error e ->
            Format.eprintf "cannot load workload: %s@." e;
            exit 2)
    | None ->
        build_workload workload ~seed ~n_top ~depth ~fanout ~n_objects ~theta
          ~read_ratio
  in
  let trace =
    match load_path with
    | Some path -> (
        match Trace_io.load path with
        | Ok tr ->
            Format.printf "loaded %d events from %s@." (Trace.length tr) path;
            Array.iter (Obs.on_action obs) tr;
            tr
        | Error e ->
            Format.eprintf "cannot load %s: %s@." path e;
            exit 2)
    | None ->
    match factory_of protocol with
    | None ->
        let tr = Serial_exec.run schema forest in
        Format.printf "serial execution: %d events@." (Trace.length tr);
        Array.iter (Obs.on_action obs) tr;
        tr
    | Some factory ->
        let r =
          Runtime.run ~policy ~abort_prob ~obs ~seed schema factory forest
        in
        Format.printf
          "events %d  rounds %d  blocked %d  deadlock-aborts %d  \
           injected-aborts %d@."
          r.Runtime.stats.actions r.Runtime.stats.rounds
          r.Runtime.stats.blocked_attempts r.Runtime.stats.deadlock_aborts
          r.Runtime.stats.injected_aborts;
        Format.printf "top-level: %d committed, %d aborted%s@."
          r.Runtime.committed_top r.Runtime.aborted_top
          (if r.Runtime.stats.truncated then "  (TRUNCATED)" else "");
        r.Runtime.trace
  in
  Format.printf "%a@." Trace_stats.pp (Trace_stats.of_trace trace);
  if print_trace then Format.printf "@.%a@." Trace.pp trace;
  (match save_path with
  | Some path ->
      Trace_io.save path trace;
      Format.printf "trace saved to %s@." path
  | None -> ());
  let mon =
    if monitor then begin
      let m = Monitor.create ~hold:(fun _ -> true) schema in
      (match Monitor.feed_trace ~obs m trace with
      | [] -> Format.printf "online monitor: no alarms@."
      | alarms ->
          List.iter
            (fun (i, a) ->
              match a with
              | Monitor.Cycle c ->
                  Format.printf "online monitor: event %d closed a cycle: %s@."
                    i
                    (String.concat " -> " (List.map Txn_id.to_string c));
                  Format.printf "%s" (Monitor.explain_cycle m c)
              | Monitor.Inappropriate x ->
                  Format.printf
                    "online monitor: event %d made %s's returns impossible@." i
                    (Obj_id.name x))
            alarms);
      let c = Monitor.counters m in
      Format.printf
        "online monitor: %d feeds, %d operations, %d edges, %d cycle + %d \
         inappropriate alarms@."
        c.Monitor.feeds c.Monitor.operations c.Monitor.edges
        c.Monitor.cycle_alarms c.Monitor.inappropriate_alarms;
      (match Sg.witness_order (Monitor.graph m) with
      | Some order ->
          Format.printf
            "online monitor: witness sibling order from the monitor's graph \
             (%d parents, %d order repairs)@."
            (List.length (Sibling_order.parents order))
            (Graph.reorders (Monitor.graph m))
      | None ->
          Format.printf
            "online monitor: SG cyclic, no witness order exists@.");
      Some m
    end
    else None
  in
  (match dot_path with
  | Some path ->
      (* With the monitor on, render its graph: edges carry witness
         labels and the first detected cycle is highlighted. *)
      let dot =
        match mon with
        | Some m -> Monitor.dot m
        | None -> Dot.of_trace schema trace
      in
      let oc = open_out path in
      output_string oc dot;
      close_out oc;
      Format.printf "serialization graph written to %s (graphviz)@." path
  | None -> ());
  (match Simple_db.well_formed schema.Schema.sys trace with
  | Ok () -> ()
  | Error v ->
      Format.printf "WELL-FORMEDNESS VIOLATION: %a@." Simple_db.pp_violation v);
  if check then begin
    match protocol with
    | P_mvts ->
        (* Multiversion behaviors serialize by pseudotime, not by
           completion: certify with Theorem 2 directly. *)
        let order = Sibling_order.index_order (Trace.serial trace) in
        (match Theorem2.check schema order trace with
        | Ok () ->
            Format.printf
              "@.Theorem 2 with the pseudotime order: serially correct for \
               T0@."
        | Error f ->
            Format.printf "@.Theorem 2 FAILED: %a@." Theorem2.pp_failure f;
            exit 1)
    | _ ->
        let verdict = Checker.check schema trace in
        Format.printf "@.%a@." Checker.pp_verdict verdict;
        if not verdict.Checker.serially_correct then begin
          Format.printf "@.%s@." (Checker.explain schema trace);
          exit 1
        end
  end;
  let finals = Serial_exec.final_states schema trace in
  Format.printf "@.final object states (committed projection):@.";
  List.iter
    (fun (x, v) ->
      Format.printf "  %-8s %s@." (Obj_id.name x) (Value.to_string v))
    finals;
  finish_obs ()

let cmd =
  let workload =
    Arg.(
      value
      & opt workload_conv Rw
      & info [ "w"; "workload" ] ~doc:"Workload: rw, counters, mixed, banking, queue.")
  in
  let protocol =
    Arg.(
      value
      & opt protocol_conv P_moss
      & info [ "p"; "protocol" ]
          ~doc:
            "Protocol: moss, undo, commlock, mvts, serial, no-control, \
             unsafe-read, no-undo.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "s"; "seed" ] ~doc:"Random seed.")
  in
  let n_top =
    Arg.(value & opt int 8 & info [ "n-top" ] ~doc:"Top-level transactions.")
  in
  let depth =
    Arg.(value & opt int 2 & info [ "depth" ] ~doc:"Max nesting depth.")
  in
  let fanout =
    Arg.(value & opt int 3 & info [ "fanout" ] ~doc:"Max children per node.")
  in
  let n_objects =
    Arg.(value & opt int 4 & info [ "objects" ] ~doc:"Number of objects.")
  in
  let theta =
    Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipf skew (0 = uniform).")
  in
  let read_ratio =
    Arg.(value & opt float 0.5 & info [ "read-ratio" ] ~doc:"Read fraction.")
  in
  let abort_prob =
    Arg.(
      value & opt float 0.0
      & info [ "abort-prob" ] ~doc:"Per-step abort injection probability.")
  in
  let policy =
    Arg.(
      value
      & opt policy_conv Runtime.Random_step
      & info [ "policy" ] ~doc:"Scheduling policy: random or bsp.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "c"; "check" ]
          ~doc:"Run the Theorem 8/19 serialization-graph checker.")
  in
  let print_trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full trace.")
  in
  let save_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Save the trace to a file.")
  in
  let dot_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the serialization graph in Graphviz DOT format.")
  in
  let load_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE"
          ~doc:
            "Check a previously saved trace instead of executing (the \
             workload options must still describe the schema it was \
             produced under).")
  in
  let program_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "program" ] ~docv:"FILE"
          ~doc:
            "Run a hand-written workload file ((objects ...) and (txn ...) \
             forms; see Program_io) instead of a generated one.")
  in
  let monitor =
    Arg.(
      value & flag
      & info [ "monitor" ]
          ~doc:"Feed the behavior through the online monitor and report \
                alarms with their event indices.")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:
            "Accumulate an in-process contention profile (same pipeline as \
             $(b,ntprof) over a JSONL trace) and print it at the end of the \
             run.")
  in
  let obs_format =
    Arg.(
      value
      & opt (some obs_format_conv) None
      & info [ "obs-format" ]
          ~doc:
            "Telemetry output format: $(b,jsonl) (one event per line, \
             streamed), $(b,chrome) (Chrome trace-event JSON for \
             chrome://tracing / Perfetto), or $(b,table) (metrics \
             registry dump; the default when only --obs-out is given).")
  in
  let obs_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE"
          ~doc:
            "Write telemetry to $(docv).  Required for jsonl/chrome \
             formats; optional for table (stdout otherwise).")
  in
  let term =
    Term.(
      const run_cmd $ workload $ protocol $ seed $ n_top $ depth $ fanout
      $ n_objects $ theta $ read_ratio $ abort_prob $ policy $ check
      $ print_trace $ save_path $ dot_path $ load_path $ monitor
      $ report $ program_path $ obs_format $ obs_out)
  in
  Cmd.v
    (Cmd.info "ntsim" ~version:Version.string
       ~doc:
         "Simulate nested transaction systems and verify serial correctness \
          with the Fekete-Lynch-Weihl serialization-graph construction.")
    term

let () = exit (Cmd.eval cmd)
