(* ntcheck: property-based differential checking of every
   concurrency-control backend against the paper's oracles.

   Examples:
     ntcheck --runs 200 --seed 7                 # sweep the verified backends
     ntcheck --backend commlock --runs 1000
     ntcheck --backend no-control --shrink       # watch it fail, minimized
     ntcheck --replay failure.bundle             # re-run a saved counterexample *)

open Core
open Cmdliner

type target = All | One of Check.backend

let target_conv =
  let parse s =
    if s = "all" then Ok All
    else
      match Check.backend_of_name s with
      | Some b -> Ok (One b)
      | None -> Error (`Msg (Check.unknown_backend_message s))
  in
  let print f = function
    | All -> Format.pp_print_string f "all"
    | One b -> Format.pp_print_string f (Check.backend_name b)
  in
  Arg.conv (parse, print)

let grammar_conv =
  Arg.enum
    [
      ("rw", Check.Rw); ("counters", Check.Counters);
      ("mixed", Check.Mixed); ("weighted", Check.Weighted);
      ("smallbank", Check.Smallbank);
    ]

let shape_conv =
  Arg.enum
    [
      ("default", Check.Default); ("lock-heavy", Check.Lock_heavy);
      ("deep-nesting", Check.Deep_nesting); ("abort-storm", Check.Abort_storm);
    ]

type obs_format = Obs_jsonl | Obs_chrome | Obs_table

let obs_format_conv =
  Arg.enum
    [ ("jsonl", Obs_jsonl); ("chrome", Obs_chrome); ("table", Obs_table) ]

let setup_obs obs_format obs_out =
  match (obs_format, obs_out) with
  | None, None -> (Obs.null, fun () -> ())
  | _ ->
      let fmt = Option.value ~default:Obs_table obs_format in
      let sink =
        match (fmt, obs_out) with
        | Obs_jsonl, Some path -> Obs_sink.jsonl_file path
        | Obs_chrome, Some path -> Chrome_trace.sink_file path
        | (Obs_jsonl | Obs_chrome), None ->
            Format.eprintf
              "--obs-format jsonl/chrome requires --obs-out FILE@.";
            exit 2
        | Obs_table, _ -> Obs_sink.null
      in
      let obs = Obs.create ~sink () in
      let finish () =
        Obs.close obs;
        match (fmt, obs_out) with
        | Obs_table, Some path ->
            let oc = open_out path in
            let f = Format.formatter_of_out_channel oc in
            Format.fprintf f "%a@." Metrics.pp (Obs.metrics obs);
            close_out oc;
            Format.printf "metrics written to %s@." path
        | Obs_table, None ->
            Format.printf "@.oracle metrics:@.%a@." Metrics.pp
              (Obs.metrics obs)
        | Obs_jsonl, Some path ->
            Format.printf "telemetry streamed to %s (jsonl)@." path
        | Obs_chrome, Some path ->
            Format.printf "trace written to %s (chrome://tracing)@." path
        | _, None -> ()
      in
      (obs, finish)

(* The schema a scenario's trace is over — physical for replication. *)
let trace_schema backend (sc : Check.scenario) =
  match backend with
  | Check.Replication ->
      let plan =
        Replication.replicate Check.replication_config
          ~objects:(List.map fst sc.Check.objects)
          sc.Check.forest
      in
      (plan.Replication.physical_schema, plan.Replication.physical_forest)
  | _ -> (Check.schema_of_scenario sc, sc.Check.forest)

let write_artifacts ?crash_seed prefix backend (sc : Check.scenario) failure
    trace =
  let bundle = prefix ^ ".bundle" in
  Bundle.save ~failure ?crash_seed bundle backend sc;
  Trace_io.save (prefix ^ ".trace") trace;
  let schema, _ = trace_schema backend sc in
  let monitor = Monitor.create ~keep_history:true schema in
  ignore (Monitor.feed_trace monitor trace);
  let oc = open_out (prefix ^ ".dot") in
  output_string oc (Monitor.dot monitor);
  close_out oc;
  Format.printf "replay bundle: %s (plus %s.trace, %s.dot)@." bundle prefix
    prefix

(* [crash = true] swaps the subject from one run of the scenario to
   the full crash-injection sweep over its recorded serve: shrinking
   uses the sweep as the failing predicate and bundles carry the
   serving seed so the counterexample replays bit-for-bit. *)
let report_failure ~crash backend sc failure trace ~shrink ~bundle_prefix =
  Format.printf "  failure: %a@." Check.pp_failure failure;
  let minimize =
    if crash then fun b sc -> Shrink.minimize_crash b sc
    else fun b sc -> Shrink.minimize b sc
  in
  let sc, failure, trace =
    if not shrink then (sc, failure, trace)
    else
      match minimize backend sc with
      | None -> (sc, failure, trace)
      | Some m ->
          Format.printf
            "  shrunk to %d accesses in %d attempts (deterministic=%b): %a@."
            (Shrink.n_accesses m.Shrink.scenario.Check.forest)
            m.Shrink.attempts m.Shrink.deterministic Check.pp_failure
            m.Shrink.failure;
          (m.Shrink.scenario, m.Shrink.failure, m.Shrink.trace)
  in
  (match bundle_prefix with
  | Some prefix ->
      let crash_seed = if crash then Some (Check.crash_seed_of sc) else None in
      write_artifacts ?crash_seed prefix backend sc failure trace
  | None -> ());
  ()

let run_campaign obs backend ~seed ~runs ~grammar ~shape ~max_steps
    ~keep_going ~shrink ~bundle_prefix ~crash =
  let campaign =
    if crash then fun b ~seed ~runs ->
      Check.crash_campaign ~obs ?max_steps ?grammar ?shape
        ~stop_at_first:(not keep_going) b ~seed ~runs
    else fun b ~seed ~runs ->
      Check.campaign ~obs ?max_steps ?grammar ?shape
        ~stop_at_first:(not keep_going) b ~seed ~runs
  in
  let r = campaign backend ~seed ~runs in
  Format.printf "%-12s %4d runs  %4d passed  %2d truncated  %d failed%s@."
    (Check.backend_name backend)
    r.Check.runs r.Check.passed r.Check.truncations
    (List.length r.Check.failures)
    (if crash then "  (crash-restart sweep)" else "");
  List.iter
    (fun (i, sc, failure) ->
      Format.printf "  run %d (sched-seed %d):@." i sc.Check.sched_seed;
      let o =
        if crash then Check.crash_outcome (Check.crash ?max_steps backend sc)
        else Check.run_scenario ?max_steps backend sc
      in
      report_failure ~crash backend sc failure o.Check.trace ~shrink
        ~bundle_prefix)
    r.Check.failures;
  r.Check.failures = []

let replay file ~shrink ~bundle_prefix ~max_steps ~crash_restart =
  match Bundle.load file with
  | Error e ->
      Format.eprintf "ntcheck: %s@." e;
      2
  | Ok b ->
      let backend = b.Bundle.backend in
      (* A bundle written by a --crash-restart campaign replays under
         the crash sweep automatically: the recorded serving seed is
         the marker. *)
      let crash = crash_restart || b.Bundle.crash_seed <> None in
      Format.printf "replaying %s under %s (sched-seed %d%s)@." file
        (Check.backend_name backend)
        b.Bundle.scenario.Check.sched_seed
        (if crash then ", crash-restart sweep" else "");
      (match b.Bundle.failure_tag with
      | Some tag -> Format.printf "recorded failure: %s@." tag
      | None -> ());
      let o =
        if crash then
          Check.crash_outcome
            (Check.crash ?max_steps ?seed:b.Bundle.crash_seed backend
               b.Bundle.scenario)
        else Check.run_scenario ?max_steps backend b.Bundle.scenario
      in
      if o.Check.truncated then Format.printf "run truncated@.";
      (match o.Check.failure with
      | None ->
          Format.printf "all oracles passed@.";
          0
      | Some failure ->
          report_failure ~crash backend b.Bundle.scenario failure
            o.Check.trace ~shrink ~bundle_prefix;
          1)

let main target seed runs grammar shape max_steps keep_going shrink
    bundle_prefix replay_file crash_restart obs_format obs_out =
  match replay_file with
  | Some file -> replay file ~shrink ~bundle_prefix ~max_steps ~crash_restart
  | None -> (
    match (target, grammar) with
    | One b, Some g when not (Check.grammar_allowed b g) ->
        (* Refuse the pair up front: letting the campaign run would
           silently coerce the pinned grammar to rw. *)
        Format.eprintf "ntcheck: %s@." (Check.grammar_conflict_message b g);
        2
    | _ ->
      let backends =
        match target with All -> Check.correct_backends | One b -> [ b ]
      in
      let obs, finish = setup_obs obs_format obs_out in
      let ok =
        List.fold_left
          (fun ok backend ->
            run_campaign obs backend ~seed ~runs ~grammar ~shape ~max_steps
              ~keep_going ~shrink ~bundle_prefix ~crash:crash_restart
            && ok)
          true backends
      in
      finish ();
      if ok then 0 else 1)

let cmd =
  let target =
    Arg.(
      value
      & opt target_conv All
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            (Printf.sprintf
               "Backend to check: %s, or $(b,all) (the five verified \
                backends)."
               (String.concat ", " Check.backend_names)))
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Master seed of the campaign.")
  in
  let runs =
    Arg.(
      value & opt int 100
      & info [ "runs" ] ~docv:"N" ~doc:"Scenarios per backend.")
  in
  let grammar =
    Arg.(
      value
      & opt (some grammar_conv) None
      & info [ "grammar" ] ~docv:"G"
          ~doc:
            "Pin the action grammar: rw, counters, mixed, weighted, \
             smallbank (default: drawn per run).")
  in
  let shape =
    Arg.(
      value
      & opt (some shape_conv) None
      & info [ "shape" ] ~docv:"S"
          ~doc:
            "Pin the workload shape: default, lock-heavy, deep-nesting, \
             abort-storm (default: drawn per run).")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:"Step budget per run before truncation (default 200000).")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going" ]
          ~doc:"Do not stop a campaign at its first failure.")
  in
  let shrink =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize each failure to a minimal counterexample.")
  in
  let bundle_prefix =
    Arg.(
      value
      & opt (some string) (Some "ntcheck-failure")
      & info [ "bundle" ] ~docv:"PREFIX"
          ~doc:
            "Write PREFIX.bundle/.trace/.dot on failure (default \
             ntcheck-failure; pass an empty value to a different PREFIX to \
             relocate).")
  in
  let replay_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-run a saved replay bundle instead of a campaign.")
  in
  let crash_restart =
    Arg.(
      value & flag
      & info [ "crash-restart" ]
          ~doc:
            "Durability sweep: record each scenario's serve into a \
             write-ahead log, simulate a kill -9 at every record boundary \
             (plus torn and bit-flipped variants), recover each damaged \
             image and re-judge the resumed run under all four oracles.  \
             Failures shrink under the same sweep and save bundles \
             carrying the serving seed.")
  in
  let obs_format =
    Arg.(
      value
      & opt (some obs_format_conv) None
      & info [ "obs-format" ] ~docv:"FMT" ~doc:"jsonl, chrome or table.")
  in
  let obs_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "obs-out" ] ~docv:"FILE" ~doc:"Telemetry output file.")
  in
  let term =
    Term.(
      const main $ target $ seed $ runs $ grammar $ shape $ max_steps
      $ keep_going $ shrink $ bundle_prefix $ replay_file $ crash_restart
      $ obs_format $ obs_out)
  in
  Cmd.v
    (Cmd.info "ntcheck" ~version:Version.string
       ~doc:
         "Property-based differential checking of nested-transaction \
          backends")
    term

let () = exit (Cmd.eval' cmd)
