(* ntstress: a long-running randomized model-checking campaign.

   The test suite keeps its seed counts CI-sized; this binary runs the
   same assertion battery over as many seeds as you give it — the
   "leave it running overnight" tool.  For every (protocol x profile x
   seed) it executes the generic system and asserts:

   - generic/simple well-formedness of the behavior;
   - the protocol's correctness theorem (SG checker for
     completion-order protocols, Theorem 2 with the pseudotime order
     for MVTS);
   - on a sample of object projections, the per-protocol lemma
     invariants (Moss Lemmas 9/10/12-13, undo Lemmas 20/22);
   - that the online SG monitor raises no alarm (completion-order
     protocols only: under pseudotime ordering the completion-order SG
     is legitimately cyclic, so MVTS is exempt).

   Any failure prints the seed and a diagnosis and exits nonzero, so
   the campaign is reproducible.

   Usage: ntstress [seeds-per-cell] [--seed N] [--obs-out FILE]
                   [--obs-format jsonl|chrome|table]
                   [--perf-budget SECONDS]
   (default 50 seeds per cell; telemetry of the whole campaign is
   aggregated into one recorder, so --obs-format table summarizes
   thousands of runs and jsonl/chrome stream every run's spans)

   --seed N runs exactly seed N in every cell — the exact-replay knob
   for a seed printed by a FAIL line.

   --perf-budget SECONDS fails the campaign (exit 1) if its wall time
   exceeds the budget — CI uses this as a cheap regression tripwire
   for the monitor's incremental detection path. *)

open Core

type verdict_kind = Sg_checker | Pseudotime

let protocols =
  [
    ("moss", Moss_object.factory, Sg_checker, true);
    ("commlock", Commlock_object.factory, Sg_checker, false);
    ("undo", Undo_object.factory, Sg_checker, false);
    ("mvts", Mvts_object.factory, Pseudotime, true);
  ]

let profiles =
  [
    ("flat-hot", Gen.registers, { Gen.default with n_top = 8; depth = 1; n_objects = 1 });
    ("nested", Gen.registers, { Gen.default with n_top = 6; depth = 3; n_objects = 3 });
    ("counters", Gen.counters, { Gen.default with n_top = 8; depth = 2; n_objects = 2 });
    ("mixed", Gen.mixed, { Gen.default with n_top = 6; depth = 2; n_objects = 6 });
    ( "skewed",
      Gen.registers,
      { Gen.default with n_top = 8; depth = 2; n_objects = 4; theta = 1.0 } );
  ]

let check_lemmas name schema (trace : Trace.t) =
  match name with
  | "moss" ->
      List.for_all
        (fun x ->
          let proj = Moss_invariants.project schema x trace in
          Moss_invariants.lemma9 schema x proj
          && Moss_invariants.lemma10 schema x proj
          && Moss_invariants.lemma12_13 schema x proj)
        schema.Schema.objects
  | "undo" ->
      List.for_all
        (fun x ->
          let proj = Undo_invariants.project schema x trace in
          Undo_invariants.lemma20 schema x proj
          && Undo_invariants.lemma22 schema x proj)
        schema.Schema.objects
  | _ -> true

let usage () =
  prerr_endline
    "usage: ntstress [seeds-per-cell] [--seed N] [--obs-out FILE] \
     [--obs-format jsonl|chrome|table] [--perf-budget SECONDS] [--version]";
  exit 2

let () =
  let seeds_per_cell = ref 50
  and seed_only = ref None
  and obs_out = ref None
  and obs_format = ref None
  and perf_budget = ref None in
  let rec parse = function
    | [] -> ()
    | "--version" :: _ ->
        print_endline Version.string;
        exit 0
    | "--seed" :: s :: rest ->
        (match int_of_string_opt s with
        | Some n -> seed_only := Some n
        | None -> usage ());
        parse rest
    | "--perf-budget" :: s :: rest ->
        (match float_of_string_opt s with
        | Some b when b > 0.0 -> perf_budget := Some b
        | _ -> usage ());
        parse rest
    | "--obs-out" :: path :: rest ->
        obs_out := Some path;
        parse rest
    | "--obs-format" :: fmt :: rest ->
        (match fmt with
        | "jsonl" | "chrome" | "table" -> obs_format := Some fmt
        | _ -> usage ());
        parse rest
    | arg :: rest -> (
        match int_of_string_opt arg with
        | Some n when n > 0 ->
            seeds_per_cell := n;
            parse rest
        | _ -> usage ())
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seeds =
    match !seed_only with
    | Some s -> [ s ]
    | None -> List.init !seeds_per_cell (fun i -> i + 1)
  in
  let obs, finish_obs =
    match (!obs_format, !obs_out) with
    | None, None -> (Obs.null, fun () -> ())
    | fmt, out ->
        let fmt = Option.value ~default:"table" fmt in
        let sink =
          match (fmt, out) with
          | "jsonl", Some path -> Obs_sink.jsonl_file path
          | "chrome", Some path -> Chrome_trace.sink_file path
          | ("jsonl" | "chrome"), None ->
              prerr_endline "--obs-format jsonl/chrome requires --obs-out";
              exit 2
          | _ -> Obs_sink.null
        in
        let obs = Obs.create ~sink () in
        ( obs,
          fun () ->
            Obs.close obs;
            (match (fmt, out) with
            | "table", Some path ->
                let oc = open_out path in
                let f = Format.formatter_of_out_channel oc in
                Format.fprintf f "%a@." Metrics.pp (Obs.metrics obs);
                close_out oc
            | _ -> ());
            Format.printf "campaign metrics:@.%a@." Metrics.pp
              (Obs.metrics obs) )
  in
  let total = ref 0 and failures = ref 0 in
  let t0 = Sys.time () in
  let wall0 = Unix.gettimeofday () in
  List.iter
    (fun (pname, factory, kind, rw_only) ->
      List.iter
        (fun (wname, gen, profile) ->
          let is_rw =
            Schema.all_read_write (snd (Gen.forest_and_schema gen ~seed:1 profile))
          in
          if (not rw_only) || is_rw then
            List.iter (fun seed ->
              incr total;
              let forest, schema = Gen.forest_and_schema gen ~seed profile in
              (* Alternate policies, abort rates and inform latencies. *)
              let policy =
                if seed mod 2 = 0 then Runtime.Bsp_rounds else Runtime.Random_step
              in
              let inform_policy =
                if seed mod 3 = 0 then Runtime.Lazy else Runtime.Eager
              in
              let abort_prob = if seed mod 4 = 0 then 0.08 else 0.0 in
              let r =
                Runtime.run ~policy ~inform_policy ~abort_prob ~obs ~seed
                  schema factory forest
              in
              let ok_wf = Simple_db.is_well_formed schema.Schema.sys r.trace in
              let ok_thm =
                match kind with
                | Sg_checker -> Checker.serially_correct schema r.trace
                | Pseudotime ->
                    Theorem2.holds schema
                      (Sibling_order.index_order (Trace.serial r.trace))
                      r.trace
              in
              let ok_lemmas =
                seed mod 5 <> 0 || check_lemmas pname schema r.trace
              in
              let ok_monitor =
                match kind with
                | Pseudotime -> true
                | Sg_checker ->
                    let m = Monitor.create schema in
                    let alarms = Monitor.feed_trace m r.trace in
                    List.iter
                      (fun (i, a) ->
                        match a with
                        | Monitor.Cycle c ->
                            Format.printf
                              "ALARM %s/%s seed %d: event %d closed a cycle \
                               %s@.%s"
                              pname wname seed i
                              (String.concat " -> "
                                 (List.map Txn_id.to_string c))
                              (Monitor.explain_cycle m c)
                        | Monitor.Inappropriate x ->
                            Format.printf
                              "ALARM %s/%s seed %d: event %d made %s's \
                               returns impossible@."
                              pname wname seed i (Obj_id.name x))
                      alarms;
                    (* No alarm ⇒ the monitor's graph is acyclic, so a
                       witness sibling order for Theorem 8 exists (over
                       the tops not retired; a retired top orders
                       before all of them). *)
                    alarms = [] && Sg.witness_order (Monitor.graph m) <> None
              in
              if not (ok_wf && ok_thm && ok_lemmas && ok_monitor) then begin
                incr failures;
                Format.printf
                  "FAIL %s/%s seed %d (wf %b, thm %b, lemmas %b, monitor %b)@."
                  pname wname seed ok_wf ok_thm ok_lemmas ok_monitor;
                Format.printf "  replay: ntstress --seed %d@." seed;
                if not ok_thm && kind = Sg_checker then
                  print_string (Checker.explain schema r.trace)
              end)
            seeds)
        profiles)
    protocols;
  Format.printf "ntstress: %d runs, %d failures, %.1f s@." !total !failures
    (Sys.time () -. t0);
  finish_obs ();
  let wall = Unix.gettimeofday () -. wall0 in
  let over_budget =
    match !perf_budget with
    | Some budget when wall > budget ->
        Format.printf "PERF BUDGET EXCEEDED: %.1f s wall > %.1f s budget@."
          wall budget;
        true
    | Some budget ->
        Format.printf "perf budget: %.1f s wall <= %.1f s budget@." wall budget;
        false
    | None -> false
  in
  if !failures > 0 || over_budget then exit 1
