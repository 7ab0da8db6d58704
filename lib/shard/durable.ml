(* The log policy over a one-shard cluster: replaying a recovery plan
   into it, and logging its inputs. *)

open Nt_base
open Nt_net

let engine cl =
  if Cluster.shards cl <> 1 then
    invalid_arg "Durable: the log serves a one-shard cluster";
  Shard_engine.engine (Cluster.engine cl 0)

let graph eng = Nt_sg.Monitor.graph (Admission.monitor (Engine.admission eng))

let counts eng =
  Wal.Counts
    {
      submitted = Engine.submitted eng;
      committed = Engine.committed_top eng;
      aborted = Engine.aborted_top eng;
      vetoed = Engine.vetoed eng;
    }

(* ----- replay ----- *)

let replay cl events =
  let rec go n = function
    | [] -> Ok n
    | `Submit prog :: rest -> (
        match Cluster.submit cl prog with
        | Ok _ -> go (n + 1) rest
        | Error e ->
            Error
              (Printf.sprintf "replay: logged submission %d rejected: %s"
                 (Router.submitted (Cluster.router cl) + 1)
                 e))
    | `Kill txn :: rest ->
        (match Txn_id.path txn with
        | [ g ] -> ignore (Cluster.kill cl g)
        | _ -> ());
        go (n + 1) rest
    | `Steps k :: rest ->
        for _ = 1 to k do
          ignore (Cluster.step_shard cl 0)
        done;
        go (n + 1) rest
  in
  go 0 events

let recover cl events =
  (* The engine's evolution is a pure function of the seed and the
     submit/kill/step call sequence ([Runtime.step] draws from a seeded
     RNG and nothing else), so replaying the logged sequence into a
     fresh cluster reproduces the pre-crash run exactly — including
     every admission verdict and commit-gate outcome.  Replay only
     makes sense from a pristine cluster: any prior call has already
     advanced the RNG stream. *)
  let eng = engine cl in
  if Engine.submitted eng > 0 || Engine.step_calls eng > 0 then
    Error "recover: the cluster is not fresh"
  else replay cl events

(* ----- recovery ----- *)

type progress = {
  mutable pending : Wal.Recovery.phase list;
  mutable replayed : int;
  mutable checked : int;
  p_total : int;
}

let start (plan : Wal.Recovery.plan) =
  { pending = plan.phases; replayed = 0; checked = 0; p_total = plan.total }

(* Split up to [burst] weight off the head of an event list, cutting a
   long [Steps] run mid-way so one turn never replays unboundedly. *)
let take_chunk burst events =
  let rec go acc w evs =
    if w >= burst then (List.rev acc, w, evs)
    else
      match evs with
      | [] -> (List.rev acc, w, [])
      | `Steps n :: rest when n > burst - w ->
          ( List.rev (`Steps (burst - w) :: acc),
            burst,
            `Steps (n - (burst - w)) :: rest )
      | ev :: rest -> go (ev :: acc) (w + Wal.Recovery.weight ev) rest
  in
  go [] 0 events

let check_phase eng = function
  | Wal.Recovery.Outcome_prefix outcomes ->
      Wal.check_outcomes (Engine.state eng) outcomes
  | Wal.Recovery.Snapshot_state { sg; counts = c } -> (
      match Wal.check_sg_state sg (graph eng) with
      | Error e -> Error e
      | Ok () ->
          if c = counts eng then Ok 0
          else Error "snapshot counters disagree with replayed engine")

let turn ~burst cl p =
  match p.pending with
  | [] -> Ok `Done
  | ph :: rest -> (
      let chunk, weight, remaining =
        take_chunk (max 1 burst) ph.Wal.Recovery.events
      in
      (* The first chunk goes through [recover], whose freshness check
         refuses a cluster that has already run. *)
      let apply = if p.replayed = 0 then recover else replay in
      match apply cl chunk with
      | Error e -> Error e
      | Ok _ -> (
          p.replayed <- p.replayed + weight;
          if remaining <> [] then begin
            p.pending <- { ph with events = remaining } :: rest;
            Ok `More
          end
          else
            match check_phase (engine cl) ph.check with
            | Error e -> Error ("validation failed: " ^ e)
            | Ok n ->
                p.checked <- p.checked + n;
                p.pending <- rest;
                Ok (if rest = [] then `Done else `More)))

let replayed p = p.replayed
let total p = p.p_total
let checked p = p.checked

let run ~burst cl plan =
  let p = start plan in
  let rec go () =
    match turn ~burst cl p with
    | Ok `More -> go ()
    | Ok `Done -> Ok (checked p)
    | Error _ as e -> e
  in
  go ()

(* ----- logging ----- *)

module Session = struct
  type t = {
    cl : Cluster.t;
    eng : Engine.t;
    meta : Wal.record;
    mutable w : Wal.Writer.t;
    closure : Wal.Closure.t;  (* replay closure of everything logged so far *)
    mutable cursor : int;  (* [Engine.step_calls] at the last cut *)
    mutable mark : int;  (* [Writer.appended] at the last snapshot *)
  }

  (* Without a plan the log is new.  A recovered one that kept no Meta
     (a new generation, or a header-only file left by a crash right
     after its header was written) gets it before any record. *)
  let create ?plan ~meta cl w =
    let eng = engine cl in
    let seed, has_meta =
      match plan with
      | None -> ([], false)
      | Some p -> (p.Wal.Recovery.seed, p.Wal.Recovery.has_meta)
    in
    if not has_meta then Wal.Writer.append w meta;
    {
      cl;
      eng;
      meta;
      w;
      closure = Wal.Closure.of_records seed;
      cursor = Engine.step_calls eng;
      mark = Wal.Writer.appended w;
    }

  (* One [Steps] record covering the step calls since the last cut,
     then any outcomes those steps produced — the ordering that makes
     every intact log prefix reproduce exactly the state its audit
     records claim. *)
  let cut t =
    let calls = Engine.step_calls t.eng in
    let n = calls - t.cursor in
    t.cursor <- calls;
    Wal.Closure.push t.closure (Wal.Steps n);
    Wal.Writer.log_steps t.w n

  (* A replay event lands after the steps that preceded its engine
     call. *)
  let event t r =
    cut t;
    Wal.Closure.push t.closure r;
    Wal.Writer.append t.w r

  let submit t ?req ~client prog =
    match Cluster.submit t.cl prog with
    | Error _ as e -> e
    | Ok _ as ok ->
        event t
          (Wal.Submit
             {
               req;
               client;
               program = Nt_workload.Program_io.program_to_string prog;
             });
        ok

  (* Logged before the cluster call: a kill can complete the
     transaction, and its outcome must follow the [Kill] record. *)
  let kill t g =
    event t (Wal.Kill { txn = Txn_id.child Txn_id.root g });
    Cluster.kill t.cl g

  let note_outcome t txn oc =
    let outcome =
      match (oc, Engine.state t.eng txn) with
      | `Committed, Engine.Committed v -> Wal.Committed (Value.to_string v)
      | `Aborted, Engine.Aborted veto ->
          Wal.Aborted (Option.map (fun v -> v.Admission.witness) veto)
      | `Committed, _ -> Wal.Committed "?"
      | `Aborted, _ -> Wal.Aborted None
    in
    Wal.Writer.note_outcome t.w ~txn outcome

  let flush t =
    cut t;
    Wal.Writer.flush t.w

  let snapshot t =
    flush t;
    Wal.encode_snapshot
      {
        Wal.sn_next_seq = Wal.Writer.next_seq t.w;
        sn_meta = t.meta;
        sn_events = Wal.Closure.records t.closure;
        sn_sg = Wal.sg_state_of_graph (graph t.eng);
        sn_counts = counts t.eng;
      }

  let rotate t w =
    t.w <- w;
    Wal.Writer.append w t.meta;
    Wal.Writer.flush w;
    t.mark <- Wal.Writer.appended w

  let due t ~every = every > 0 && Wal.Writer.appended t.w - t.mark >= every
  let writer t = t.w
  let closure_length t = Wal.Closure.length t.closure
end
