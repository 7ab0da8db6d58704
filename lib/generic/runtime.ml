open Nt_base
open Nt_spec
open Nt_serial
open Nt_obs

type policy = Random_step | Bsp_rounds

type inform_policy = Eager | Lazy

type stats = {
  actions : int;
  rounds : int;
  blocked_attempts : int;
  deadlock_aborts : int;
  deadlock_cycles : int;
  injected_aborts : int;
  truncated : bool;
}

type result = {
  trace : Trace.t;
  stats : stats;
  committed_top : int;
  aborted_top : int;
}

type completion = No | Committed | Aborted

type status = {
  mutable requested : bool;
  mutable created : bool;
  mutable commit_value : Value.t option;
  mutable completed : completion;
  mutable reported : bool;
  mutable created_round : int;  (* round of the Create action *)
  mutable created_tick : int;  (* recorder tick of the Create action *)
  mutable blocked_streak : int;  (* consecutive try_respond refusals *)
  mutable blocked_since : int;  (* tick of the streak's first refusal *)
  mutable last_blockers : (Txn_id.t * Nt_gobj.Gobj.lock_kind) list;
      (* holders reported at the latest refusal; event-emitting runs only *)
  mutable refused_c : Metrics.counter option;
      (* the [runtime.refused.<obj>] counter for this access's object,
         resolved on the first refusal and reused: a leaf only ever
         touches one object, so the cache never invalidates *)
  program : Program.t option;  (* None for T0 *)
}

(* The recorder plus its pre-resolved instruments, so the hot path
   never looks instruments up by name. *)
type obs_cache = {
  o : Obs.t;
  c_rounds : Metrics.counter;
  c_blocked : Metrics.counter;
  c_dlk_aborts : Metrics.counter;
  c_dlk_cycles : Metrics.counter;
  c_injected : Metrics.counter;
  c_wf_edges : Metrics.counter;
  c_wf_near : Metrics.counter;
  c_abort_lock : Metrics.counter;
  c_abort_parent : Metrics.counter;
  c_abort_injected : Metrics.counter;
  c_abort_admission : Metrics.counter;
  c_abort_orphan : Metrics.counter;
  h_commit_rounds : Metrics.histogram;
  h_blocked_streak : Metrics.histogram;
  h_wait_ticks : Metrics.histogram;
}

let obs_cache o =
  let m = Obs.metrics o in
  {
    o;
    c_rounds = Metrics.counter m "runtime.rounds";
    c_blocked = Metrics.counter m "runtime.blocked";
    c_dlk_aborts = Metrics.counter m "runtime.deadlock.aborts";
    c_dlk_cycles = Metrics.counter m "runtime.deadlock.cycles";
    c_injected = Metrics.counter m "runtime.injected.aborts";
    c_wf_edges = Metrics.counter m "runtime.waitfor.edges";
    c_wf_near = Metrics.counter m "runtime.waitfor.near_cycles";
    c_abort_lock = Metrics.counter m "abort.cause.lock_conflict";
    c_abort_parent = Metrics.counter m "abort.cause.parent";
    c_abort_injected = Metrics.counter m "abort.cause.injected";
    c_abort_admission = Metrics.counter m "abort.cause.admission";
    c_abort_orphan = Metrics.counter m "abort.cause.orphan";
    h_commit_rounds = Metrics.histogram m "txn.commit.rounds";
    h_blocked_streak = Metrics.histogram m "runtime.blocked.streak";
    h_wait_ticks = Metrics.histogram m "txn.wait.ticks";
  }

(* A controller/runtime action candidate.  [Try_respond] may refuse. *)
type candidate =
  | C_interp_output of Txn_id.t * Txn_interp.output
  | C_create of Txn_id.t
  | C_try_respond of Txn_id.t
  | C_commit of Txn_id.t
  | C_report of Txn_id.t
  | C_inform of Obj_id.t * Txn_id.t * completion

type sim = {
  schema : Schema.t;
  rng : Rng.t;
  statuses : status Txn_id.Tbl.t;
  interps : Txn_interp.t Txn_id.Tbl.t;
  objects : (Obj_id.t * Nt_gobj.Gobj.t) list;
  obs : obs_cache;
  c_refused : Metrics.counter Obj_id.Tbl.t;
      (* one [runtime.refused.<obj>] counter per schema object, resolved
         up front so a refusal costs a table probe plus an increment;
         empty (and untouched) when the recorder is disabled *)
  obs_on : bool;  (* Obs.enabled obs.o, hoisted for the hot path *)
  obs_emit : bool;  (* Obs.emitting obs.o, likewise *)
  obs_base : int;  (* recorder clock at run start; ticks = base + n_actions *)
  policy : policy;
  inform_policy : inform_policy;
  abort_prob : float;
  max_steps : int;
  on_action : Action.t -> unit;
      (* invoked at every emit, in trace order — the open-loop engine
         feeds the online monitor here so a commit gate consulted
         mid-step sees a monitor that is exactly current *)
  commit_gate : (Txn_id.t -> bool) option;
      (* admission: a [C_commit t] fires only if the gate allows it;
         a refusal aborts [t] instead (the permissive controller may
         abort anything requested and incomplete) *)
  blocked_now : (int, unit Txn_id.Tbl.t) Hashtbl.t;
      (* accesses whose latest try_respond refused; maintained only on
         event-emitting runs (entries validated against status at use) *)
  mutable informed : (Obj_id.t * Txn_id.t) list;
      (* pending informs, newest first *)
  mutable buf : Action.t list;  (* trace, newest first *)
  mutable n_actions : int;
  mutable round_no : int;
  mutable steps : int;
  mutable truncated : bool;
  mutable blocked_attempts : int;
  mutable deadlock_aborts : int;
  mutable deadlock_cycles : int;
  mutable injected_aborts : int;
  mutable orphan_aborts : int;
}

type t = sim

(* The recorder runs the timestamp-passing protocol (span hooks carry
   tick [obs_base + n_actions], totals settled once at the end of the
   run), so actions that neither open nor close a span never touch it
   at all. *)
let emit sim a =
  sim.buf <- a :: sim.buf;
  sim.n_actions <- sim.n_actions + 1;
  sim.on_action a

let status sim t =
  match Txn_id.Tbl.find_opt sim.statuses t with
  | Some s -> s
  | None -> invalid_arg ("Runtime: unknown transaction " ^ Txn_id.to_string t)

let add_status sim t program =
  Txn_id.Tbl.replace sim.statuses t
    {
      requested = false;
      created = false;
      commit_value = None;
      completed = No;
      reported = false;
      created_round = 0;
      created_tick = 0;
      blocked_streak = 0;
      blocked_since = 0;
      last_blockers = [];
      refused_c = None;
      program;
    }

let object_of sim x =
  match List.find_opt (fun (y, _) -> Obj_id.equal x y) sim.objects with
  | Some (_, o) -> o
  | None -> invalid_arg ("Runtime: unknown object " ^ Obj_id.name x)

let is_access sim t = System_type.is_access sim.schema.Schema.sys t

(* Enumerate currently enabled candidates.  Listed in a deterministic
   order; the policy decides what fires. *)
let candidates sim =
  let acc = ref [] in
  let add c = acc := c :: !acc in
  (* Interpreter outputs. *)
  Txn_id.Tbl.iter
    (fun t interp ->
      List.iter (fun o -> add (C_interp_output (t, o))) (Txn_interp.enabled_outputs interp))
    sim.interps;
  (* Controller actions per transaction status. *)
  Txn_id.Tbl.iter
    (fun t s ->
      if s.requested && (not s.created) && s.completed = No then add (C_create t);
      if s.created && s.commit_value = None && is_access sim t && s.completed = No
      then add (C_try_respond t);
      if s.commit_value <> None && s.completed = No then add (C_commit t);
      if s.completed <> No && not s.reported then add (C_report t))
    sim.statuses;
  (* Informs. *)
  List.iter
    (fun (x, t) ->
      let s = status sim t in
      match s.completed with
      | Committed -> add (C_inform (x, t, Committed))
      | Aborted -> add (C_inform (x, t, Aborted))
      | No -> assert false)
    sim.informed;
  !acc

(* Root-cause taxonomy for the metrics registry: an abort whose proper
   ancestor is already aborted is collateral of that ancestor's fate,
   whatever mechanism delivered it; otherwise the trigger (deadlock
   breaking = lock conflict, or fault injection) is the cause. *)
let record_abort_cause sim t cause =
  let ancestor_aborted =
    List.exists
      (fun a ->
        match Txn_id.Tbl.find_opt sim.statuses a with
        | Some sa -> sa.completed = Aborted
        | None -> false)
      (Txn_id.proper_ancestors t)
  in
  if ancestor_aborted then Metrics.incr sim.obs.c_abort_parent
  else
    match cause with
    | `Deadlock -> Metrics.incr sim.obs.c_abort_lock
    | `Injected -> Metrics.incr sim.obs.c_abort_injected
    | `Admission -> Metrics.incr sim.obs.c_abort_admission
    | `Orphan -> Metrics.incr sim.obs.c_abort_orphan

let do_abort sim ~cause t =
  let s = status sim t in
  s.completed <- Aborted;
  emit sim (Action.Abort t);
  (if sim.obs_on then begin
     record_abort_cause sim t cause;
     let ts = sim.obs_base + sim.n_actions in
     (* A transaction can abort before it was ever created; give such a
        span zero duration, as the recorder's generic path does. *)
     let began = if s.created then s.created_tick else ts in
     Obs.span_end sim.obs.o ts ~began t Event.Aborted
   end);
  List.iter (fun (x, _) -> sim.informed <- (x, t) :: sim.informed) sim.objects

(* Blocked accesses, indexed by their top-level transaction so the
   wait-for scan below only visits candidates that can possibly lie
   inside a holder's subtree. *)
let top_component t =
  match Txn_id.path t with [] -> -1 | i :: _ -> i

let blocked_add sim t =
  let top = top_component t in
  let tbl =
    match Hashtbl.find_opt sim.blocked_now top with
    | Some tbl -> tbl
    | None ->
        let tbl = Txn_id.Tbl.create 8 in
        Hashtbl.add sim.blocked_now top tbl;
        tbl
  in
  Txn_id.Tbl.replace tbl t ()

let blocked_remove sim t =
  match Hashtbl.find_opt sim.blocked_now (top_component t) with
  | Some tbl -> Txn_id.Tbl.remove tbl t
  | None -> ()

(* Wait-for accounting (event-emitting runs only): [t] was refused
   because of the non-ancestral [holders].  Every other currently
   blocked access [b] inside a holder's subtree is one [t] now waits
   for (that subtree cannot release its locks while [b] is stuck); if
   [b]'s own latest blockers put [t]'s subtree in the way as well, the
   pair is a near-cycle — the shape {!break_deadlock} would abort. *)
let record_waitfor sim t holders =
  let seen_tops = ref [] in
  List.iter
    (fun (h0, _) ->
      let top = top_component h0 in
      if not (List.mem top !seen_tops) then begin
        seen_tops := top :: !seen_tops;
        match Hashtbl.find_opt sim.blocked_now top with
        | None -> ()
        | Some tbl ->
            (* Entries gone stale without an observed unblock (the
               transaction aborted, or committed straight from a retry)
               are dropped as they are met, keeping the index bounded
               by the currently blocked set. *)
            let stale = ref [] in
            Txn_id.Tbl.iter
              (fun b () ->
                if not (Txn_id.equal t b) then
                  match Txn_id.Tbl.find_opt sim.statuses b with
                  | Some sb
                    when sb.completed = No && sb.commit_value = None
                         && sb.blocked_streak > 0 ->
                      if
                        List.exists
                          (fun (h, _) -> Txn_id.is_descendant b h)
                          holders
                      then begin
                        Metrics.incr sim.obs.c_wf_edges;
                        if
                          List.exists
                            (fun (h', _) -> Txn_id.is_descendant t h')
                            sb.last_blockers
                        then Metrics.incr sim.obs.c_wf_near
                      end
                  | Some _ | None -> stale := b :: !stale)
              tbl;
            List.iter (Txn_id.Tbl.remove tbl) !stale
      end)
    holders

(* Fire a candidate; returns whether an action was emitted. *)
let fire sim c =
  match c with
  | C_interp_output (t, Txn_interp.Request_child (i, prog)) ->
      let child = Txn_id.child t i in
      add_status sim child (Some prog);
      (status sim child).requested <- true;
      Txn_interp.note_child_requested (Txn_id.Tbl.find sim.interps t) i;
      emit sim (Action.Request_create child);
      true
  | C_interp_output (t, Txn_interp.Request_commit v) ->
      let s = status sim t in
      s.commit_value <- Some v;
      Txn_interp.note_commit_requested (Txn_id.Tbl.find sim.interps t);
      emit sim (Action.Request_commit (t, v));
      true
  | C_create t ->
      let s = status sim t in
      s.created <- true;
      s.created_round <- sim.round_no;
      (if is_access sim t then
         (object_of sim (System_type.object_of_exn sim.schema.Schema.sys t)).create
           t
       else
         match s.program with
         | Some (Program.Node (comb, children)) ->
             Txn_id.Tbl.replace sim.interps t (Txn_interp.make t comb children)
         | Some (Program.Access _) | None -> assert false);
      emit sim (Action.Create t);
      if sim.obs_on then begin
        let ts = sim.obs_base + sim.n_actions in
        s.created_tick <- ts;
        Obs.span_begin sim.obs.o ts t
      end;
      true
  | C_try_respond t -> (
      let x = System_type.object_of_exn sim.schema.Schema.sys t in
      let s = status sim t in
      match (object_of sim x).try_respond t with
      | Some v ->
          s.commit_value <- Some v;
          if s.blocked_streak > 0 then begin
            if sim.obs_on then begin
              Metrics.observe sim.obs.h_blocked_streak s.blocked_streak;
              Metrics.observe sim.obs.h_wait_ticks
                (sim.obs_base + sim.n_actions - s.blocked_since);
              if sim.obs_emit then begin
                blocked_remove sim t;
                s.last_blockers <- []
              end
            end;
            s.blocked_streak <- 0
          end;
          emit sim (Action.Request_commit (t, v));
          true
      | None ->
          sim.blocked_attempts <- sim.blocked_attempts + 1;
          s.blocked_streak <- s.blocked_streak + 1;
          (* The [runtime.blocked] counter is settled once at the end of
             the run from [sim.blocked_attempts]; only the event stream
             needs per-attempt work — the wait-for bookkeeping included,
             so a metrics-only recorder pays two field writes here. *)
          (if sim.obs_on then begin
             let ts = sim.obs_base + sim.n_actions in
             if s.blocked_streak = 1 then s.blocked_since <- ts;
             (match s.refused_c with
             | Some c -> Metrics.incr c
             | None -> (
                 match Obj_id.Tbl.find_opt sim.c_refused x with
                 | Some c ->
                     s.refused_c <- Some c;
                     Metrics.incr c
                 | None -> ()));
             if sim.obs_emit then begin
               let holders = (object_of sim x).waiting_on t in
               s.last_blockers <- holders;
               blocked_add sim t;
               record_waitfor sim t holders;
               Obs.instant ~txn:t ~obj:x ~ts sim.obs.o "blocked";
               Obs.wait ~ts sim.obs.o ~txn:t ~obj:x
                 ~holders:
                   (List.map
                      (fun (h, k) -> (h, Nt_gobj.Gobj.lock_kind_string k))
                      holders)
                 ~waited:(ts - s.blocked_since)
             end
           end);
          false)
  | C_commit t
    when (match sim.commit_gate with Some g -> not (g t) | None -> false) ->
      (* Admission veto: performing this commit would close an SG
         cycle.  The permissive controller may abort anything
         requested and incomplete, so the veto is delivered as an
         abort — the resulting behavior is still one the generic
         system allows. *)
      if sim.obs_emit then
        Obs.instant ~txn:t
          ~ts:(sim.obs_base + sim.n_actions)
          sim.obs.o "abort.admission";
      do_abort sim ~cause:`Admission t;
      true
  | C_commit t ->
      let s = status sim t in
      s.completed <- Committed;
      emit sim (Action.Commit t);
      if sim.obs_on then begin
        Metrics.observe sim.obs.h_commit_rounds
          (sim.round_no - s.created_round);
        let ts = sim.obs_base + sim.n_actions in
        let began = if s.created then s.created_tick else ts in
        Obs.span_end sim.obs.o ts ~began t Event.Committed
      end;
      List.iter (fun (x, _) -> sim.informed <- (x, t) :: sim.informed) sim.objects;
      true
  | C_report t ->
      let s = status sim t in
      s.reported <- true;
      let parent = Txn_id.parent_exn t in
      let index = Option.get (Txn_id.last_index t) in
      (match Txn_id.Tbl.find_opt sim.interps parent with
      | Some interp -> (
          match s.completed with
          | Committed ->
              Txn_interp.note_child_committed interp index
                (Option.get s.commit_value)
          | Aborted -> Txn_interp.note_child_aborted interp index
          | No -> assert false)
      | None -> assert false);
      (match s.completed with
      | Committed -> emit sim (Action.Report_commit (t, Option.get s.commit_value))
      | Aborted -> emit sim (Action.Report_abort t)
      | No -> assert false);
      true
  | C_inform (x, t, c) ->
      sim.informed <-
        List.filter
          (fun (y, u) -> not (Obj_id.equal x y && Txn_id.equal u t))
          sim.informed;
      (match c with
      | Committed ->
          (object_of sim x).inform_commit t;
          emit sim (Action.Inform_commit (x, t))
      | Aborted ->
          (object_of sim x).inform_abort t;
          emit sim (Action.Inform_abort (x, t))
      | No -> assert false);
      true

(* Maybe inject an abort of a random live, incomplete transaction. *)
let maybe_inject sim abort_prob =
  if abort_prob > 0.0 && Rng.float sim.rng 1.0 < abort_prob then begin
    let victims =
      Txn_id.Tbl.fold
        (fun t s acc ->
          if s.requested && s.completed = No && not (Txn_id.is_root t) then
            t :: acc
          else acc)
        sim.statuses []
    in
    match victims with
    | [] -> ()
    | _ ->
        let t = Rng.pick_list sim.rng victims in
        sim.injected_aborts <- sim.injected_aborts + 1;
        if sim.obs_emit then
          Obs.instant ~txn:t
            ~ts:(sim.obs_base + sim.n_actions)
            sim.obs.o "abort.injected";
        do_abort sim ~cause:`Injected t
  end

(* Break a global stall.  Build the waits-for graph among blocked
   accesses: [a] waits for blocked access [b] when [b] is a descendant
   of one of [a]'s lock/log blockers (that subtree cannot finish, and
   so cannot release, while [b] is stuck).  A cycle is a genuine
   deadlock and its members are the preferred victims; otherwise any
   blocked access is aborted (starvation by an eternal constraint,
   e.g. a too-late multiversion write). *)
let break_deadlock sim =
  let blocked =
    Txn_id.Tbl.fold
      (fun t s acc ->
        if
          s.created && s.commit_value = None && s.completed = No
          && is_access sim t
        then t :: acc
        else acc)
      sim.statuses []
  in
  match blocked with
  | [] -> false
  | _ ->
      let waits_for a =
        let x = System_type.object_of_exn sim.schema.Schema.sys a in
        let blockers = (object_of sim x).waiting_on a in
        List.filter
          (fun b ->
            (not (Txn_id.equal a b))
            && List.exists (fun (u, _) -> Txn_id.is_descendant b u) blockers)
          blocked
      in
      let victim =
        (* DFS for a node on a cycle. *)
        let visiting = Txn_id.Tbl.create 8 and done_ = Txn_id.Tbl.create 8 in
        let found = ref None in
        let rec dfs a =
          if !found = None && not (Txn_id.Tbl.mem done_ a) then
            if Txn_id.Tbl.mem visiting a then found := Some a
            else begin
              Txn_id.Tbl.add visiting a ();
              List.iter dfs (waits_for a);
              Txn_id.Tbl.remove visiting a;
              Txn_id.Tbl.replace done_ a ()
            end
        in
        List.iter dfs blocked;
        !found
      in
      let t =
        match victim with
        | Some v ->
            sim.deadlock_cycles <- sim.deadlock_cycles + 1;
            v
        | None -> Rng.pick_list sim.rng blocked
      in
      sim.deadlock_aborts <- sim.deadlock_aborts + 1;
      if sim.obs_emit then
        Obs.instant ~txn:t
          ~ts:(sim.obs_base + sim.n_actions)
          sim.obs.o "deadlock.victim";
      do_abort sim ~cause:`Deadlock t;
      true


let is_inform = function C_inform _ -> true | _ -> false

let make ?(policy = Random_step) ?(inform_policy = Eager) ?(abort_prob = 0.0)
    ?(top_comb = Program.Par) ?(max_steps = 1_000_000) ?(obs = Obs.null)
    ?(on_action = fun _ -> ()) ?commit_gate ~seed (schema : Schema.t) factory
    forest =
  let sim =
    {
      schema;
      rng = Rng.create seed;
      statuses = Txn_id.Tbl.create 128;
      interps = Txn_id.Tbl.create 64;
      objects = List.map (fun x -> (x, factory schema x)) schema.objects;
      obs = obs_cache obs;
      c_refused =
        (let tbl = Obj_id.Tbl.create 16 in
         if Obs.enabled obs then
           List.iter
             (fun x ->
               Obj_id.Tbl.replace tbl x
                 (Metrics.counter (Obs.metrics obs)
                    ("runtime.refused." ^ Obj_id.name x)))
             schema.objects;
         tbl);
      obs_on = Obs.enabled obs;
      obs_emit = Obs.emitting obs;
      obs_base = Obs.now obs;
      policy;
      inform_policy;
      abort_prob;
      max_steps;
      on_action;
      commit_gate;
      blocked_now = Hashtbl.create 16;
      informed = [];
      buf = [];
      n_actions = 0;
      round_no = 0;
      steps = 0;
      truncated = false;
      blocked_attempts = 0;
      deadlock_aborts = 0;
      deadlock_cycles = 0;
      injected_aborts = 0;
      orphan_aborts = 0;
    }
  in
  (* T0: an always-created interpreter that never commits. *)
  add_status sim Txn_id.root None;
  (status sim Txn_id.root).created <- true;
  Txn_id.Tbl.replace sim.interps Txn_id.root
    (Txn_interp.make ~no_commit:true Txn_id.root top_comb forest);
  sim

let add_top sim prog =
  let root = Txn_id.Tbl.find sim.interps Txn_id.root in
  let i = Txn_interp.append_child root prog in
  Txn_id.child Txn_id.root i

(* One scheduling step: exactly one iteration of the closed-loop run's
   main loop, so [run] (a [step] loop) consumes the RNG identically to
   the pre-stepper implementation and seeded results are preserved.
   [`Quiescent] means nothing is enabled {e now}; an open-loop caller
   may {!add_top} more work and step again. *)
let step sim =
  if sim.steps >= sim.max_steps then begin
    sim.truncated <- true;
    `Truncated
  end
  else begin
    maybe_inject sim sim.abort_prob;
    let all = candidates sim in
    (* Under lazy informs, completion information is delivered only
       when nothing else in the system can move - the worst case for
       protocols that block on visibility or lock inheritance. *)
    let plain, informs =
      match sim.inform_policy with
      | Eager -> (all, [])
      | Lazy -> List.partition (fun c -> not (is_inform c)) all
    in
    let plain = Array.of_list plain and informs = Array.of_list informs in
    if Array.length plain = 0 && Array.length informs = 0 then `Quiescent
    else begin
      sim.round_no <- sim.round_no + 1;
      Rng.shuffle sim.rng plain;
      Rng.shuffle sim.rng informs;
      match sim.policy with
      | Random_step ->
          (* Fire the first candidate that succeeds, informs last. *)
          let fired =
            Array.exists (fun c -> fire sim c) plain
            || Array.exists (fun c -> fire sim c) informs
          in
          sim.steps <- sim.steps + 1;
          if fired then `Progress
          else if break_deadlock sim then `Progress
          else `Quiescent
      | Bsp_rounds ->
          let fired = ref false in
          Array.iter
            (fun c ->
              sim.steps <- sim.steps + 1;
              if fire sim c then fired := true)
            plain;
          if not !fired then
            Array.iter
              (fun c ->
                sim.steps <- sim.steps + 1;
                if fire sim c then fired := true)
              informs;
          if !fired then `Progress
          else if break_deadlock sim then `Progress
          else `Quiescent
    end
  end

let abort_txn sim t =
  match Txn_id.Tbl.find_opt sim.statuses t with
  | Some s when s.requested && s.completed = No ->
      sim.orphan_aborts <- sim.orphan_aborts + 1;
      if sim.obs_emit then
        Obs.instant ~txn:t
          ~ts:(sim.obs_base + sim.n_actions)
          sim.obs.o "abort.orphan";
      do_abort sim ~cause:`Orphan t;
      true
  | Some _ | None -> false

let top_state sim t =
  match Txn_id.Tbl.find_opt sim.statuses t with
  | None -> `Unknown
  | Some s -> (
      match s.completed with
      | Committed -> `Committed (Option.get s.commit_value)
      | Aborted -> `Aborted
      | No -> `Running)

let actions_so_far sim = sim.n_actions
let steps_so_far sim = sim.steps
let orphan_aborts sim = sim.orphan_aborts

let finish sim =
  (* Counters the simulator already tracks are settled in one batch
     here rather than incremented on the hot path. *)
  if sim.obs_on then begin
    let oc = sim.obs in
    Obs.settle oc.o
      ~clock:(sim.obs_base + sim.n_actions)
      ~actions:sim.n_actions;
    Metrics.incr ~by:sim.round_no oc.c_rounds;
    Metrics.incr ~by:sim.blocked_attempts oc.c_blocked;
    Metrics.incr ~by:sim.deadlock_aborts oc.c_dlk_aborts;
    Metrics.incr ~by:sim.deadlock_cycles oc.c_dlk_cycles;
    Metrics.incr ~by:sim.injected_aborts oc.c_injected
  end;
  let committed_top = ref 0 and aborted_top = ref 0 in
  Txn_id.Tbl.iter
    (fun t s ->
      if Txn_id.depth t = 1 then
        match s.completed with
        | Committed -> incr committed_top
        | Aborted -> incr aborted_top
        | No -> ())
    sim.statuses;
  {
    trace = Trace.of_list (List.rev sim.buf);
    stats =
      {
        actions = sim.n_actions;
        rounds = sim.round_no;
        blocked_attempts = sim.blocked_attempts;
        deadlock_aborts = sim.deadlock_aborts;
        deadlock_cycles = sim.deadlock_cycles;
        injected_aborts = sim.injected_aborts;
        truncated = sim.truncated;
      };
    committed_top = !committed_top;
    aborted_top = !aborted_top;
  }

let run ?policy ?inform_policy ?abort_prob ?top_comb ?max_steps ?obs ~seed
    (schema : Schema.t) factory forest =
  let sim =
    make ?policy ?inform_policy ?abort_prob ?top_comb ?max_steps ?obs ~seed
      schema factory forest
  in
  let rec loop () =
    match step sim with `Progress -> loop () | `Quiescent | `Truncated -> ()
  in
  loop ();
  finish sim
