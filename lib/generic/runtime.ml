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

(* Swap-remove arrays: add, remove and iteration touch members only, so
   the ready sets below cost what is live, not what was ever created.
   Each member records its own index through [slot]/[set_slot]; a
   vacated cell is emptied, so a removed member is not kept reachable. *)
module Bag = struct
  type 'a t = {
    mutable items : 'a option array;
    mutable len : int;
    slot : 'a -> int;
    set_slot : 'a -> int -> unit;
  }

  let create slot set_slot = { items = [||]; len = 0; slot; set_slot }

  let add b x =
    if b.len = Array.length b.items then begin
      let items = Array.make (max 16 (2 * b.len)) None in
      Array.blit b.items 0 items 0 b.len;
      b.items <- items
    end;
    b.items.(b.len) <- Some x;
    b.set_slot x b.len;
    b.len <- b.len + 1

  let remove b x =
    let i = b.slot x in
    let last = b.items.(b.len - 1) in
    b.items.(i) <- last;
    Option.iter (fun y -> b.set_slot y i) last;
    b.len <- b.len - 1;
    b.items.(b.len) <- None

  let iter f b =
    for i = 0 to b.len - 1 do
      Option.iter f b.items.(i)
    done

  let filter p b =
    let acc = ref [] in
    iter (fun x -> if p x then acc := x :: !acc) b;
    !acc
end

type status = {
  txn : Txn_id.t;
  parent : status option;  (* None for T0 *)
  top : int;  (* child index of T0 on the path to [txn]; -1 for T0 *)
  obj : obj option;  (* the object of an access; None otherwise *)
  program : Program.t option;  (* None for T0 *)
  mutable interp : Txn_interp.t option;  (* set at Create, non-accesses *)
  mutable created : bool;
  mutable commit_value : Value.t option;
  mutable completed : completion;
  mutable parked : bool;
      (* refused, and its object has not moved since: not a candidate *)
  mutable live_slot : int;  (* index in [sim.live] *)
  mutable interp_slot : int;  (* index in [sim.live_interps] *)
  mutable created_round : int;  (* round of the Create action *)
  mutable created_tick : int;  (* recorder tick of the Create action *)
  mutable blocked_streak : int;  (* consecutive try_respond refusals *)
  mutable blocked_since : int;  (* tick of the streak's first refusal *)
  mutable last_blockers : (Txn_id.t * Nt_gobj.Gobj.lock_kind) list;
      (* holders reported at the latest refusal; event-emitting runs only *)
}

(* A generic object and the accesses it refused since its last move. *)
and obj = {
  gobj : Nt_gobj.Gobj.t;
  mutable parked_here : status list;
  mutable refused_c : Metrics.counter option;
      (* [runtime.refused.<obj>], registered at the object's first
         refusal on a recording run *)
}

type inform = { at : obj; of_ : status; mutable inform_slot : int }

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
  | C_interp_output of status * Txn_interp.output
  | C_create of status
  | C_try_respond of status
  | C_commit of status
  | C_report of status
  | C_inform of inform

type sim = {
  rng : Rng.t;
  root : status;
  mutable tops : status option array;
      (* slot [i] holds top [T0.i] from its request to its report;
         afterwards its fate is the root interpreter's summary *)
  live : status Bag.t;  (* requested, not yet reported *)
  live_interps : status Bag.t;  (* created, commit not yet requested *)
  pending : inform Bag.t;  (* informs queued, not yet delivered *)
  objects : obj Obj_id.Tbl.t;
  obs : obs_cache;
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
      (* admission: a top-level [C_commit t] fires only if the gate
         allows it; a refusal aborts [t] instead (the permissive
         controller may abort anything requested and incomplete) *)
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
  mutable committed_top : int;
  mutable aborted_top : int;
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

let obj_of sim x =
  match Obj_id.Tbl.find_opt sim.objects x with
  | Some o -> o
  | None -> invalid_arg ("Runtime: unknown object " ^ Obj_id.name x)

let new_status txn ~parent ~obj ~program =
  {
    txn;
    parent;
    top =
      (match parent with
      | None -> -1
      | Some p when p.top < 0 -> Option.get (Txn_id.last_index txn)
      | Some p -> p.top);
    obj;
    program;
    interp = None;
    created = false;
    commit_value = None;
    completed = No;
    parked = false;
    live_slot = -1;
    interp_slot = -1;
    created_round = 0;
    created_tick = 0;
    blocked_streak = 0;
    blocked_since = 0;
    last_blockers = [];
  }

let add_status sim ~parent i program =
  let obj =
    match program with
    | Program.Access (x, _) -> Some (obj_of sim x)
    | Program.Node _ -> None
  in
  let t = Txn_id.child parent.txn i in
  let s = new_status t ~parent:(Some parent) ~obj ~program:(Some program) in
  if parent == sim.root then begin
    if i >= Array.length sim.tops then begin
      let tops = Array.make (max 16 (2 * i)) None in
      Array.blit sim.tops 0 tops 0 (Array.length sim.tops);
      sim.tops <- tops
    end;
    sim.tops.(i) <- Some s
  end;
  Bag.add sim.live s;
  t

(* Top-level completions are tallied before their action is emitted, so
   an [on_action] hook reading the tally sees this completion counted. *)
let count_top sim s outcome =
  match (s.parent, outcome) with
  | Some p, Committed when p == sim.root ->
      sim.committed_top <- sim.committed_top + 1
  | Some p, Aborted when p == sim.root ->
      sim.aborted_top <- sim.aborted_top + 1
  | _ -> ()

(* An object moved (a create, a successful respond or an inform): the
   accesses it refused may now be answered differently, so they become
   candidates again.  Until then re-asking could only repeat the
   refusal (the wake-up contract on {!Nt_gobj.Gobj.t.try_respond}). *)
let wake o =
  List.iter (fun s -> s.parked <- false) o.parked_here;
  o.parked_here <- []

(* The enabled candidates of the ready sets, plain moves and informs
   apart (under [Eager] the informs join the plain list).  The order is
   deterministic; the policy decides what fires. *)
let candidates sim =
  let plain = ref [] and informs = ref [] in
  let add c = plain := c :: !plain in
  Bag.iter
    (fun s ->
      List.iter
        (fun o -> add (C_interp_output (s, o)))
        (Txn_interp.enabled_outputs (Option.get s.interp)))
    sim.live_interps;
  Bag.iter
    (fun s ->
      if s.completed <> No then add (C_report s)
      else if Option.is_some s.commit_value then add (C_commit s)
      else if not s.created then add (C_create s)
      else if Option.is_some s.obj && not s.parked then add (C_try_respond s))
    sim.live;
  let queue = match sim.inform_policy with Eager -> plain | Lazy -> informs in
  Bag.iter (fun i -> queue := C_inform i :: !queue) sim.pending;
  (!plain, !informs)

(* Root-cause taxonomy for the metrics registry: an abort whose proper
   ancestor is already aborted is collateral of that ancestor's fate,
   whatever mechanism delivered it; otherwise the trigger (deadlock
   breaking = lock conflict, or fault injection) is the cause. *)
let record_abort_cause sim s cause =
  let rec ancestor_aborted s =
    match s.parent with
    | Some p -> p.completed = Aborted || ancestor_aborted p
    | None -> false
  in
  if ancestor_aborted s then Metrics.incr sim.obs.c_abort_parent
  else
    match cause with
    | `Deadlock -> Metrics.incr sim.obs.c_abort_lock
    | `Injected -> Metrics.incr sim.obs.c_abort_injected
    | `Admission -> Metrics.incr sim.obs.c_abort_admission
    | `Orphan -> Metrics.incr sim.obs.c_abort_orphan

(* Queue the informs of [s]'s completion: to the objects of its own
   subprogram only.  No other object holds anything of [s]'s subtree,
   so no other object's behaviour can depend on its fate. *)
let queue_informs sim s =
  List.iter
    (fun x -> Bag.add sim.pending { at = obj_of sim x; of_ = s; inform_slot = -1 })
    (Program.objects (Option.get s.program))

let do_abort sim ~cause s =
  s.completed <- Aborted;
  count_top sim s Aborted;
  emit sim (Action.Abort s.txn);
  (if sim.obs_on then begin
     record_abort_cause sim s cause;
     let ts = sim.obs_base + sim.n_actions in
     (* A transaction can abort before it was ever created; give such a
        span zero duration, as the recorder's generic path does. *)
     let began = if s.created then s.created_tick else ts in
     Obs.span_end sim.obs.o ts ~began s.txn Event.Aborted
   end);
  queue_informs sim s

(* [b] lies inside the subtree of one of [holders]: while [b] is stuck
   that subtree cannot finish, so cannot release what it holds, and
   whoever those holders block waits for [b]. *)
let waits_for holders b =
  List.exists (fun (h, _) -> Txn_id.is_descendant b.txn h) holders

(* Wait-for accounting (event-emitting runs only): [s] was refused
   because of the non-ancestral [holders].  Every other live access [b]
   whose latest attempt was refused, and which is still incomplete, is
   one [s] now waits for if it lies inside a holder's subtree; if [b]'s
   own latest blockers put [s]'s subtree in the way as well, the pair
   is a near-cycle — the shape {!break_deadlock} would abort. *)
let record_waitfor sim s holders =
  (* A descendant of a holder shares its top-level ancestor: comparing
     top indices first keeps the path test off the rest of the walk. *)
  let tops =
    List.map
      (fun (h, _) -> match Txn_id.path h with i :: _ -> i | [] -> -1)
      holders
  in
  Bag.iter
    (fun b ->
      if
        b != s && b.blocked_streak > 0 && List.mem b.top tops
        && b.completed = No && b.commit_value = None && waits_for holders b
      then begin
        Metrics.incr sim.obs.c_wf_edges;
        if waits_for b.last_blockers s then Metrics.incr sim.obs.c_wf_near
      end)
    sim.live

(* Fire a candidate; returns whether an action was emitted. *)
let fire sim c =
  match c with
  | C_interp_output (s, Txn_interp.Request_child (i, prog)) ->
      let child = add_status sim ~parent:s i prog in
      Txn_interp.note_child_requested (Option.get s.interp) i;
      emit sim (Action.Request_create child);
      true
  | C_interp_output (s, Txn_interp.Request_commit v) ->
      s.commit_value <- Some v;
      Txn_interp.note_commit_requested (Option.get s.interp);
      Bag.remove sim.live_interps s;
      emit sim (Action.Request_commit (s.txn, v));
      true
  | C_create s ->
      let t = s.txn in
      s.created <- true;
      s.created_round <- sim.round_no;
      (match (s.obj, s.program) with
      | Some o, _ ->
          o.gobj.create t;
          wake o
      | None, Some (Program.Node (comb, children)) ->
          s.interp <- Some (Txn_interp.make t comb children);
          Bag.add sim.live_interps s
      | None, _ -> assert false);
      emit sim (Action.Create t);
      if sim.obs_on then begin
        let ts = sim.obs_base + sim.n_actions in
        s.created_tick <- ts;
        Obs.span_begin sim.obs.o ts t
      end;
      true
  | C_try_respond s -> (
      let t = s.txn and o = Option.get s.obj in
      match o.gobj.try_respond t with
      | Some v ->
          s.commit_value <- Some v;
          wake o;
          if s.blocked_streak > 0 then begin
            if sim.obs_on then begin
              Metrics.observe sim.obs.h_blocked_streak s.blocked_streak;
              Metrics.observe sim.obs.h_wait_ticks
                (sim.obs_base + sim.n_actions - s.blocked_since)
            end;
            s.blocked_streak <- 0
          end;
          emit sim (Action.Request_commit (t, v));
          true
      | None ->
          s.parked <- true;
          o.parked_here <- s :: o.parked_here;
          sim.blocked_attempts <- sim.blocked_attempts + 1;
          s.blocked_streak <- s.blocked_streak + 1;
          (* The [runtime.blocked] counter is settled once at the end of
             the run from [sim.blocked_attempts]; only the event stream
             needs per-attempt work — the wait-for bookkeeping included,
             so a metrics-only recorder pays two field writes here. *)
          (if sim.obs_on then begin
             let ts = sim.obs_base + sim.n_actions in
             let x = o.gobj.obj in
             if s.blocked_streak = 1 then s.blocked_since <- ts;
             (match o.refused_c with
             | Some c -> Metrics.incr c
             | None ->
                 let c =
                   Metrics.counter (Obs.metrics sim.obs.o)
                     ("runtime.refused." ^ Obj_id.name x)
                 in
                 o.refused_c <- Some c;
                 Metrics.incr c);
             if sim.obs_emit then begin
               let holders = o.gobj.waiting_on t in
               s.last_blockers <- holders;
               record_waitfor sim s holders;
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
  | C_commit s
    when Txn_id.depth s.txn = 1
         && match sim.commit_gate with Some g -> not (g s.txn) | None -> false
    ->
      (* Admission veto: performing this commit would close an SG
         cycle.  The permissive controller may abort anything
         requested and incomplete, so the veto is delivered as an
         abort — the resulting behavior is still one the generic
         system allows. *)
      if sim.obs_emit then
        Obs.instant ~txn:s.txn
          ~ts:(sim.obs_base + sim.n_actions)
          sim.obs.o "abort.admission";
      do_abort sim ~cause:`Admission s;
      true
  | C_commit s ->
      s.completed <- Committed;
      count_top sim s Committed;
      emit sim (Action.Commit s.txn);
      if sim.obs_on then begin
        Metrics.observe sim.obs.h_commit_rounds
          (sim.round_no - s.created_round);
        let ts = sim.obs_base + sim.n_actions in
        let began = if s.created then s.created_tick else ts in
        Obs.span_end sim.obs.o ts ~began s.txn Event.Committed
      end;
      queue_informs sim s;
      true
  | C_report s ->
      let t = s.txn in
      Bag.remove sim.live s;
      let parent = Option.get s.parent in
      let interp = Option.get parent.interp in
      let index = Option.get (Txn_id.last_index t) in
      if parent == sim.root then sim.tops.(index) <- None;
      (match s.completed with
      | Committed ->
          let v = Option.get s.commit_value in
          Txn_interp.note_child_committed interp index v;
          emit sim (Action.Report_commit (t, v))
      | Aborted ->
          Txn_interp.note_child_aborted interp index;
          emit sim (Action.Report_abort t)
      | No -> assert false);
      true
  | C_inform ({ at = o; of_ = s; _ } as i) ->
      Bag.remove sim.pending i;
      let x = o.gobj.obj in
      (match s.completed with
      | Committed ->
          o.gobj.inform_commit s.txn;
          emit sim (Action.Inform_commit (x, s.txn))
      | Aborted ->
          o.gobj.inform_abort s.txn;
          emit sim (Action.Inform_abort (x, s.txn))
      | No -> assert false);
      wake o;
      true

(* Maybe inject an abort of a random live, incomplete transaction. *)
let maybe_inject sim abort_prob =
  if abort_prob > 0.0 && Rng.float sim.rng 1.0 < abort_prob then begin
    let victims = Bag.filter (fun s -> s.completed = No) sim.live in
    match victims with
    | [] -> ()
    | _ ->
        let s = Rng.pick_list sim.rng victims in
        sim.injected_aborts <- sim.injected_aborts + 1;
        if sim.obs_emit then
          Obs.instant ~txn:s.txn
            ~ts:(sim.obs_base + sim.n_actions)
            sim.obs.o "abort.injected";
        do_abort sim ~cause:`Injected s
  end

(* Break a global stall.  Build the waits-for graph among blocked
   accesses: [a] waits for blocked access [b] when [b] is a descendant
   of one of [a]'s lock/log blockers (that subtree cannot finish, and
   so cannot release, while [b] is stuck).  A cycle is a genuine
   deadlock and its members are the preferred victims; otherwise any
   blocked access is aborted (starvation by an eternal constraint,
   e.g. a too-late multiversion write).  Called when nothing can fire,
   so every blocked access is parked. *)
let break_deadlock sim =
  let blocked =
    Bag.filter
      (fun s ->
        s.created && s.commit_value = None && s.completed = No
        && Option.is_some s.obj)
      sim.live
  in
  match blocked with
  | [] -> false
  | _ ->
      let waits_for_blocked a =
        let holders = (Option.get a.obj).gobj.waiting_on a.txn in
        List.filter (fun b -> a != b && waits_for holders b) blocked
      in
      let victim =
        (* DFS for a node on a cycle. *)
        let visiting = Txn_id.Tbl.create 8 and done_ = Txn_id.Tbl.create 8 in
        let found = ref None in
        let rec dfs a =
          if Option.is_none !found && not (Txn_id.Tbl.mem done_ a.txn) then
            if Txn_id.Tbl.mem visiting a.txn then found := Some a
            else begin
              Txn_id.Tbl.add visiting a.txn ();
              List.iter dfs (waits_for_blocked a);
              Txn_id.Tbl.remove visiting a.txn;
              Txn_id.Tbl.replace done_ a.txn ()
            end
        in
        List.iter dfs blocked;
        !found
      in
      let s =
        match victim with
        | Some v ->
            sim.deadlock_cycles <- sim.deadlock_cycles + 1;
            v
        | None -> Rng.pick_list sim.rng blocked
      in
      sim.deadlock_aborts <- sim.deadlock_aborts + 1;
      if sim.obs_emit then
        Obs.instant ~txn:s.txn
          ~ts:(sim.obs_base + sim.n_actions)
          sim.obs.o "deadlock.victim";
      do_abort sim ~cause:`Deadlock s;
      true

let make ?(policy = Random_step) ?(inform_policy = Eager) ?(abort_prob = 0.0)
    ?(top_comb = Program.Par) ?(max_steps = 1_000_000) ?(obs = Obs.null)
    ?(on_action = fun _ -> ()) ?commit_gate ~seed (schema : Schema.t) factory
    forest =
  (* T0: an always-created interpreter that never commits. *)
  let root = new_status Txn_id.root ~parent:None ~obj:None ~program:None in
  root.created <- true;
  root.interp <-
    Some (Txn_interp.make ~no_commit:true Txn_id.root top_comb forest);
  let objects = Obj_id.Tbl.create 16 in
  List.iter
    (fun x ->
      Obj_id.Tbl.replace objects x
        { gobj = factory schema x; parked_here = []; refused_c = None })
    schema.objects;
  let sim =
    {
      rng = Rng.create seed;
      root;
      tops = [||];
      live = Bag.create (fun s -> s.live_slot) (fun s i -> s.live_slot <- i);
      live_interps =
        Bag.create (fun s -> s.interp_slot) (fun s i -> s.interp_slot <- i);
      pending =
        Bag.create (fun i -> i.inform_slot) (fun i n -> i.inform_slot <- n);
      objects;
      obs = obs_cache obs;
      obs_on = Obs.enabled obs;
      obs_emit = Obs.emitting obs;
      obs_base = Obs.now obs;
      policy;
      inform_policy;
      abort_prob;
      max_steps;
      on_action;
      commit_gate;
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
      committed_top = 0;
      aborted_top = 0;
    }
  in
  Bag.add sim.live_interps root;
  sim

let add_top sim prog =
  let i = Txn_interp.append_child (Option.get sim.root.interp) prog in
  Txn_id.child Txn_id.root i

(* One scheduling step.  [`Quiescent] means nothing is enabled {e now};
   an open-loop caller may {!add_top} more work and step again. *)
let step sim =
  if sim.steps >= sim.max_steps then begin
    sim.truncated <- true;
    `Truncated
  end
  else begin
    maybe_inject sim sim.abort_prob;
    (* Under lazy informs, completion information is delivered only
       when nothing else in the system can move - the worst case for
       protocols that block on visibility or lock inheritance. *)
    let plain, informs = candidates sim in
    let plain = Array.of_list plain and informs = Array.of_list informs in
    if Array.length plain = 0 && Array.length informs = 0 then
      (* Only parked accesses, if any, remain: each was refused by an
         object that has not moved since, so nothing can fire. *)
      if break_deadlock sim then begin
        sim.round_no <- sim.round_no + 1;
        sim.steps <- sim.steps + 1;
        `Progress
      end
      else `Quiescent
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

let top_index t =
  match Txn_id.last_index t with
  | Some i when Txn_id.depth t = 1 -> i
  | _ ->
      invalid_arg
        ("Runtime: " ^ Txn_id.to_string t ^ " is not a top-level name")

(* The slot of a top between its request and its report. *)
let top_slot sim t =
  let i = top_index t in
  if i < Array.length sim.tops then sim.tops.(i) else None

let abort_txn sim t =
  match top_slot sim t with
  | Some s when s.completed = No ->
      sim.orphan_aborts <- sim.orphan_aborts + 1;
      if sim.obs_emit then
        Obs.instant ~txn:t
          ~ts:(sim.obs_base + sim.n_actions)
          sim.obs.o "abort.orphan";
      do_abort sim ~cause:`Orphan s;
      true
  | Some _ | None -> false

let top_state sim t =
  match top_slot sim t with
  | Some s -> (
      match s.completed with
      | Committed -> `Committed (Option.get s.commit_value)
      | Aborted -> `Aborted
      | No -> `Running)
  | None -> (
      (* Reported (the root interpreter holds its summary) or not yet
         requested. *)
      match Txn_interp.summary (Option.get sim.root.interp) (top_index t) with
      | Some (Value.Pair (Value.Bool true, v)) -> `Committed v
      | Some _ -> `Aborted
      | None -> `Unknown)

let actions_so_far sim = sim.n_actions
let steps_so_far sim = sim.steps
let orphan_aborts sim = sim.orphan_aborts
let committed_top sim = sim.committed_top
let aborted_top sim = sim.aborted_top

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
    committed_top = sim.committed_top;
    aborted_top = sim.aborted_top;
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
