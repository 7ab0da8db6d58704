(** Random workload generation.

    Produces top-level program forests (plus matching object
    declarations) with tunable shape and contention.  All generation is
    driven by {!Nt_base.Rng}, so a (profile, seed) pair fully determines
    the workload. *)

open Nt_base
open Nt_spec
open Nt_serial

type profile = {
  n_top : int;  (** Top-level transactions (children of [T0]). *)
  depth : int;  (** Maximum nesting depth below a top-level node. *)
  fanout : int;  (** Maximum children per inner node (≥ 1). *)
  n_objects : int;  (** Number of objects. *)
  theta : float;  (** Zipf skew of object choice; 0 = uniform. *)
  par_ratio : float;  (** Probability an inner node runs children [Par]. *)
  read_ratio : float;  (** Read fraction for read/write workloads. *)
}

val default : profile
(** 8 top-level transactions, depth 2, fanout 3, 4 objects, uniform
    access, half [Par], 50% reads. *)

(** {2 Adversarial shapes}

    Profiles tuned to stress specific protocol weaknesses; used by
    {!Nt_check} to bias exploration towards the behaviors that
    historically betray broken concurrency control. *)

val lock_heavy : profile
(** Everyone fights over one object, write-heavy — maximal lock
    conflicts and deadlock pressure. *)

val deep_nesting : profile
(** Few top-level transactions, nesting depth 4 — exercises lock
    inheritance and abort propagation along long ancestor chains. *)

val abort_storm : profile
(** A moderately contended shape meant to be run with a high
    fault-injection rate ([abort_prob]), so recovery paths (undo,
    inform handling, orphan discard) dominate the execution. *)

(** {2 Weighted action grammars}

    The plain generators draw operations from each data type's own
    [sample_ops].  A {!weights} value instead draws the {e class} of
    the next access from an explicit distribution — observers,
    commuting updates, absolute overwrites, low-commutativity
    mutators — and then picks a concrete operation of that class
    supported by the chosen object's type (falling back to the
    nearest supported class, in the order above, when the type lacks
    one). *)

type weights = {
  w_observe : int;  (** [Read]/[Get]/[Balance]/[Member]/[Size]/[Kread]. *)
  w_update : int;  (** Commuting updates: [Incr]/[Decr]/[Deposit]/[Insert]/[Remove]. *)
  w_overwrite : int;  (** Absolute writes: [Write]/[Kwrite]. *)
  w_mutate : int;  (** Low-commutativity: [Withdraw]/[Enqueue]/[Dequeue]. *)
}

val balanced : weights
(** Equal weight on all four classes. *)

val contended : weights
(** Overwrite/mutate-heavy — the grammar that makes conflicts (and
    serialization-graph edges) dense. *)

val observers : weights
(** Observe-only (weight zero elsewhere) — useful as a distribution
    sanity check and as a conflict-free control. *)

val sample_weighted : Rng.t -> weights -> Datatype.t -> Datatype.op
(** One operation of the given type drawn from the weighted class
    grammar, with the documented nearest-class fallback (exposed so
    distribution tests can pin the sampler against its nominal
    weights). *)

val weighted :
  ?weights:weights ->
  Rng.t ->
  profile ->
  Program.t list * (Obj_id.t * Datatype.t) list
(** A mixed-type workload (objects round-robin over the shipped data
    types, like {!mixed}) whose accesses follow the weighted grammar
    (default {!balanced}). *)

val registers :
  Rng.t -> profile -> Program.t list * (Obj_id.t * Datatype.t) list
(** A read/write workload over registers (the Sections 3–5 setting). *)

val counters :
  Rng.t -> profile -> Program.t list * (Obj_id.t * Datatype.t) list
(** A counter workload, increment-heavy per the profile's
    [read_ratio] (reads become [Get]). *)

val mixed :
  Rng.t -> profile -> Program.t list * (Obj_id.t * Datatype.t) list
(** Objects drawn round-robin from all five shipped data types, each
    access sampled from its object's own operation distribution. *)

(** {2 SmallBank-style contended transactions}

    Multi-object read-modify-write programs over register "accounts"
    with Zipf-skewed ([theta]) account popularity — the contention
    shape that makes weak-isolation anomalies (write skew, lost
    update) likely.  Kinds follow the SmallBank benchmark: balance
    (read two accounts), deposit (RMW one account), write-check (read
    both, write one — the write-skew shape), amalgamate (read both,
    write both), payment (RMW transfer across two accounts). *)

type smallbank_kind = Balance | Deposit | Write_check | Amalgamate | Payment

type smallbank_mix = {
  m_balance : int;
  m_deposit : int;
  m_write_check : int;
  m_amalgamate : int;
  m_payment : int;
}
(** Integer weights of the five transaction kinds. *)

val smallbank_default : smallbank_mix
(** Deposit/write-check heavy, after the benchmark's usual mix. *)

val smallbank_profile : profile
(** The preset [Nt_check] runs SmallBank scenarios under: few hot
    accounts ([theta = 0.9]) shared by 8 top-level transactions. *)

val sample_kind : Rng.t -> smallbank_mix -> smallbank_kind
(** Draw one transaction kind from the mix (exposed so distribution
    tests can pin the sampler against its nominal weights). *)

val smallbank_txn :
  ?mix:smallbank_mix -> theta:float -> Rng.t -> Obj_id.t array -> Program.t
(** One SmallBank transaction over the given accounts, their
    popularity Zipf-skewed by [theta] (default mix
    {!smallbank_default}) — the generator {!smallbank} draws its
    forest from, shared with live load generators. *)

val smallbank :
  ?mix:smallbank_mix ->
  Rng.t ->
  profile ->
  Program.t list * (Obj_id.t * Datatype.t) list
(** [p.n_top] SmallBank transactions over [max 2 p.n_objects] register
    accounts with Zipf skew [p.theta] (default mix
    {!smallbank_default}). *)

val forest_and_schema :
  (Rng.t -> profile -> Program.t list * (Obj_id.t * Datatype.t) list) ->
  seed:int ->
  profile ->
  Program.t list * Schema.t
(** Generate and package with the induced schema. *)
