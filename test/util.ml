(* Shared helpers for the test suite. *)
open Core

let txn = Txn_id.of_path
let x0 = Obj_id.make "x"
let y0 = Obj_id.make "y"

(* A two-register schema with two simple conflicting programs. *)
let rw_pair () =
  let forest =
    [
      Program.seq
        [
          Program.access x0 Datatype.Read;
          Program.access x0 (Datatype.Write (Value.Int 1));
          Program.access y0 (Datatype.Write (Value.Int 10));
        ];
      Program.seq
        [
          Program.access y0 Datatype.Read;
          Program.access x0 (Datatype.Write (Value.Int 2));
        ];
    ]
  in
  let schema =
    Program.schema_of
      ~objects:[ (x0, Register.make ()); (y0, Register.make ()) ]
      forest
  in
  (forest, schema)

let run_protocol ?(abort_prob = 0.0) ?(policy = Runtime.Random_step) ~seed
    schema factory forest =
  Runtime.run ~policy ~abort_prob ~seed schema factory forest

let all_prefixes trace =
  List.init (Trace.length trace + 1) (fun n -> Trace.prefix trace n)

(* Sampled prefixes for expensive per-prefix invariants. *)
let sampled_prefixes ?(stride = 7) trace =
  let n = Trace.length trace in
  let rec go i acc = if i > n then acc else go (i + stride) (Trace.prefix trace i :: acc) in
  go 0 [ trace ]

(* Trace-builder helpers: the action bursts that open, commit and
   abort a transaction, so hand-written expected traces read as a list
   of lifecycle fragments instead of raw action lists. *)
let open_txn t = [ Action.Request_create t; Action.Create t ]

let commit_txn ?(report = true) t v =
  [ Action.Request_commit (t, v); Action.Commit t ]
  @ if report then [ Action.Report_commit (t, v) ] else []

(* A leaf access's whole life: created, then committed with value [v]. *)
let leaf_txn ?report t v = open_txn t @ commit_txn ?report t v

let trace_of fragments = Trace.of_list (List.concat fragments)

(* Search seeds [1..max_seed] for one where [f seed] yields a witness;
   fail the test with [msg] when none does. *)
let find_seed ?(max_seed = 100) msg f =
  let rec go seed =
    if seed > max_seed then Alcotest.fail msg
    else match f seed with Some x -> x | None -> go (seed + 1)
  in
  go 1

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let value_testable = Alcotest.testable Value.pp Value.equal
let txn_testable = Alcotest.testable Txn_id.pp Txn_id.equal

let datatypes () =
  [
    Register.make ();
    Counter.make ();
    Bank_account.make ~init:5 ();
    Rset.make ();
    Fifo_queue.make ();
    Keyed_store.make ();
  ]

(* Exhaustive small operation universes per data type, for oracle
   validation. *)
let op_universe (dt : Datatype.t) : Datatype.op list =
  match dt.dt_name with
  | "register" ->
      [ Datatype.Read; Datatype.Write (Value.Int 1); Datatype.Write (Value.Int 2) ]
  | "counter" ->
      [ Datatype.Get; Datatype.Incr 0; Datatype.Incr 1; Datatype.Incr 2;
        Datatype.Decr 1 ]
  | "account" ->
      [ Datatype.Balance; Datatype.Deposit 0; Datatype.Deposit 2;
        Datatype.Withdraw 0; Datatype.Withdraw 1; Datatype.Withdraw 4 ]
  | "set" ->
      [ Datatype.Size; Datatype.Insert (Value.Int 1); Datatype.Insert (Value.Int 2);
        Datatype.Remove (Value.Int 1); Datatype.Remove (Value.Int 2);
        Datatype.Member (Value.Int 1); Datatype.Member (Value.Int 2) ]
  | "queue" ->
      [ Datatype.Enqueue (Value.Int 1); Datatype.Enqueue (Value.Int 2);
        Datatype.Dequeue ]
  | "keyed_store" ->
      [ Datatype.Kread (Value.Int 0); Datatype.Kread (Value.Int 1);
        Datatype.Kwrite (Value.Int 0, Value.Int 5);
        Datatype.Kwrite (Value.Int 0, Value.Int 6);
        Datatype.Kwrite (Value.Int 1, Value.Int 5) ]
  | name -> invalid_arg ("op_universe: " ^ name)

(* All (op, value) operations realizable from the probe states. *)
let realizable_operations (dt : Datatype.t) =
  List.concat_map
    (fun op ->
      List.map (fun s -> (op, snd (dt.apply s op))) dt.probe_states
      |> List.sort_uniq Stdlib.compare)
    (op_universe dt)
  |> List.sort_uniq Stdlib.compare

(* What a monitor reports about its graph: the edges with their
   witnesses, the maintained order and the reorder count. *)
let monitor_report m =
  let g = Monitor.graph m in
  ( List.map
      (fun (a, b) ->
        ( Txn_id.to_string a,
          Txn_id.to_string b,
          Option.map
            (Format.asprintf "%a" Monitor.pp_provenance)
            (Graph.label g a b) ))
      (List.sort compare (Graph.edges g)),
    Graph.order g,
    Graph.reorders g )
