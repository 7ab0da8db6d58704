(** The umbrella API of [nested-sg].

    One import gives the whole system, grouped as in DESIGN.md:

    {ul
    {- naming and traces: {!Txn_id}, {!Obj_id}, {!Value},
       {!System_type}, {!Action}, {!Trace}, {!Rng};}
    {- serial specifications: {!Datatype} and the five shipped types,
       {!Schema}, {!Serial_spec}, {!Rw};}
    {- systems: {!Program}, {!Serial_exec}, {!Simple_db}, {!Runtime},
       {!Txn_interp}, {!Gobj};}
    {- protocols: {!Moss_object}, {!Undo_object} (plus their invariant
       checkers) and {!Broken};}
    {- the serialization-graph construction: {!Sg}, {!Conflict},
       {!Precedes}, {!Sibling_order}, {!Suitability}, {!View},
       {!Return_values}, {!Graph} and the Theorem 8/19 {!Checker};}
    {- the classical baseline: {!History}, {!Flat_sg};}
    {- workloads and measurement: {!Gen}, {!Scenario}, {!Stats},
       {!Table};}
    {- observability: {!Obs}, {!Metrics}, {!Obs_event}, {!Obs_sink},
       {!Chrome_trace}, {!Obs_json}, {!Stage}, {!Gcmon}, {!Profile},
       {!Flight};}
    {- property-based checking: {!Check}, {!Shrink}, {!Bundle};}
    {- serving and durability: {!Wire}, {!Admission}, {!Engine},
       {!Wal}, {!Telemetry} (plus {!Version});}
    {- multicore sharding: {!Partition}, {!Footprint}, {!Split},
       {!Spine}, {!Shard_engine}, {!Shard_router}, {!Shard_cluster},
       {!Shard_service}.}} *)

module Txn_id = Nt_base.Txn_id
module Obj_id = Nt_base.Obj_id
module Value = Nt_base.Value
module System_type = Nt_base.System_type
module Action = Nt_base.Action
module Trace = Nt_base.Trace
module Trace_io = Nt_base.Trace_io
module Trace_stats = Nt_base.Trace_stats
module Rng = Nt_base.Rng
module Datatype = Nt_spec.Datatype
module Register = Nt_spec.Register
module Counter = Nt_spec.Counter
module Bank_account = Nt_spec.Bank_account
module Rset = Nt_spec.Rset
module Fifo_queue = Nt_spec.Fifo_queue
module Keyed_store = Nt_spec.Keyed_store
module Vreg = Nt_spec.Vreg
module Schema = Nt_spec.Schema
module Serial_spec = Nt_spec.Serial_spec
module Rw = Nt_spec.Rw
module Program = Nt_serial.Program
module Serial_exec = Nt_serial.Serial_exec
module Simple_db = Nt_serial.Simple_db
module Serial_system = Nt_serial.Serial_system
module Serial_search = Nt_serial.Serial_search
module Automaton = Nt_iosim.Automaton
module Executor = Nt_iosim.Executor
module Gobj = Nt_gobj.Gobj
module Broken = Nt_gobj.Broken
module Moss_object = Nt_moss.Moss_object
module Moss_invariants = Nt_moss.Moss_invariants
module Undo_object = Nt_undo.Undo_object
module Undo_invariants = Nt_undo.Undo_invariants
module Mvts_object = Nt_mvts.Mvts_object
module Commlock_object = Nt_locking.Commlock_object
module Replication = Nt_replication.Replication
module Runtime = Nt_generic.Runtime
module Txn_interp = Nt_generic.Txn_interp
module Graph = Nt_sg.Graph
module Sibling_order = Nt_sg.Sibling_order
module Conflict = Nt_sg.Conflict
module Precedes = Nt_sg.Precedes
module Sg = Nt_sg.Sg
module Suitability = Nt_sg.Suitability
module View = Nt_sg.View
module Return_values = Nt_sg.Return_values
module Theorem2 = Nt_sg.Theorem2
module Essn = Nt_sg.Essn
module Checker = Nt_sg.Checker
module Dot = Nt_sg.Dot
module Monitor = Nt_sg.Monitor
module History = Nt_classical.History
module Flat_sg = Nt_classical.Flat_sg
module View_serial = Nt_classical.View_serial
module Gen = Nt_workload.Gen
module Scenario = Nt_workload.Scenario
module Program_io = Nt_workload.Program_io
module Stats = Nt_stats.Stats
module Table = Nt_stats.Table
module Obs = Nt_obs.Obs
module Metrics = Nt_obs.Metrics
module Obs_event = Nt_obs.Event
module Obs_sink = Nt_obs.Sink
module Chrome_trace = Nt_obs.Chrome
module Obs_json = Nt_obs.Json
module Stage = Nt_obs.Stage
module Gcmon = Nt_obs.Gcmon
module Profile = Nt_prof.Profile
module Flight = Nt_prof.Flight
module Check = Nt_check.Check
module Shrink = Nt_check.Shrink
module Bundle = Nt_check.Bundle
module Version = Nt_base.Version
module Wire = Nt_net.Wire
module Admission = Nt_net.Admission
module Engine = Nt_net.Engine
module Wal = Nt_net.Wal
module Telemetry = Nt_net.Telemetry
module Partition = Nt_shard.Partition
module Footprint = Nt_shard.Footprint
module Split = Nt_shard.Split
module Spine = Nt_shard.Spine
module Shard_engine = Nt_shard.Shard_engine
module Shard_router = Nt_shard.Router
module Shard_cluster = Nt_shard.Cluster
module Shard_service = Nt_shard.Service
module Domain_compat = Nt_shard.Domain_compat
