(** The compile step and ledger bridge shared by every engine-backed
    algorithm.

    Runs themselves go through {!Tl_engine.Engine} — the one entry
    point, whose stepper comes from {!Tl_engine.Engine.default_mode}
    unless a call passes [?mode]. This module supplies the cached CSR
    compile that feeds them and merges measured engine rounds into a
    {!Round_cost} ledger. It also force-links the [Shard] and [Proc]
    backends ({!Tl_shard.Shard}, [Tl_proc.Coordinator]), so every binary
    built on it can run those modes. *)

val compile : Tl_graph.Semi_graph.t -> Tl_engine.Topology.t * float * bool
(** [(topo, compile_s, cache_hit)] through the topology cache, counted
    as [topo:cache_hit] / [topo:cache_miss] on the current span. Pass
    the last two to {!Tl_engine.Engine.run} as [~compile_s] and
    [~compile_cached]. *)

val charge_trace : Round_cost.t -> Tl_engine.Trace.t -> unit
(** Merge an engine trace into a round ledger: charges the measured
    engine rounds under the phase ["engine:<label>"]. Used by the CLI to
    surface [--trace] metrics in the standard ledger report. *)
