module Topology = Tl_engine.Topology
module Span = Tl_obs.Span

(* Force-link the sharded halo-exchange backend: Tl_shard registers
   itself into Engine.shard_backend at module initialization, but the
   linker drops unreferenced archive modules, so the runtime references
   it explicitly — every binary built on the runtime can run
   [Shard] mode. *)
let () = Tl_shard.Shard.register ()

(* Same force-link for the process backend: Tl_proc registers itself
   into Engine.proc_backend at module initialization. *)
let () = Tl_proc.Coordinator.register ()

(* Compiles through the topology cache: repeated phases over the same
   semi-graph view (color-reduction loops, the star families) reuse one
   CSR snapshot. Each compile records a [topo:cache_hit]/[topo:cache_miss]
   span counter (no-op without an ambient span) and the hit flag is
   stamped on the engine trace. *)
let compile sg =
  let t0 = Unix.gettimeofday () in
  let topo, hit = Topology.compile_cached_stat sg in
  Span.add_counter (if hit then "topo:cache_hit" else "topo:cache_miss") 1;
  (topo, Unix.gettimeofday () -. t0, hit)

let charge_trace cost trace =
  let m = Tl_engine.Trace.metrics trace in
  Round_cost.charge cost
    ("engine:" ^ Tl_engine.Trace.label trace)
    m.Tl_engine.Trace.rounds
