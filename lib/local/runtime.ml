(* Thin compatibility wrappers over Tl_engine: the legacy full-scan
   stepper with its two full array copies per round lives on only as the
   engine's Naive reference mode. *)

module Engine = Tl_engine.Engine
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

type 'state outcome = { states : 'state array; rounds : int }

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

let run_with ?mode ?sched ?equal ?trace ~sg ~init ~step ~halted ~max_rounds ()
    =
  let topo, compile_s, compile_cached = compile sg in
  let o =
    Engine.run ?mode ?sched ?equal ?trace ~label:"runtime.run" ~compile_s
      ~compile_cached ~topo ~init ~step ~halted ~max_rounds ()
  in
  { states = o.Engine.states; rounds = o.Engine.rounds }

let run_until_stable_with ?mode ?sched ?trace ~sg ~init ~step ~equal
    ~max_rounds () =
  let topo, compile_s, compile_cached = compile sg in
  let o =
    Engine.run_until_stable ?mode ?sched ?trace ~label:"runtime.stable"
      ~compile_s ~compile_cached ~topo ~init ~step ~equal ~max_rounds ()
  in
  { states = o.Engine.states; rounds = o.Engine.rounds }

let run ~sg ~init ~step ~halted ~max_rounds =
  run_with ~sg ~init ~step ~halted ~max_rounds ()

let run_until_stable ~sg ~init ~step ~equal ~max_rounds =
  run_until_stable_with ~sg ~init ~step ~equal ~max_rounds ()

let charge_trace cost trace =
  let m = Tl_engine.Trace.metrics trace in
  Round_cost.charge cost
    ("engine:" ^ Tl_engine.Trace.label trace)
    m.Tl_engine.Trace.rounds
