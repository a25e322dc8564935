(** Linial-style color reduction on arbitrary (semi-)graphs.

    One reduction round maps a proper [K]-coloring to a proper
    [q²]-coloring where [q] is the smallest prime exceeding
    [Δ · ⌈log₂ K⌉]: each node encodes its color as the coefficient vector
    of a polynomial of degree [< ⌈log_q K⌉] over [F_q] and publishes the
    pair [(x, p(x))] for an evaluation point [x] at which it differs from
    all neighbors (which exists because two distinct low-degree
    polynomials agree in few points — the classic cover-free-family
    argument). Iterating reaches a fixed-point palette of
    [O(Δ² log² Δ)] colors after [log* n + O(1)] rounds. *)

val smallest_prime_geq : int -> int
(** Smallest prime [>= max 2 x]. *)

val step :
  neighbors:(int -> int list) ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int
(** One reduction round, in place. [neighbors v] lists the nodes [v] can
    read (communication graph); [colors] is a proper coloring with values
    in [0, palette); returns the new palette [q²] (which may exceed the
    old one — callers should only invoke the step while it shrinks). *)

val reduce :
  neighbors:(int -> int list) ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int * int
(** Iterate {!step} while it strictly shrinks the palette. Returns
    [(final_palette, rounds)]; [colors] is updated in place and remains a
    proper coloring with values in [0, final_palette). *)

val schedule : palette:int -> max_degree:int -> (int * int) array
(** The [(q, d)] parameters of each reduction round, derived from the
    globally known initial palette alone — the fixed a-priori schedule
    every node can compute locally. Empty when the first step would not
    shrink the palette. *)

val reduce_topo :
  topo:Tl_engine.Topology.t ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int * int
(** {!reduce} executed on the engine over a compiled topology snapshot
    ({!Tl_engine.Engine.run_rounds}, full-scan scheduling since the
    schedule is round-number-driven). Bit-identical results and round
    counts to {!reduce} on the same communication graph; [nodes] must be
    the present nodes of [topo]. The run is traced as ["linial.color"]
    with [compile_s = 0.] and [compile_cached = false]. *)

val reduce_topo_with :
  compile_s:float ->
  compile_cached:bool ->
  topo:Tl_engine.Topology.t ->
  nodes:int list ->
  colors:int array ->
  palette:int ->
  max_degree:int ->
  int * int
(** {!reduce_topo} for a caller that compiled [topo] itself: the compile
    wall-clock and cache-hit flag go on the run's trace. *)
