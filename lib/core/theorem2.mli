(** The bounded-arboricity transformation — Theorem 15 (the formal
    Theorem 2) and its Algorithm 4.

    Given a node-edge-checkable problem [Π] with (a) a truly local base
    algorithm [A] and (b) a sequential solver for the node-list variant
    [Π*], the transformation solves [Π] on any graph of arboricity at
    most [a <= k/5] in [O(a + ρ·f(g(n)^ρ)/(ρ − log_{g(n)} a) + log* n)]
    rounds:

    + run the Decomposition process (Algorithm 3) with [b = 2a] and
      [k = g(n)^ρ];
    + run [A] on the semi-graph [G[E₂]] of typical edges, whose degree is
      at most [k] by Lemma 14;
    + split the atypical edges into [2a] forests [F_i], 3-color each in
      [O(log* n)] rounds, and for each of the [6a] classes [F_{i,j}] (in
      order) solve [Π*] on its star components in O(1) rounds each —
      the star center gathers, solves against the fixed labels, and
      redistributes. *)

type 'l spec = {
  problem : 'l Tl_problems.Nec.t;
  base_algorithm :
    Tl_graph.Semi_graph.t -> ids:int array -> 'l Tl_problems.Labeling.t -> int;
  solve_node_list :
    Tl_graph.Graph.t -> 'l Tl_problems.Labeling.t -> edges:int list -> unit;
      (** The [Π*] solver: sequentially labels both half-edges of each
          edge, reading already-fixed labels at the endpoints as the lists
          [h_in]. *)
}

type 'l result = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  decomposition : Tl_decompose.Arb_decompose.t;
  k : int;
  rho : int;
}

val run :
  ?check_invariants:bool ->
  ?rho:int ->
  ?k:int ->
  spec:'l spec ->
  graph:Tl_graph.Graph.t ->
  a:int ->
  ids:int array ->
  f:Complexity.f ->
  unit ->
  'l result
(** Transform and execute on a graph of arboricity at most [a]. [rho]
    defaults to 2 (the value used to derive Theorem 3); [k] defaults to
    [max (5a) g(n)^ρ] ({!Complexity.choose_k_arb}). With
    [~check_invariants:true], the Theorem 15 proof's inductive invariant
    is asserted after the base phase and after each star family
    ({!Tl_problems.Nec.validate_partial}).

    Each star class [F_{i,j}] fans over a {!Tl_engine.Pool} of
    {!Tl_engine.Pool.default_workers} OCaml 5 domains: stars of a class
    are node-disjoint (asserted under [check_invariants] before
    fan-out), classes stay strictly ordered, and results are
    bit-identical to the sequential run for any worker count and any
    engine mode — both knobs come from {!Tl_engine.Engine.with_knobs},
    as for {!Tl_core.Theorem1.run}.

    Phases charged: ["decompose"], ["forest-3-coloring"], ["base:A(G[E2])"],
    ["gather-solve(stars)"] (2 rounds per [F_{i,j}] slot, [6a] slots).
    Span counters under ["stars"]: [classes], [pool:workers],
    [pool:tasks] (accumulated over the classes). *)
