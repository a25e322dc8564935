(** The tree transformation — Theorem 12 (the formal Theorem 1) and its
    Algorithm 2.

    Given a node-edge-checkable problem [Π] together with (a) a truly
    local base algorithm [A] solving [Π] on semi-graphs in
    [O(f(Δ) + log* n)] rounds and (b) a sequential solver for the
    edge-list variant [Π×], the transformation solves [Π] on any tree in
    [O(f(g(n)) + log* n)] rounds:

    + run rake-and-compress (Algorithm 1) with [k = g(n)];
    + run [A] on the semi-graph [T_C] of compressed nodes, whose
      underlying degree is at most [k] by Lemma 10;
    + in parallel for every connected component of [T_R] (each of diameter
      [O(log_k n)] by Lemma 11), let its highest node gather the
      component, solve [Π×] against the already-fixed boundary labels,
      and redistribute.

    Every phase charges its exact LOCAL cost to the returned ledger. *)

type 'l spec = {
  problem : 'l Tl_problems.Nec.t;
  base_algorithm :
    Tl_graph.Semi_graph.t -> ids:int array -> 'l Tl_problems.Labeling.t -> int;
      (** The algorithm [A]: labels all half-edges of the semi-graph,
          returns the LOCAL rounds used. *)
  solve_edge_list :
    Tl_graph.Graph.t -> 'l Tl_problems.Labeling.t -> nodes:int list -> unit;
      (** The [Π×] solver: sequentially labels all half-edges at [nodes],
          reading already-fixed labels as the lists [h_in]. *)
}

type 'l result = {
  labeling : 'l Tl_problems.Labeling.t;  (** complete solution on the tree *)
  cost : Tl_local.Round_cost.t;
  rc : Tl_decompose.Rake_compress.t;  (** the decomposition used *)
  k : int;
}

val run :
  ?check_invariants:bool ->
  ?k:int ->
  spec:'l spec ->
  tree:Tl_graph.Graph.t ->
  ids:int array ->
  f:Complexity.f ->
  unit ->
  'l result
(** Transform and execute. [k] defaults to [g(n)] computed from [f]
    ({!Complexity.choose_k}); [f] should be (an upper bound on) the truly
    local complexity of [base_algorithm]. Forests are accepted (every
    phase operates per component); non-forests raise.
    With [~check_invariants:true] (default false), the inductive
    invariant of Theorem 12's proof — every configuration completed so
    far is valid — is asserted after the base phase and after every
    component completion ({!Tl_problems.Nec.validate_partial}).

    The phase-3 gather-solve fans over a {!Tl_engine.Pool} of
    {!Tl_engine.Pool.default_workers} OCaml 5 domains (the CLI's
    [--pool N]); every engine-backed step runs on
    {!Tl_engine.Engine.default_mode}. Set both with
    {!Tl_engine.Engine.with_knobs} around the call. Each pool worker
    owns its own BFS scratch and writes only the half-edges of its own
    (node-disjoint) components, and the eccentricity maximum is
    committed in component order — the labeling and the ledger are
    bit-identical to the sequential run for any worker count and any
    engine mode. Under pooling with [~check_invariants:true], the
    component ownership is asserted disjoint before fan-out and the
    proof invariant is checked once after the phase instead of after
    every component.

    Phases charged to the ledger: ["decompose"], ["base:A(T_C)"],
    ["gather-solve(T_R)"]. Span counters under ["gather-solve"]:
    [components], [pool:workers], [pool:tasks]. *)
