(** Truly local base algorithms — the inputs [A] of the transformations.

    Each algorithm runs on a semi-graph, takes a globally unique ID
    assignment, and returns the exact number of synchronous LOCAL rounds
    it used. It computes a solution (a colouring, MIS set, matched edges
    or edge colours) on the one {!Tl_engine.Topology} it compiles per call
    and hands it to its problem's writer ({!Tl_problems.Mis.write},
    [Matching.write], [Coloring.write], [Edge_coloring.write]), which
    labels exactly the present half-edges, rank-1 edges included, in the
    node-edge-checkable encoding. No label rule lives here. All have
    complexity [O(poly(Δ) + log* n)] where [Δ] is the {e underlying}
    degree of the semi-graph: Linial reduction ([log* n + O(1)] rounds)
    followed by one-class-per-round greedy reduction ([O(Δ² log² Δ)]
    rounds), with the edge problems simulated on the line graph at a 2×
    round overhead.

    The paper's Theorems 12/15 are black-box in [A]; these executable
    algorithms exercise the transformation end-to-end, while the
    state-of-the-art [f] of [BBKO22b] enters the experiments through the
    analytic model in [Tl_core.Complexity] (see DESIGN.md,
    "Substitutions"). *)

module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling

val proper_coloring :
  Semi_graph.t -> ids:int array -> int array * int * int
(** (deg+1)-coloring of the {e underlying} graph: returns
    [(colors, palette, rounds)] with [colors.(v) ∈ 0 .. udeg(v)] for
    present nodes ([-1] elsewhere) and [palette = Δ' + 1]. *)

val deg_plus_one_coloring :
  Semi_graph.t -> ids:int array -> Tl_problems.Coloring.label Labeling.t -> int
(** Base algorithm for (deg + 1)-vertex-coloring: {!proper_coloring},
    written as 1-based colours by [Coloring.write]. Returns rounds. *)

val mis :
  Semi_graph.t -> ids:int array -> Tl_problems.Mis.label Labeling.t -> int
(** Base algorithm for MIS: colour-class greedy over {!proper_coloring}
    on the same CSR rows, written by [Mis.write]. Returns rounds. *)

val maximal_matching :
  Semi_graph.t -> ids:int array -> Tl_problems.Matching.label Labeling.t -> int
(** Base algorithm for maximal matching via MIS on the line graph,
    written by [Matching.write]. Returns rounds. *)

val edge_coloring :
  Semi_graph.t -> ids:int array -> Tl_problems.Edge_coloring.label Labeling.t -> int
(** Base algorithm for (edge-degree + 1)-edge coloring via (deg+1)-coloring
    of the line graph, written by [Edge_coloring.write]. Returns rounds. *)

(** {1 Line-graph simulation} *)

val line_structure : Semi_graph.t -> Tl_graph.Graph.t * int array
(** [(lg, edge_of)] where [lg] has one node per present rank-2 edge
    (adjacent iff the edges share a present endpoint) and [edge_of]
    maps [lg]-nodes back to base edge ids, ascending. On a whole graph
    this is its line graph. *)
