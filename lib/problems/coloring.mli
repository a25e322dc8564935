(** Proper vertex coloring problems, node-edge-checkable form.

    A node writes its color (a positive integer) on every incident
    half-edge; the edge constraint requires the two sides of a rank-2 edge
    to differ. The node constraint enforces the palette:
    [(deg + 1)]-coloring requires color at most (semi-graph degree + 1),
    [(Δ + 1)]-coloring requires color at most a fixed bound. *)

type label = int
(** A color, at least 1. *)

val problem_deg_plus_one : label Nec.t
(** (deg + 1)-coloring: color of a node at most its degree plus one. *)

val problem_delta_plus_one : delta:int -> label Nec.t
(** (Δ + 1)-coloring for a fixed maximum degree [delta] of the base
    instance. *)

val decode : Tl_graph.Graph.t -> label Labeling.t -> int array
(** Color per node, read off any labeled half-edge ([1] for isolated
    nodes). *)

val write :
  Tl_graph.Semi_graph.t -> int array -> label Labeling.t -> unit
(** The one writer of this encoding, for whole graphs and semi-graph
    views alike: [write sg colors l] writes [colors.(v)] (1-based, indexed
    by base node) on every present half-edge of each present node [v].
    Rank-1 rule: a rank-1 edge carries its present node's colour. Raises
    [Invalid_argument] if a half-edge is already labeled. *)

val encode : Tl_graph.Graph.t -> int array -> label Labeling.t
(** Encode a proper coloring: {!write} on the whole graph. Raises
    [Invalid_argument] if not proper. *)

val solve_edge_list :
  Tl_graph.Graph.t -> label Labeling.t -> nodes:int list -> unit
(** [Π×] completion (Theorem 12): nodes processed in the given order; each
    picks the smallest color at most (degree + 1) not visible on opposite
    half-edges and writes it on all its half-edges. *)

val solve_sequential : Tl_graph.Graph.t -> label Labeling.t
(** Greedy (deg + 1)-coloring from scratch. *)
