(** Deterministic instance generators.

    Every randomized generator takes an explicit [seed] and is fully
    deterministic, so experiments are reproducible bit-for-bit. *)

(** {1 Pseudo-random numbers} *)

module Prng : sig
  type t

  val create : int -> t
  (** Seeded splitmix64 generator. *)

  val int : t -> int -> int
  (** [int t bound] is uniform in [0 .. bound-1]; [bound >= 1]. *)

  val bits64 : t -> int64
  val float : t -> float
  (** Uniform in [0, 1). *)

  val shuffle : t -> 'a array -> unit
  (** In-place Fisher-Yates shuffle. *)
end

(** {1 Deterministic families} *)

val path : int -> Graph.t
(** Path on [n >= 1] nodes [0-1-2-...]. *)

val cycle : int -> Graph.t
(** Cycle on [n >= 3] nodes. *)

val star : int -> Graph.t
(** Star with center [0] and [n-1] leaves. *)

val double_star : int -> int -> Graph.t
(** Two adjacent centers with [a] and [b] leaves respectively. *)

val complete : int -> Graph.t

val kary_tree : arity:int -> depth:int -> Graph.t
(** Complete rooted [arity]-ary tree of the given depth (root at node 0;
    depth 0 is a single node). *)

val balanced_regular_tree : delta:int -> n:int -> Graph.t
(** The paper's lower-bound instances (footnote 11): a rooted tree in which
    every internal node has degree exactly [delta] (the root has [delta]
    children, other internal nodes [delta - 1]) built breadth-first and
    truncated to exactly [n] nodes, so nodes in the deepest partial layer
    may have fewer children. Requires [delta >= 2] and [n >= 1]. *)

val caterpillar : spine:int -> legs:int -> Graph.t
(** Path of [spine] nodes, each with [legs] pendant leaves. *)

val spider : legs:int -> leg_length:int -> Graph.t
(** [legs] paths of length [leg_length] glued at a common center. *)

val broom : handle:int -> bristles:int -> Graph.t
(** Path of [handle] nodes with [bristles] leaves attached to its end. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: planar grid graph (arboricity at most 2). *)

val triangulated_grid : int -> Graph.t
(** [triangulated_grid k]: [k × k] grid with one diagonal per cell — a
    planar graph of arboricity at most 3 with many triangles. *)

(** {1 Random families} *)

val random_tree : n:int -> seed:int -> Graph.t
(** Uniformly random labelled tree on [n >= 1] nodes (Pruefer decoding). *)

val random_forest : n:int -> trees:int -> seed:int -> Graph.t
(** Random forest on [n] nodes with exactly [trees] components. *)

val forest_union : n:int -> arboricity:int -> seed:int -> Graph.t
(** Union of [arboricity] edge-disjoint uniformly random spanning trees on
    the same node set (duplicate edges dropped and re-drawn greedily where
    possible). The result has arboricity at most [arboricity]; for
    [n >> arboricity] the Nash-Williams bound certifies it is close to
    exactly [arboricity]. *)

val random_bounded_degree : n:int -> max_degree:int -> edges:int -> seed:int -> Graph.t
(** Random simple graph with at most [edges] edges, rejecting any edge that
    would push an endpoint above [max_degree]. *)

val power_law_tree : n:int -> seed:int -> Graph.t
(** Preferential-attachment tree: node [i] attaches to an endpoint of a
    uniformly random earlier edge (high-degree hubs, small diameter). *)

val power_law_union : n:int -> arboricity:int -> seed:int -> Graph.t
(** Union of [arboricity] edge-disjoint preferential-attachment trees on
    the same node set (duplicates dropped): a bounded-arboricity graph
    with high-degree hubs — the instances on which Algorithm 3 actually
    produces atypical edges. *)

(** {1 Named families} — the one table behind the CLI's [--family] and
    the serving daemon's [graph.family]. *)

val families : string list
(** The accepted names, in display order. *)

val of_family : string -> n:int -> seed:int -> a:int -> delta:int -> Graph.t
(** Build a named family ([n] is approximate for [caterpillar], [planar]
    and [grid]). Raises [Invalid_argument "unknown family <name>"]. *)
