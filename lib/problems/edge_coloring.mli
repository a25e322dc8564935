(** (Edge-degree + 1)-edge coloring, exactly the encoding of Section 5.1.

    Labels are pairs [(a, b)] — [a] the {e degree part}, [b] the {e color
    part} — plus [D] for dangling rank-1 edges. Node constraint: among the
    non-[D] labels [{(a_1,b_1), ..., (a_p,b_p)}], every [a_k <= p] and all
    color parts [b_k] pairwise distinct (properness). Edge constraints:
    [E⁰ = {∅}], [E¹ = {{D}}], and
    [E² = {{(a_1,b), (a_2,b)} | a_1 + a_2 >= b + 1}] — the two sides share
    the color [b], and the degree parts certify
    [b <= a_1 + a_2 - 1 <= edge-degree + 1]. *)

type label = Pair of int * int | D

val problem : label Nec.t
(** (edge-degree + 1)-edge coloring. *)

val problem_two_delta : delta:int -> label Nec.t
(** (2Δ - 1)-edge coloring for a fixed [delta]: same constraints plus the
    explicit palette bound [b <= 2Δ - 1]. Any valid (edge-degree + 1)
    solution is also valid here, as [edge-degree + 1 <= 2Δ - 1]. *)

val decode : Tl_graph.Graph.t -> label Labeling.t -> int array
(** Color part per edge id ([0] if unlabeled or dangling). *)

val write :
  Tl_graph.Semi_graph.t -> int array -> label Labeling.t -> unit
(** The one writer of this encoding, for whole graphs and semi-graph
    views alike: [write sg colors l] labels exactly the present
    half-edges of [sg]. A rank-2 edge [{u, v}] ([u < v]) of colour
    [b = colors.(e)] (1-based, indexed by base edge) gets [(a1, b)] at [u]
    and [(max 1 (b + 1 - a1), b)] at [v], where [a1 = min (udeg u) b] and
    [udeg] is the underlying degree. Rank-1 rule: a rank-1 edge carries
    [D] at its present endpoint. Raises [Invalid_argument] if a half-edge
    is already labeled. *)

val encode : Tl_graph.Graph.t -> int array -> label Labeling.t
(** Encode a proper edge coloring with [color e <= edge_degree e + 1]
    (colors are positive): {!write} on the whole graph. Raises
    [Invalid_argument] otherwise. *)

val solve_node_list :
  Tl_graph.Graph.t -> label Labeling.t -> edges:int list -> unit
(** The [Π*] completion used by Theorem 15's Algorithm 4 — the labeling
    process of Lemma 16. For each edge [{v1, v2}] (rank-2, both half-edges
    unlabeled) in order: let [c_i] be the number of non-[D] labels
    currently at [v_i]; choose the smallest color [c <= c_1 + c_2 + 1]
    absent from both endpoints and write [(c_1 + 1, c)], [(c_2 + 1, c)]. *)

val solve_sequential : Tl_graph.Graph.t -> label Labeling.t
(** Greedy (edge-degree + 1)-edge coloring from scratch. *)
