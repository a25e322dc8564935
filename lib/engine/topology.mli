(** Compiled topology snapshot of a semi-graph.

    A {!Tl_graph.Semi_graph.t} answers {!Tl_graph.Semi_graph.rank2_neighbors}
    by scanning the base incidence arrays and re-checking node/edge presence
    on every call, allocating a fresh list each time — which the legacy
    stepper did once per node per round. A topology compiles that view once
    into CSR (compressed sparse row) arrays over the {e rank-2} adjacency:
    for each present node, the present rank-2 neighbors, the connecting edge
    ids and the local half-edge ids, in the same ascending incident order as
    [rank2_neighbors]. The engine's hot loop then runs over flat [int]
    arrays with no presence checks.

    The snapshot is immutable; the exposed arrays must not be mutated. *)

type t = private {
  sg : Tl_graph.Semi_graph.t;  (** the view this was compiled from *)
  n_base : int;  (** nodes of the base graph (array extents) *)
  n_present : int;
  present : bool array;
  present_nodes : int array;  (** present node ids, ascending *)
  off : int array;  (** CSR row offsets, length [n_base + 1] *)
  adj : int array;  (** neighbor node id per CSR slot *)
  eid : int array;  (** connecting edge id per CSR slot *)
  hid : int array;  (** half-edge id {e at the row node} per CSR slot *)
}

val compile : Tl_graph.Semi_graph.t -> t
(** Flatten the rank-2 adjacency of a semi-graph. [O(n + m)]. Always
    compiles afresh; see {!compile_cached} for the memoizing variant. *)

val compile_cached : Tl_graph.Semi_graph.t -> t
(** {!compile} memoized on the view's identity
    [(Semi_graph.stamp, Semi_graph.generation)]: repeated runtime phases
    over the same view ([T_C], [G[E_2]], the [G[F_{i,j}]] families, the
    color-reduction loops) reuse one CSR snapshot instead of recompiling
    per phase. Any {!Tl_graph.Semi_graph.hide_node} /
    [hide_edge] bumps the generation and thereby invalidates the cached
    snapshot. The cache is bounded (FIFO, default 64 snapshots — a
    snapshot pins its semi-graph) and safe to call from multiple
    domains. *)

val compile_cached_stat : Tl_graph.Semi_graph.t -> t * bool
(** {!compile_cached} plus whether this call was a cache hit — for
    callers that surface per-compile hit/miss observability
    ({!Tl_local.Runtime}'s span counters and trace fields). *)

val cache_stats : unit -> int * int
(** [(hits, misses)] of {!compile_cached} since start (or the last
    process-wide reset — the counters are never cleared by
    {!clear_cache}). *)

val clear_cache : unit -> unit
(** Drop every cached snapshot (counters are kept). *)

val set_cache_limit : int -> unit
(** Maximum number of cached snapshots; [0] disables caching
    ({!compile_cached} degrades to {!compile} plus a miss count).
    Raises [Invalid_argument] on a negative limit. *)

val n_base : t -> int
val n_present : t -> int
val present : t -> int -> bool

val degree : t -> int -> int
(** Rank-2 (underlying) degree of a node; [0] for absent nodes. *)

val max_degree : t -> int
(** Maximum rank-2 degree over present nodes. *)

val neighbor_nodes : t -> int -> int list
(** Present rank-2 neighbor ids of a node, ascending incident order —
    the CSR equivalent of
    [List.map fst (Semi_graph.rank2_neighbors sg v)]. *)
