(** Ready-made end-to-end pipelines: each of the four flagship problems
    wired to its base algorithm, list-variant solver and default
    complexity model, and the one (problem, method) {!table} through
    which the CLI and the serving daemon reach them. *)

type 'l report = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  total_rounds : int;
  valid : bool;  (** Definition 6 validation on the input graph. *)
  k : int;  (** decomposition parameter actually used *)
  violations : Tl_problems.Nec.violation list;
}

(** {1 Theorem 12 pipelines (trees)} *)

val mis_on_tree :
  ?k:int -> tree:Tl_graph.Graph.t -> ids:int array -> unit ->
  Tl_problems.Mis.label report
(** MIS on a tree via Theorem 12. Default [k] from the paper's
    [f(Δ) = Θ(Δ)] model (the tight truly local complexity of MIS), i.e.
    [k·ln k = ln n] giving the [O(log n / log log n)] bound of [BE10]. *)

val coloring_on_tree :
  ?k:int -> tree:Tl_graph.Graph.t -> ids:int array -> unit ->
  Tl_problems.Coloring.label report
(** (deg+1)-vertex coloring on a tree via Theorem 12. *)

val delta_coloring_on_tree :
  ?k:int -> tree:Tl_graph.Graph.t -> ids:int array -> unit ->
  Tl_problems.Coloring.label report
(** (Δ+1)-vertex coloring on a tree: the (deg+1) pipeline validated
    against the (Δ+1) constraints (a (deg+1) solution always is one). *)

val sinkless_orientation_on_tree :
  tree:Tl_graph.Graph.t -> ids:int array -> unit ->
  Tl_problems.Orientation.label report
(** Sinkless orientation on trees in Θ(log n) rounds ({!Sinkless}) —
    the paper's example of a problem with a nontrivial tight bound. *)

(** {1 Theorem 15 pipelines (bounded arboricity; trees are [a = 1])} *)

val matching_on_graph :
  ?rho:int -> ?k:int -> graph:Tl_graph.Graph.t -> a:int -> ids:int array ->
  unit -> Tl_problems.Matching.label report
(** Maximal matching via Theorem 15 with the Section 5.2 encoding;
    reproves the [O(log n / log log n)] bound on trees ([a = 1]). *)

val edge_coloring_on_graph :
  ?rho:int -> ?k:int -> graph:Tl_graph.Graph.t -> a:int -> ids:int array ->
  unit -> Tl_problems.Edge_coloring.label report
(** (edge-degree+1)-edge coloring via Theorem 15 with the Section 5.1
    encoding — the executable counterpart of Theorem 3. *)

val two_delta_edge_coloring_on_graph :
  ?rho:int -> ?k:int -> graph:Tl_graph.Graph.t -> a:int -> ids:int array ->
  unit -> Tl_problems.Edge_coloring.label report
(** (2Δ-1)-edge coloring: the (edge-degree+1) pipeline validated against
    the explicit (2Δ-1) palette (Theorem 3 covers both). *)

(** {1 Direct baselines}

    The base algorithms run directly on the whole graph — the
    [O(f(Δ) + log* n)] upper bound the transformation improves upon when
    [Δ] is large. *)

val mis_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Mis.label report

val coloring_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Coloring.label report

val matching_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Matching.label report

val edge_coloring_direct :
  graph:Tl_graph.Graph.t -> ids:int array -> Tl_problems.Edge_coloring.label report

(** {1 The (problem, method) table} — shared by [tree-local solve] and
    the serving daemon. *)

type solved = Solved : 'l report -> solved

type row = {
  problem : string;
  method_ : string;  (** ["transform"], ["direct"] or ["baseline"] *)
  name : string;  (** display name, e.g. ["MIS (Theorem 12)"] *)
  tree_only : bool;
  run : int option -> Tl_graph.Graph.t -> int -> int array -> solved;
      (** [run k graph a ids]; call it through {!solve} *)
}

val table : row list
(** Ten rows: the Theorem 12 / 15 pipelines ([transform]), the base
    algorithms on the whole graph ([direct]) and the [BE13]-style tree
    baselines for matching and edge colouring ([baseline]). *)

val lookup : problem:string -> method_:string -> (row, string) result
(** The row, or an error naming the unknown problem or missing method. *)

val solve :
  row -> ?k:int -> graph:Tl_graph.Graph.t -> a:int -> ids:int array -> unit ->
  (solved, string) result
(** Run a row; a [tree_only] row on a non-tree is an [Error]
    (["mis via Theorem 12 needs a tree instance"]) and runs nothing. *)
