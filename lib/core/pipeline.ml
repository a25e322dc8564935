module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Span = Tl_obs.Span

type 'l report = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  total_rounds : int;
  valid : bool;
  k : int;
  violations : Tl_problems.Nec.violation list;
}

let finish problem graph labeling cost k =
  (* referee check: Definition 6 validation of the produced labeling *)
  let violations =
    Span.with_span "validate" (fun () ->
        let v = Tl_problems.Nec.validate problem graph labeling in
        Span.add_counter "violations" (List.length v);
        v)
  in
  {
    labeling;
    cost;
    total_rounds = Round_cost.total cost;
    valid = violations = [];
    k;
    violations;
  }

let mis_spec =
  {
    Theorem1.problem = Tl_problems.Mis.problem;
    base_algorithm = Tl_symmetry.Algos.mis;
    solve_edge_list = Tl_problems.Mis.solve_edge_list;
  }

let coloring_spec =
  {
    Theorem1.problem = Tl_problems.Coloring.problem_deg_plus_one;
    base_algorithm = Tl_symmetry.Algos.deg_plus_one_coloring;
    solve_edge_list = Tl_problems.Coloring.solve_edge_list;
  }

let matching_spec =
  {
    Theorem2.problem = Tl_problems.Matching.problem;
    base_algorithm = Tl_symmetry.Algos.maximal_matching;
    solve_node_list = Tl_problems.Matching.solve_node_list;
  }

let edge_coloring_spec =
  {
    Theorem2.problem = Tl_problems.Edge_coloring.problem;
    base_algorithm = Tl_symmetry.Algos.edge_coloring;
    solve_node_list = Tl_problems.Edge_coloring.solve_node_list;
  }

let mis_on_tree ?k ~tree ~ids () =
  let r =
    Theorem1.run ?k ~spec:mis_spec ~tree ~ids ~f:Complexity.f_linear ()
  in
  finish Tl_problems.Mis.problem tree r.labeling r.cost r.k

let coloring_on_tree ?k ~tree ~ids () =
  let r =
    Theorem1.run ?k ~spec:coloring_spec ~tree ~ids ~f:Complexity.f_linear ()
  in
  finish Tl_problems.Coloring.problem_deg_plus_one tree r.labeling r.cost r.k

let delta_coloring_on_tree ?k ~tree ~ids () =
  let r =
    Theorem1.run ?k ~spec:coloring_spec ~tree ~ids ~f:Complexity.f_linear ()
  in
  let delta = Graph.max_degree tree in
  finish
    (Tl_problems.Coloring.problem_delta_plus_one ~delta)
    tree r.labeling r.cost r.k

let sinkless_orientation_on_tree ~tree ~ids () =
  let labeling, cost = Sinkless.solve_on_tree tree ~ids in
  finish Tl_problems.Orientation.problem tree labeling cost 2

let matching_on_graph ?rho ?k ~graph ~a ~ids () =
  let r =
    Theorem2.run ?rho ?k ~spec:matching_spec ~graph ~a ~ids
      ~f:Complexity.f_linear ()
  in
  finish Tl_problems.Matching.problem graph r.labeling r.cost r.k

let edge_coloring_on_graph ?rho ?k ~graph ~a ~ids () =
  let r =
    Theorem2.run ?rho ?k ~spec:edge_coloring_spec ~graph ~a ~ids
      ~f:(Complexity.f_polylog ~exponent:12.0) ()
  in
  finish Tl_problems.Edge_coloring.problem graph r.labeling r.cost r.k

let two_delta_edge_coloring_on_graph ?rho ?k ~graph ~a ~ids () =
  let r =
    Theorem2.run ?rho ?k ~spec:edge_coloring_spec ~graph ~a ~ids
      ~f:(Complexity.f_polylog ~exponent:12.0) ()
  in
  let delta = Graph.max_degree graph in
  finish
    (Tl_problems.Edge_coloring.problem_two_delta ~delta)
    graph r.labeling r.cost r.k

let direct problem algo ~graph ~ids =
  let labeling = Labeling.create graph in
  let sg = Semi_graph.of_graph graph in
  let cost = Round_cost.create () in
  Span.with_span "base" (fun () ->
      Round_cost.charge cost "base:A(G)" (algo sg ~ids labeling));
  finish problem graph labeling cost 0

let mis_direct ~graph ~ids =
  direct Tl_problems.Mis.problem Tl_symmetry.Algos.mis ~graph ~ids

let coloring_direct ~graph ~ids =
  direct Tl_problems.Coloring.problem_deg_plus_one
    Tl_symmetry.Algos.deg_plus_one_coloring ~graph ~ids

let matching_direct ~graph ~ids =
  direct Tl_problems.Matching.problem Tl_symmetry.Algos.maximal_matching ~graph
    ~ids

let edge_coloring_direct ~graph ~ids =
  direct Tl_problems.Edge_coloring.problem Tl_symmetry.Algos.edge_coloring
    ~graph ~ids

(* ---------- the (problem, method) table ---------- *)

type solved = Solved : 'l report -> solved

type row = {
  problem : string;
  method_ : string;
  name : string;
  tree_only : bool;
  run : int option -> Graph.t -> int -> int array -> solved;
}

let baseline problem solve _k g _a ids =
  let labeling, cost = solve ~tree:g ~ids in
  Solved (finish problem g labeling cost 0)

let on_graph f _k g _a ids = Solved (f ~graph:g ~ids)

let table =
  let row ?(tree_only = false) problem method_ name run =
    { problem; method_; name; tree_only; run }
  in
  [
    row ~tree_only:true "mis" "transform" "MIS (Theorem 12)" (fun k g _ ids ->
        Solved (mis_on_tree ?k ~tree:g ~ids ()));
    row ~tree_only:true "coloring" "transform" "(deg+1)-coloring (Theorem 12)"
      (fun k g _ ids -> Solved (coloring_on_tree ?k ~tree:g ~ids ()));
    row "matching" "transform" "maximal matching (Theorem 15)" (fun k g a ids ->
        Solved (matching_on_graph ?k ~graph:g ~a ~ids ()));
    row "edge-coloring" "transform" "(edge-degree+1)-edge coloring (Theorem 15)"
      (fun k g a ids -> Solved (edge_coloring_on_graph ?k ~graph:g ~a ~ids ()));
    row "mis" "direct" "MIS (direct)" (on_graph mis_direct);
    row "coloring" "direct" "(deg+1)-coloring (direct)" (on_graph coloring_direct);
    row "matching" "direct" "maximal matching (direct)" (on_graph matching_direct);
    row "edge-coloring" "direct" "(edge-degree+1)-edge coloring (direct)"
      (on_graph edge_coloring_direct);
    row ~tree_only:true "matching" "baseline"
      "maximal matching (BE13-style baseline)"
      (baseline Tl_problems.Matching.problem Baseline.matching_on_tree);
    row ~tree_only:true "edge-coloring" "baseline"
      "(edge-degree+1)-edge coloring (BE13-style baseline)"
      (baseline Tl_problems.Edge_coloring.problem Baseline.edge_coloring_on_tree);
  ]

let lookup ~problem ~method_ =
  let same r = r.problem = problem && r.method_ = method_ in
  match List.find_opt same table with
  | Some row -> Ok row
  | None when List.exists (fun r -> r.problem = problem) table ->
    Error (Printf.sprintf "problem %S has no method %S" problem method_)
  | None -> Error (Printf.sprintf "unknown problem %S" problem)

let solve row ?k ~graph ~a ~ids () =
  if row.tree_only && not (Props.is_tree graph) then
    Error
      (Printf.sprintf "%s via Theorem 12 needs a tree instance"
         (if row.method_ = "baseline" then "baseline " ^ row.problem
          else row.problem))
  else Ok (row.run k graph a ids)
