(* Tests for the core transformations: Complexity, Theorem1, Theorem2,
   Pipeline — the paper's Theorems 12 and 15 end to end. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Props = Tl_graph.Props
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Nec = Tl_problems.Nec
module Complexity = Tl_core.Complexity
module Theorem1 = Tl_core.Theorem1
module Theorem2 = Tl_core.Theorem2
module Pipeline = Tl_core.Pipeline

let check = Alcotest.(check bool)

(* ---------- Complexity ---------- *)

let test_solve_g_inverts () =
  (* g must satisfy g^{f(g)} = n *)
  List.iter
    (fun (f, n) ->
      let g = Complexity.solve_g ~f ~n in
      let lhs = f g *. Float.log g in
      check "g solves the equation" true (Float.abs (lhs -. Float.log n) < 1e-6))
    [
      (Complexity.f_linear, 1e6);
      (Complexity.f_linear, 64.0);
      (Complexity.f_sqrt_log, 1e9);
      (Complexity.f_polylog ~exponent:12.0, 1e30);
      (Complexity.f_exp_sqrt_log, 1e12);
    ]

let test_g_for_linear_f () =
  (* f = id: g(n)^g(n) = n, so g grows like log n / log log n *)
  let g1 = Complexity.solve_g ~f:Complexity.f_linear ~n:1e3 in
  let g2 = Complexity.solve_g ~f:Complexity.f_linear ~n:1e12 in
  check "monotone" true (g2 > g1);
  check "sublogarithmic" true (g2 < Float.log 1e12)

let test_theorem3_is_strongly_sublogarithmic () =
  (* The Theorem 3 bound grows strictly slower than log n / log log n, but
     the crossover sits at log n ≈ e^52 — evaluate on the log scale. *)
  let f12 = Complexity.f_polylog ~exponent:12.0 in
  let ratio log2_n =
    Complexity.theorem1_rounds_log ~f:f12 ~log2_n
    /. Complexity.mis_lower_bound_log ~log2_n
  in
  let r1 = ratio 1e23 in
  let r2 = ratio 1e26 in
  let r3 = ratio 1e30 in
  check "ratio decreasing asymptotically" true (r2 < r1 && r3 < r2);
  (* and the upper bound itself is Θ(L^{12/13}): doubling L scales it by
     ~2^{12/13} ≈ 1.90 *)
  let v1 = Complexity.theorem1_rounds_log ~f:f12 ~log2_n:1e8 in
  let v2 = Complexity.theorem1_rounds_log ~f:f12 ~log2_n:2e8 in
  let scale = v2 /. v1 in
  check "exponent 12/13" true
    (Float.abs (scale -. Float.pow 2.0 (12.0 /. 13.0)) < 0.05)

let test_theorem1_prediction_shapes () =
  (* f = id gives Theta(log n / log log n): check against the closed form *)
  List.iter
    (fun e ->
      let n = 1 lsl e in
      let predicted = Complexity.theorem1_rounds ~f:Complexity.f_linear ~n in
      let closed_form = Complexity.mis_lower_bound ~n in
      check "within constant factor" true
        (predicted >= closed_form /. 4.0 && predicted <= 4.0 *. closed_form))
    [ 10; 20; 30; 40; 50 ]

let test_theorem2_prediction () =
  let r = Complexity.theorem2_rounds ~f:Complexity.f_linear ~n:100000 ~a:2 ~rho:2 in
  check "finite" true (Float.is_finite r);
  (* the theorem requires a <= k/5 *)
  let bad = Complexity.theorem2_rounds ~f:Complexity.f_linear ~n:100 ~a:1000 ~rho:1 in
  check "out of range is nan" true (Float.is_nan bad)

let test_lift_lower_bound () =
  (* with h = f, the lifted lower bound and the Theorem 1 upper bound
     coincide up to the additive log* term *)
  List.iter
    (fun e ->
      let n = 1 lsl e in
      let lifted = Complexity.lift_lower_bound ~h:Complexity.f_linear ~n in
      let upper = Complexity.theorem1_rounds ~f:Complexity.f_linear ~n in
      check "UB = LB + log*" true
        (Float.abs (upper -. lifted -. float_of_int (Complexity.log_star n))
        < 1e-6))
    [ 10; 20; 40 ]

let test_choose_k () =
  check "k at least 2" true (Complexity.choose_k ~f:Complexity.f_linear ~n:2 >= 2);
  check "k grows" true
    (Complexity.choose_k ~f:Complexity.f_linear ~n:1000000
     > Complexity.choose_k ~f:Complexity.f_linear ~n:100);
  check "arb k respects 5a" true
    (Complexity.choose_k_arb ~f:Complexity.f_linear ~n:100 ~a:4 ~rho:2 >= 20)

(* ---------- Theorem 1 end-to-end ---------- *)

let tree_cases =
  [
    ("single", Gen.path 1);
    ("edge", Gen.path 2);
    ("path", Gen.path 64);
    ("star", Gen.star 40);
    ("broom", Gen.broom ~handle:10 ~bristles:12);
    ("caterpillar", Gen.caterpillar ~spine:12 ~legs:3);
    ("balanced", Gen.balanced_regular_tree ~delta:4 ~n:200);
    ("random300", Gen.random_tree ~n:300 ~seed:51);
    ("power-law", Gen.power_law_tree ~n:250 ~seed:52);
  ]

let test_theorem1_mis () =
  List.iter
    (fun (name, tree) ->
      let n = Graph.n_nodes tree in
      let ids = Ids.permuted ~n ~seed:53 in
      let r = Pipeline.mis_on_tree ~tree ~ids () in
      check (name ^ " valid") true r.Pipeline.valid;
      check (name ^ " maximal") true
        (Props.is_maximal_independent_set tree
           (Tl_problems.Mis.decode tree r.Pipeline.labeling)))
    tree_cases

let test_theorem1_coloring () =
  List.iter
    (fun (name, tree) ->
      let n = Graph.n_nodes tree in
      let ids = Ids.permuted ~n ~seed:54 in
      let r = Pipeline.coloring_on_tree ~tree ~ids () in
      check (name ^ " valid") true r.Pipeline.valid;
      check (name ^ " proper") true
        (Props.is_proper_coloring tree
           (Tl_problems.Coloring.decode tree r.Pipeline.labeling)))
    tree_cases

let test_theorem1_explicit_k () =
  (* the transformation is correct for any k >= 2, not just g(n) *)
  let tree = Gen.random_tree ~n:200 ~seed:55 in
  let ids = Ids.permuted ~n:200 ~seed:56 in
  List.iter
    (fun k ->
      let r = Pipeline.mis_on_tree ~k ~tree ~ids () in
      check (Printf.sprintf "k=%d valid" k) true r.Pipeline.valid)
    [ 2; 3; 5; 10; 100 ]

let test_theorem1_id_robustness () =
  let tree = Gen.random_tree ~n:150 ~seed:57 in
  List.iter
    (fun ids ->
      let r = Pipeline.mis_on_tree ~tree ~ids () in
      check "valid under id scheme" true r.Pipeline.valid)
    [
      Ids.identity 150;
      Ids.reversed 150;
      Ids.permuted ~n:150 ~seed:58;
      Ids.spread ~n:150 ~c:2 ~seed:59;
    ]

let test_theorem1_ledger () =
  let tree = Gen.random_tree ~n:400 ~seed:60 in
  let ids = Ids.permuted ~n:400 ~seed:61 in
  let r = Pipeline.mis_on_tree ~tree ~ids () in
  let phases = List.map fst (Round_cost.phases r.Pipeline.cost) in
  check "decompose phase" true (List.mem "decompose" phases);
  check "base phase" true (List.mem "base:A(T_C)" phases);
  check "gather phase" true (List.mem "gather-solve(T_R)" phases);
  check "total is sum" true
    (r.Pipeline.total_rounds = Round_cost.total r.Pipeline.cost)

(* ---------- Theorem 2 end-to-end ---------- *)

let arb_cases =
  [
    ("tree-a1", Gen.random_tree ~n:300 ~seed:62, 1);
    ("union-a2", Gen.forest_union ~n:300 ~arboricity:2 ~seed:63, 2);
    ("union-a3", Gen.forest_union ~n:400 ~arboricity:3 ~seed:64, 3);
    ("grid", Gen.grid 12 12, 2);
    ("planar", Gen.triangulated_grid 10, 3);
    ("edge", Gen.path 2, 1);
    ("star", Gen.star 50, 1);
  ]

let test_theorem2_matching () =
  List.iter
    (fun (name, graph, a) ->
      let n = Graph.n_nodes graph in
      let ids = Ids.permuted ~n ~seed:65 in
      let r = Pipeline.matching_on_graph ~graph ~a ~ids () in
      check (name ^ " valid") true r.Pipeline.valid;
      check (name ^ " maximal") true
        (Props.is_maximal_matching graph
           (Tl_problems.Matching.decode graph r.Pipeline.labeling)))
    arb_cases

let test_theorem2_edge_coloring () =
  List.iter
    (fun (name, graph, a) ->
      let n = Graph.n_nodes graph in
      let ids = Ids.permuted ~n ~seed:66 in
      let r = Pipeline.edge_coloring_on_graph ~graph ~a ~ids () in
      check (name ^ " valid") true r.Pipeline.valid;
      let colors = Tl_problems.Edge_coloring.decode graph r.Pipeline.labeling in
      check (name ^ " proper") true (Props.is_proper_edge_coloring graph colors);
      check (name ^ " palette") true
        (Graph.fold_edges
           (fun e _ acc -> acc && colors.(e) <= Props.edge_degree graph e + 1)
           graph true))
    arb_cases

let test_theorem2_rho () =
  let graph = Gen.forest_union ~n:250 ~arboricity:2 ~seed:67 in
  let ids = Ids.permuted ~n:250 ~seed:68 in
  List.iter
    (fun rho ->
      let r = Pipeline.matching_on_graph ~rho ~graph ~a:2 ~ids () in
      check (Printf.sprintf "rho=%d valid" rho) true r.Pipeline.valid)
    [ 1; 2; 3 ]

let test_theorem2_2delta_decoding () =
  (* the (edge-degree+1) output is also a valid (2Δ-1)-edge coloring *)
  let graph = Gen.random_tree ~n:200 ~seed:69 in
  let ids = Ids.permuted ~n:200 ~seed:70 in
  let r = Pipeline.edge_coloring_on_graph ~graph ~a:1 ~ids () in
  let delta = Graph.max_degree graph in
  let two_delta = Tl_problems.Edge_coloring.problem_two_delta ~delta in
  check "valid as 2Δ-1 coloring" true
    (Nec.validate two_delta graph r.Pipeline.labeling = [])

let test_transform_beats_direct_on_high_degree_tree () =
  (* on a broom (Δ ~ sqrt n) the transformed algorithm must use far fewer
     rounds than running A directly: this is the point of the paper *)
  let tree = Gen.broom ~handle:50 ~bristles:450 in
  let n = Graph.n_nodes tree in
  let ids = Ids.permuted ~n ~seed:71 in
  let transformed = Pipeline.mis_on_tree ~tree ~ids () in
  let direct = Pipeline.mis_direct ~graph:tree ~ids in
  check "both valid" true (transformed.Pipeline.valid && direct.Pipeline.valid);
  check "transform wins" true
    (transformed.Pipeline.total_rounds < direct.Pipeline.total_rounds)

let test_delta_coloring_pipeline () =
  List.iter
    (fun (name, tree) ->
      let n = Graph.n_nodes tree in
      let ids = Ids.permuted ~n ~seed:74 in
      let r = Pipeline.delta_coloring_on_tree ~tree ~ids () in
      check (name ^ " valid as delta+1") true r.Pipeline.valid)
    tree_cases

let test_two_delta_pipeline () =
  List.iter
    (fun (name, graph, a) ->
      let n = Graph.n_nodes graph in
      let ids = Ids.permuted ~n ~seed:75 in
      let r = Pipeline.two_delta_edge_coloring_on_graph ~graph ~a ~ids () in
      check (name ^ " valid as 2delta-1") true r.Pipeline.valid)
    arb_cases

let test_sinkless_on_trees () =
  List.iter
    (fun (name, tree) ->
      let n = Graph.n_nodes tree in
      let ids = Ids.permuted ~n ~seed:76 in
      let r = Pipeline.sinkless_orientation_on_tree ~tree ~ids () in
      check (name ^ " sinkless valid") true r.Pipeline.valid)
    tree_cases

let test_sinkless_log_rounds () =
  (* Theta(log n): rounds grow with log n, not with n *)
  let rounds n =
    let tree = Gen.balanced_regular_tree ~delta:5 ~n in
    let ids = Ids.permuted ~n ~seed:77 in
    (Pipeline.sinkless_orientation_on_tree ~tree ~ids ()).Pipeline.total_rounds
  in
  let r1 = rounds 1_000 in
  let r2 = rounds 100_000 in
  check "logarithmic growth" true (r2 <= r1 * 3);
  check "nontrivial" true (r2 > 1)

let prop_sinkless_random_trees =
  QCheck.Test.make ~name:"sinkless orientation valid on random trees"
    ~count:40
    QCheck.(pair (int_range 1 300) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      (Pipeline.sinkless_orientation_on_tree ~tree ~ids ()).Pipeline.valid)

let test_baseline_edge_coloring () =
  List.iter
    (fun (name, tree) ->
      let n = Graph.n_nodes tree in
      let ids = Ids.permuted ~n ~seed:78 in
      let l, _cost = Tl_core.Baseline.edge_coloring_on_tree ~tree ~ids in
      check (name ^ " baseline ec valid") true
        (Nec.is_valid Tl_problems.Edge_coloring.problem tree l);
      check (name ^ " baseline ec proper") true
        (Props.is_proper_edge_coloring tree
           (Tl_problems.Edge_coloring.decode tree l)))
    tree_cases

let test_baseline_matching () =
  List.iter
    (fun (name, tree) ->
      let n = Graph.n_nodes tree in
      let ids = Ids.permuted ~n ~seed:79 in
      let l, _cost = Tl_core.Baseline.matching_on_tree ~tree ~ids in
      check (name ^ " baseline matching valid") true
        (Nec.is_valid Tl_problems.Matching.problem tree l);
      check (name ^ " baseline matching maximal") true
        (Props.is_maximal_matching tree
           (Tl_problems.Matching.decode tree l)))
    tree_cases

let test_baseline_log_rounds () =
  (* the baseline is O(log n): rounds grow slowly with n *)
  let rounds n =
    let tree = Gen.balanced_regular_tree ~delta:6 ~n in
    let ids = Ids.permuted ~n ~seed:80 in
    let _, cost = Tl_core.Baseline.edge_coloring_on_tree ~tree ~ids in
    Round_cost.total cost
  in
  let r1 = rounds 1_000 in
  let r2 = rounds 100_000 in
  check "logarithmic growth" true (r2 <= r1 * 3 && r2 > r1)

let prop_baseline_random_trees =
  QCheck.Test.make ~name:"baselines valid on random trees" ~count:30
    QCheck.(pair (int_range 1 200) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let l1, _ = Tl_core.Baseline.edge_coloring_on_tree ~tree ~ids in
      let l2, _ = Tl_core.Baseline.matching_on_tree ~tree ~ids in
      Nec.is_valid Tl_problems.Edge_coloring.problem tree l1
      && Nec.is_valid Tl_problems.Matching.problem tree l2)

let test_direct_baselines () =
  let graph = Gen.random_tree ~n:150 ~seed:72 in
  let ids = Ids.permuted ~n:150 ~seed:73 in
  check "mis" true (Pipeline.mis_direct ~graph ~ids).Pipeline.valid;
  check "coloring" true (Pipeline.coloring_direct ~graph ~ids).Pipeline.valid;
  check "matching" true (Pipeline.matching_direct ~graph ~ids).Pipeline.valid;
  check "edge coloring" true
    (Pipeline.edge_coloring_direct ~graph ~ids).Pipeline.valid

(* ---------- qcheck properties ---------- *)

let prop_theorem1_random_trees =
  QCheck.Test.make ~name:"Theorem 12 pipelines valid on random trees" ~count:30
    QCheck.(pair (int_range 1 250) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let r1 = Pipeline.mis_on_tree ~tree ~ids () in
      let r2 = Pipeline.coloring_on_tree ~tree ~ids () in
      r1.Pipeline.valid && r2.Pipeline.valid
      && Props.is_maximal_independent_set tree
           (Tl_problems.Mis.decode tree r1.Pipeline.labeling)
      && Props.is_proper_coloring tree
           (Tl_problems.Coloring.decode tree r2.Pipeline.labeling))

let prop_theorem2_random_graphs =
  QCheck.Test.make ~name:"Theorem 15 pipelines valid on arboricity-a graphs"
    ~count:20
    QCheck.(triple (int_range 2 200) (int_range 1 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      let graph = Gen.forest_union ~n ~arboricity:a ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let r1 = Pipeline.matching_on_graph ~graph ~a ~ids () in
      let r2 = Pipeline.edge_coloring_on_graph ~graph ~a ~ids () in
      r1.Pipeline.valid && r2.Pipeline.valid
      && Props.is_maximal_matching graph
           (Tl_problems.Matching.decode graph r1.Pipeline.labeling)
      && Props.is_proper_edge_coloring graph
           (Tl_problems.Edge_coloring.decode graph r2.Pipeline.labeling))

let prop_theorem2_hub_graphs =
  QCheck.Test.make
    ~name:"Theorem 15 pipelines valid on hub-heavy graphs (atypical path)"
    ~count:15
    QCheck.(triple (int_range 10 250) (int_range 1 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      let graph = Gen.power_law_union ~n ~arboricity:a ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let r1 = Pipeline.matching_on_graph ~graph ~a ~ids () in
      let r2 = Pipeline.edge_coloring_on_graph ~graph ~a ~ids () in
      r1.Pipeline.valid && r2.Pipeline.valid)

let prop_theorem1_explicit_k =
  QCheck.Test.make ~name:"Theorem 12 valid for arbitrary k" ~count:25
    QCheck.(triple (int_range 2 150) (int_range 2 20) (int_range 0 100000))
    (fun (n, k, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      (Pipeline.coloring_on_tree ~k ~tree ~ids ()).Pipeline.valid)

let test_proof_invariants () =
  (* run both transformations with the inductive invariant of the
     correctness proofs asserted at every phase boundary *)
  let tree = Gen.random_tree ~n:600 ~seed:84 in
  let ids = Ids.permuted ~n:600 ~seed:85 in
  let r1 =
    Theorem1.run ~check_invariants:true
      ~spec:
        {
          Theorem1.problem = Tl_problems.Mis.problem;
          base_algorithm = Tl_symmetry.Algos.mis;
          solve_edge_list = Tl_problems.Mis.solve_edge_list;
        }
      ~tree ~ids ~f:Tl_core.Complexity.f_linear ()
  in
  check "theorem 1 invariants hold" true
    (Nec.is_valid Tl_problems.Mis.problem tree r1.Theorem1.labeling);
  let g = Gen.power_law_union ~n:600 ~arboricity:2 ~seed:86 in
  let ids = Ids.permuted ~n:600 ~seed:87 in
  let r2 =
    Theorem2.run ~check_invariants:true
      ~spec:
        {
          Theorem2.problem = Tl_problems.Matching.problem;
          base_algorithm = Tl_symmetry.Algos.maximal_matching;
          solve_node_list = Tl_problems.Matching.solve_node_list;
        }
      ~graph:g ~a:2 ~ids ~f:Tl_core.Complexity.f_linear ()
  in
  check "theorem 2 invariants hold" true
    (Nec.is_valid Tl_problems.Matching.problem g r2.Theorem2.labeling)

let prop_invariants_random =
  QCheck.Test.make ~name:"proof invariants hold on random instances" ~count:20
    QCheck.(pair (int_range 2 150) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let r =
        Theorem1.run ~check_invariants:true
          ~spec:
            {
              Theorem1.problem = Tl_problems.Coloring.problem_deg_plus_one;
              base_algorithm = Tl_symmetry.Algos.deg_plus_one_coloring;
              solve_edge_list = Tl_problems.Coloring.solve_edge_list;
            }
          ~tree ~ids ~f:Tl_core.Complexity.f_linear ()
      in
      let r2 =
        Theorem2.run ~check_invariants:true
          ~spec:
            {
              Theorem2.problem = Tl_problems.Edge_coloring.problem;
              base_algorithm = Tl_symmetry.Algos.edge_coloring;
              solve_node_list = Tl_problems.Edge_coloring.solve_node_list;
            }
          ~graph:tree ~a:1 ~ids ~f:Tl_core.Complexity.f_linear ()
      in
      Nec.is_valid Tl_problems.Coloring.problem_deg_plus_one tree
        r.Theorem1.labeling
      && Nec.is_valid Tl_problems.Edge_coloring.problem tree r2.Theorem2.labeling)

let test_pipelines_on_forests () =
  let forest = Gen.random_forest ~n:300 ~trees:7 ~seed:90 in
  let ids = Ids.permuted ~n:300 ~seed:91 in
  let r1 = Pipeline.mis_on_tree ~tree:forest ~ids () in
  check "forest MIS valid" true r1.Pipeline.valid;
  check "forest MIS maximal" true
    (Props.is_maximal_independent_set forest
       (Tl_problems.Mis.decode forest r1.Pipeline.labeling));
  let r2 = Pipeline.coloring_on_tree ~tree:forest ~ids () in
  check "forest coloring valid" true r2.Pipeline.valid;
  let r3 = Pipeline.sinkless_orientation_on_tree ~tree:forest ~ids () in
  check "forest sinkless valid" true r3.Pipeline.valid

let test_determinism () =
  (* identical inputs must give bit-identical labelings and ledgers *)
  let tree = Gen.random_tree ~n:500 ~seed:81 in
  let ids = Ids.permuted ~n:500 ~seed:82 in
  let run () = Pipeline.mis_on_tree ~tree ~ids () in
  let r1 = run () and r2 = run () in
  check "same rounds" true (r1.Pipeline.total_rounds = r2.Pipeline.total_rounds);
  check "same decode" true
    (Tl_problems.Mis.decode tree r1.Pipeline.labeling
    = Tl_problems.Mis.decode tree r2.Pipeline.labeling);
  let m1 = Pipeline.matching_on_graph ~graph:tree ~a:1 ~ids () in
  let m2 = Pipeline.matching_on_graph ~graph:tree ~a:1 ~ids () in
  check "matching deterministic" true
    (Tl_problems.Matching.decode tree m1.Pipeline.labeling
    = Tl_problems.Matching.decode tree m2.Pipeline.labeling)

let test_ids_change_solution_not_validity () =
  (* different IDs may give different solutions, never invalid ones *)
  let tree = Gen.random_tree ~n:400 ~seed:83 in
  let r1 = Pipeline.mis_on_tree ~tree ~ids:(Ids.permuted ~n:400 ~seed:1) () in
  let r2 = Pipeline.mis_on_tree ~tree ~ids:(Ids.permuted ~n:400 ~seed:2) () in
  check "both valid" true (r1.Pipeline.valid && r2.Pipeline.valid)

(* ---------- pooled execution: differential against sequential ---------- *)

module Labeling = Tl_problems.Labeling
module Semi_graph = Tl_graph.Semi_graph
module Rake_compress = Tl_decompose.Rake_compress
module Gather = Tl_local.Gather

let mis_spec =
  {
    Theorem1.problem = Tl_problems.Mis.problem;
    base_algorithm = Tl_symmetry.Algos.mis;
    solve_edge_list = Tl_problems.Mis.solve_edge_list;
  }

let matching_spec =
  {
    Theorem2.problem = Tl_problems.Matching.problem;
    base_algorithm = Tl_symmetry.Algos.maximal_matching;
    solve_node_list = Tl_problems.Matching.solve_node_list;
  }

let labels_equal g l1 l2 =
  List.init (Graph.n_half_edges g) (fun h -> Labeling.get l1 h)
  = List.init (Graph.n_half_edges g) (fun h -> Labeling.get l2 h)

let prop_gather_charge_is_flooding_cost =
  (* The analytic charge for phase 3 must equal the cost of actually
     executing it: the max over T_R components of the full-information
     flooding round trip at the collecting (highest) node. *)
  QCheck.Test.make
    ~name:"charged gather-solve(T_R) = max component flooding round-trip"
    ~count:25
    QCheck.(pair (int_range 2 250) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let r = Theorem1.run ~spec:mis_spec ~tree ~ids ~f:Complexity.f_linear () in
      let rc = r.Theorem1.rc in
      let t_r = Rake_compress.t_r rc in
      let expected =
        Array.fold_left
          (fun acc component ->
            match component with
            | [] -> acc
            | first :: _ ->
              let highest =
                List.fold_left
                  (fun best v -> if Rake_compress.is_higher rc v best then v else best)
                  first component
              in
              max acc (Gather.round_trip_cost t_r ~center:highest))
          0
          (Semi_graph.underlying_components t_r)
      in
      List.assoc "gather-solve(T_R)" (Round_cost.phases r.Theorem1.cost)
      = expected)

let prop_pooled_theorem1_bit_identical =
  QCheck.Test.make ~name:"pooled Theorem 12 = sequential (labeling + ledger)"
    ~count:15
    QCheck.(pair (int_range 2 250) (int_range 0 100000))
    (fun (n, seed) ->
      let tree = Gen.random_tree ~n ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let run workers =
        Engine.with_knobs ~workers (fun () ->
            Theorem1.run ~spec:mis_spec ~tree ~ids ~f:Complexity.f_linear ())
      in
      let seq = run 1 and par = run 4 in
      labels_equal tree seq.Theorem1.labeling par.Theorem1.labeling
      && Round_cost.phases seq.Theorem1.cost
         = Round_cost.phases par.Theorem1.cost)

let prop_pooled_theorem2_bit_identical =
  QCheck.Test.make ~name:"pooled Theorem 15 = sequential (labeling + ledger)"
    ~count:10
    QCheck.(triple (int_range 2 200) (int_range 1 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      let graph = Gen.forest_union ~n ~arboricity:a ~seed in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let run workers =
        Engine.with_knobs ~workers (fun () ->
            Theorem2.run ~spec:matching_spec ~graph ~a ~ids
              ~f:Complexity.f_linear ())
      in
      let seq = run 1 and par = run 3 in
      labels_equal graph seq.Theorem2.labeling par.Theorem2.labeling
      && Round_cost.phases seq.Theorem2.cost
         = Round_cost.phases par.Theorem2.cost)

let test_pooled_forest_with_invariants () =
  (* a forest gives phase 3 many components to fan out; run the pooled
     path with the proof invariant and the owner-disjointness checks on *)
  let forest = Gen.random_forest ~n:600 ~trees:13 ~seed:92 in
  let ids = Ids.permuted ~n:600 ~seed:93 in
  let seq =
    Engine.with_knobs ~workers:1 (fun () ->
        Theorem1.run ~spec:mis_spec ~tree:forest ~ids ~f:Complexity.f_linear ())
  in
  let par =
    Engine.with_knobs ~workers:4 (fun () ->
        Theorem1.run ~check_invariants:true ~spec:mis_spec ~tree:forest ~ids
          ~f:Complexity.f_linear ())
  in
  check "pooled labeling identical" true
    (labels_equal forest seq.Theorem1.labeling par.Theorem1.labeling);
  check "pooled ledger identical" true
    (Round_cost.phases seq.Theorem1.cost = Round_cost.phases par.Theorem1.cost);
  check "pooled result valid" true
    (Nec.is_valid Tl_problems.Mis.problem forest par.Theorem1.labeling);
  let g = Gen.power_law_union ~n:500 ~arboricity:2 ~seed:94 in
  let ids = Ids.permuted ~n:500 ~seed:95 in
  let seq2 =
    Engine.with_knobs ~workers:1 (fun () ->
        Theorem2.run ~spec:matching_spec ~graph:g ~a:2 ~ids
          ~f:Complexity.f_linear ())
  in
  let par2 =
    Engine.with_knobs ~workers:4 (fun () ->
        Theorem2.run ~check_invariants:true ~spec:matching_spec ~graph:g ~a:2
          ~ids ~f:Complexity.f_linear ())
  in
  check "pooled stars identical" true
    (labels_equal g seq2.Theorem2.labeling par2.Theorem2.labeling);
  check "pooled stars ledger identical" true
    (Round_cost.phases seq2.Theorem2.cost = Round_cost.phases par2.Theorem2.cost)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_theorem1_random_trees;
      prop_theorem2_random_graphs;
      prop_theorem2_hub_graphs;
      prop_theorem1_explicit_k;
      prop_sinkless_random_trees;
      prop_baseline_random_trees;
      prop_invariants_random;
      prop_gather_charge_is_flooding_cost;
      prop_pooled_theorem1_bit_identical;
      prop_pooled_theorem2_bit_identical;
    ]

(* ---------- golden outputs ----------

   Every Pipeline.table row pinned on two fixed instances: random-tree
   n=2000 seed 3 (all ten rows) and forest-union a=2 n=2000 seed 3 (the
   six rows that accept non-trees), with ids permuted under seed 4 as
   [tree-local solve] does. Rows are (family, problem, method,
   total_rounds, Round_cost.phases, Protocol.digest_labeling). A refactor
   that changes any labeling, ledger or round count fails here. *)

let golden =
  [
    ("random-tree", "mis", "transform", 81,
      [ ("decompose", 6); ("base:A(T_C)", 75); ("gather-solve(T_R)", 0) ],
      "3281f28e99de8929" );
    ("random-tree", "coloring", "transform", 74,
      [ ("decompose", 6); ("base:A(T_C)", 68); ("gather-solve(T_R)", 0) ],
      "fa9adbb90898216b" );
    ("random-tree", "matching", "transform", 272,
      [ ("decompose", 2); ("forest-3-coloring", 0); ("base:A(G[E2])", 258); ("gather-solve(stars)", 12) ],
      "c5fba1c2d298dd8d" );
    ("random-tree", "edge-coloring", "transform", 264,
      [ ("decompose", 4); ("forest-3-coloring", 8); ("base:A(G[E2])", 240); ("gather-solve(stars)", 12) ],
      "35debee3dd5e3949" );
    ("random-tree", "mis", "direct", 114,
      [ ("base:A(G)", 114) ],
      "1a8ca0b8d4952bc3" );
    ("random-tree", "coloring", "direct", 105,
      [ ("base:A(G)", 105) ],
      "a66642aedc1f50c5" );
    ("random-tree", "matching", "direct", 258,
      [ ("base:A(G)", 258) ],
      "c5fba1c2d298dd8d" );
    ("random-tree", "edge-coloring", "direct", 240,
      [ ("base:A(G)", 240) ],
      "207a2cfdba7e5d7f" );
    ("random-tree", "matching", "baseline", 34,
      [ ("decompose", 12); ("forest-3-coloring", 10); ("gather-solve(stars)", 12) ],
      "f9c6540b5f1b2acb" );
    ("random-tree", "edge-coloring", "baseline", 34,
      [ ("decompose", 12); ("forest-3-coloring", 10); ("gather-solve(stars)", 12) ],
      "b27a7c0849d6d4b5" );
    ("forest-union", "matching", "transform", 608,
      [ ("decompose", 2); ("forest-3-coloring", 0); ("base:A(G[E2])", 582); ("gather-solve(stars)", 24) ],
      "21f75014d715bba3" );
    ("forest-union", "edge-coloring", "transform", 572,
      [ ("decompose", 2); ("forest-3-coloring", 0); ("base:A(G[E2])", 546); ("gather-solve(stars)", 24) ],
      "3eaee4d5580d1e27" );
    ("forest-union", "mis", "direct", 156,
      [ ("base:A(G)", 156) ],
      "703024e12a077c61" );
    ("forest-union", "coloring", "direct", 144,
      [ ("base:A(G)", 144) ],
      "e3c946fd9e6f4ef1" );
    ("forest-union", "matching", "direct", 582,
      [ ("base:A(G)", 582) ],
      "21f75014d715bba3" );
    ("forest-union", "edge-coloring", "direct", 546,
      [ ("base:A(G)", 546) ],
      "3eaee4d5580d1e27" );
  ]

let test_golden_outputs () =
  let instances = [ ("random-tree", 1); ("forest-union", 2) ] in
  let got =
    List.concat_map
      (fun (family, a) ->
        let g = Gen.of_family family ~n:2000 ~seed:3 ~a ~delta:8 in
        let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:4 in
        List.filter_map
          (fun (row : Pipeline.row) ->
            match Pipeline.solve row ~graph:g ~a ~ids () with
            | Error _ -> None
            | Ok (Pipeline.Solved r) ->
              Some
                ( family,
                  row.problem,
                  row.method_,
                  r.Pipeline.total_rounds,
                  Round_cost.phases r.Pipeline.cost,
                  Tl_serve.Protocol.digest_labeling ~graph:g r.Pipeline.labeling ))
          Pipeline.table)
      instances
  in
  Alcotest.(check int) "row count" (List.length golden) (List.length got);
  List.iter2
    (fun (f, p, m, rounds, phases, digest) (f', p', m', rounds', phases', digest') ->
      let name = Printf.sprintf "%s %s/%s" f p m in
      Alcotest.(check (triple string string string)) name (f, p, m) (f', p', m');
      Alcotest.(check int) (name ^ " total_rounds") rounds rounds';
      Alcotest.(check (list (pair string int))) (name ^ " phases") phases phases';
      Alcotest.(check string) (name ^ " digest") digest digest')
    golden got

let () =
  Alcotest.run "tl_core"
    [
      ( "complexity",
        [
          Alcotest.test_case "solve_g inverts" `Quick test_solve_g_inverts;
          Alcotest.test_case "g for f=id" `Quick test_g_for_linear_f;
          Alcotest.test_case "theorem 3 sublogarithmic" `Quick test_theorem3_is_strongly_sublogarithmic;
          Alcotest.test_case "theorem 1 prediction" `Quick test_theorem1_prediction_shapes;
          Alcotest.test_case "theorem 2 prediction" `Quick test_theorem2_prediction;
          Alcotest.test_case "lower-bound lifting" `Quick test_lift_lower_bound;
          Alcotest.test_case "choose_k" `Quick test_choose_k;
        ] );
      ( "theorem1",
        [
          Alcotest.test_case "MIS on tree families" `Quick test_theorem1_mis;
          Alcotest.test_case "coloring on tree families" `Quick test_theorem1_coloring;
          Alcotest.test_case "explicit k sweep" `Quick test_theorem1_explicit_k;
          Alcotest.test_case "id robustness" `Quick test_theorem1_id_robustness;
          Alcotest.test_case "cost ledger" `Quick test_theorem1_ledger;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "matching on graph families" `Quick test_theorem2_matching;
          Alcotest.test_case "edge coloring on graph families" `Quick test_theorem2_edge_coloring;
          Alcotest.test_case "rho sweep" `Quick test_theorem2_rho;
          Alcotest.test_case "doubles as 2Δ-1 coloring" `Quick test_theorem2_2delta_decoding;
          Alcotest.test_case "(Δ+1)-coloring pipeline" `Quick test_delta_coloring_pipeline;
          Alcotest.test_case "(2Δ-1) pipeline" `Quick test_two_delta_pipeline;
        ] );
      ( "sinkless",
        [
          Alcotest.test_case "valid on tree families" `Quick test_sinkless_on_trees;
          Alcotest.test_case "Θ(log n) rounds" `Quick test_sinkless_log_rounds;
        ] );
      ( "separation",
        [
          Alcotest.test_case "transform beats direct" `Quick test_transform_beats_direct_on_high_degree_tree;
          Alcotest.test_case "direct baselines valid" `Quick test_direct_baselines;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "proof invariants at phase boundaries" `Quick
            test_proof_invariants;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "pipelines on forests" `Quick test_pipelines_on_forests;
          Alcotest.test_case "bit-identical reruns" `Quick test_determinism;
          Alcotest.test_case "pooled runs with invariant checks" `Quick
            test_pooled_forest_with_invariants;
          Alcotest.test_case "id independence of validity" `Quick
            test_ids_change_solution_not_validity;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "BE13-style edge coloring" `Quick test_baseline_edge_coloring;
          Alcotest.test_case "BE13-style matching" `Quick test_baseline_matching;
          Alcotest.test_case "O(log n) rounds" `Quick test_baseline_log_rounds;
        ] );
      ("properties", qcheck_tests);
      ( "golden",
        [ Alcotest.test_case "pipeline table outputs" `Quick test_golden_outputs ] );
      ( "scale",
        [
          Alcotest.test_case "half-million-node pipeline" `Slow
            (fun () ->
              let n = 500_000 in
              let tree = Gen.random_tree ~n ~seed:88 in
              let ids = Ids.permuted ~n ~seed:89 in
              let r = Pipeline.mis_on_tree ~tree ~ids () in
              check "valid at scale" true r.Pipeline.valid;
              check "rounds stay small" true (r.Pipeline.total_rounds < 300));
        ] );
    ]
