(* Tests for the truly local algorithms: Cole-Vishkin, Linial, Reduce,
   Algos. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Props = Tl_graph.Props
module Tree = Tl_graph.Tree
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Labeling = Tl_problems.Labeling
module Nec = Tl_problems.Nec
module CV = Tl_symmetry.Cole_vishkin
module Linial = Tl_symmetry.Linial
module Reduce = Tl_symmetry.Reduce
module Algos = Tl_symmetry.Algos

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_nodes g = List.init (Graph.n_nodes g) Fun.id

(* ---------- log* ---------- *)

let test_log_star () =
  check_int "log* 1" 0 (CV.log_star 1);
  check_int "log* 2" 1 (CV.log_star 2);
  check_int "log* 4" 2 (CV.log_star 4);
  check_int "log* 16" 3 (CV.log_star 16);
  check_int "log* 65536" 4 (CV.log_star 65536);
  check "log* 2^64-ish" true (CV.log_star max_int <= 5)

(* ---------- Cole-Vishkin ---------- *)

let proper_forest_coloring _g parent colors nodes =
  List.for_all
    (fun v ->
      colors.(v) >= 0 && colors.(v) < 3
      && (parent.(v) < 0 || colors.(v) <> colors.(parent.(v))))
    nodes

let test_cv_path () =
  let g = Gen.path 100 in
  let parent = Tree.parents_forest g in
  let ids = Ids.identity 100 in
  let colors, rounds = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper 3-coloring" true (proper_forest_coloring g parent colors (all_nodes g));
  check "rounds log*-ish" true (rounds <= CV.log_star 100 + 12)

let test_cv_star_and_deep_tree () =
  List.iter
    (fun g ->
      let n = Graph.n_nodes g in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:17 in
      let colors, _ = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
      check "proper" true (proper_forest_coloring g parent colors (all_nodes g)))
    [
      Gen.star 50;
      Gen.kary_tree ~arity:3 ~depth:5;
      Gen.random_tree ~n:500 ~seed:23;
      Gen.path 2;
      Gen.path 1;
    ]

let test_cv_forest () =
  let g = Gen.random_forest ~n:120 ~trees:6 ~seed:4 in
  let parent = Tree.parents_forest g in
  let ids = Ids.spread ~n:120 ~c:2 ~seed:5 in
  let colors, _ = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper on forest" true
    (proper_forest_coloring g parent colors (all_nodes g))

let test_cv_subset_of_nodes () =
  (* color only a sub-forest of a larger graph *)
  let _g = Gen.path 10 in
  let nodes = [ 2; 3; 4 ] in
  let parent = Array.make 10 (-1) in
  parent.(2) <- 3;
  parent.(4) <- 3;
  let ids = Ids.identity 10 in
  let colors, _ = CV.color3 ~nodes ~parent ~ids in
  check "colored subset" true
    (List.for_all (fun v -> colors.(v) >= 0 && colors.(v) < 3) nodes);
  check "parent differs" true
    (colors.(2) <> colors.(3) && colors.(4) <> colors.(3));
  check_int "others untouched" (-1) colors.(0)

let test_cv_large_ids () =
  (* huge id space: still O(log-star) rounds *)
  let g = Gen.path 50 in
  let parent = Tree.parents_forest g in
  let ids = Array.map (fun i -> (i * 1_000_003) + 7) (Ids.identity 50) in
  let colors, rounds = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
  check "proper" true (proper_forest_coloring g parent colors (all_nodes g));
  check "rounds small" true (rounds <= 16)

let test_cv_runtime_differential () =
  (* the Runtime state-machine execution must also produce a proper
     3-coloring, within its fixed a-priori schedule *)
  List.iter
    (fun g ->
      let n = Graph.n_nodes g in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:21 in
      let sg = Semi_graph.of_graph g in
      let colors, rounds =
        CV.color3_runtime ~sg ~nodes:(all_nodes g) ~parent ~ids
      in
      check "runtime CV proper" true
        (proper_forest_coloring g parent colors (all_nodes g));
      check_int "runtime CV schedule" (CV.schedule_length ~max_id:(Ids.max_id ids))
        rounds;
      (* the array implementation finishes no later than the fixed
         schedule (it detects convergence early) *)
      let _, array_rounds = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
      check "array version not slower than schedule" true (array_rounds <= rounds))
    [
      Gen.path 60;
      Gen.star 25;
      Gen.random_tree ~n:200 ~seed:22;
      Gen.random_forest ~n:90 ~trees:4 ~seed:24;
      Gen.path 1;
    ]

let prop_cv_runtime_proper =
  QCheck.Test.make ~name:"runtime CV proper on random trees" ~count:30
    QCheck.(pair (int_range 1 150) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let sg = Semi_graph.of_graph g in
      let colors, _ = CV.color3_runtime ~sg ~nodes:(all_nodes g) ~parent ~ids in
      proper_forest_coloring g parent colors (all_nodes g))

(* ---------- Linial ---------- *)

let neighbors_of g v = Array.to_list (Graph.neighbors g v)

let test_linial_step_properness () =
  let g = Gen.random_tree ~n:200 ~seed:31 in
  let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n:200 ~seed:32) in
  let palette =
    Linial.step
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:200
      ~max_degree:(Graph.max_degree g)
  in
  check "still proper" true (Props.is_proper_coloring g colors);
  check "palette respected" true (Array.for_all (fun c -> c < palette) colors)

let test_linial_reduce () =
  let g = Gen.random_bounded_degree ~n:300 ~max_degree:6 ~edges:600 ~seed:33 in
  let colors = Array.map (fun id -> id - 1) (Ids.spread ~n:300 ~c:2 ~seed:34) in
  let palette0 = 1 + Array.fold_left max 0 colors in
  let palette, rounds =
    Linial.reduce
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:palette0
      ~max_degree:(Graph.max_degree g)
  in
  check "proper after reduce" true (Props.is_proper_coloring g colors);
  check "palette shrank" true (palette < palette0);
  check "log*-many rounds" true (rounds <= CV.log_star palette0 + 6);
  check "palette poly in degree" true (palette <= 40 * 40)

let test_primes () =
  check_int "geq 1" 2 (Linial.smallest_prime_geq 1);
  check_int "geq 8" 11 (Linial.smallest_prime_geq 8);
  check_int "geq 13" 13 (Linial.smallest_prime_geq 13);
  check_int "geq 90" 97 (Linial.smallest_prime_geq 90)

(* ---------- Reduce ---------- *)

let test_kw_reduction () =
  let g = Gen.random_bounded_degree ~n:200 ~max_degree:5 ~edges:350 ~seed:35 in
  let delta = Graph.max_degree g in
  let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n:200 ~seed:36) in
  let palette, rounds =
    Reduce.kw_to_delta_plus_one
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:200 ~delta
  in
  check_int "palette is delta+1" (delta + 1) palette;
  check "proper" true (Props.is_proper_coloring g colors);
  check "colors in range" true (Array.for_all (fun c -> c <= delta) colors);
  (* O(delta * log (K/delta)) rounds *)
  check "round bound" true (rounds <= 2 * (delta + 1) * 10)

let test_to_bound_deg_plus_one () =
  let g = Gen.star 30 in
  let colors = Array.map (fun id -> id - 1) (Ids.identity 30) in
  let _ =
    Reduce.to_bound
      ~neighbors:(neighbors_of g)
      ~nodes:(all_nodes g) ~colors ~palette:30
      ~bound:(fun v -> Graph.degree g v + 1)
  in
  check "proper" true (Props.is_proper_coloring g colors);
  check "leaves use 2 colors" true
    (List.for_all (fun v -> colors.(v) <= 1) (List.init 29 (fun i -> i + 1)))

(* ---------- Algos: base algorithms on semi-graphs ---------- *)

(* Every base algorithm on one view: its problem's writer labels exactly
   the present half-edges (rank-1 edges included) and the labeling is
   valid on the semi-graph. *)
let run_all_problems sg ~ids =
  let g = Semi_graph.base sg in
  let ok problem algo =
    let l = Labeling.create g in
    ignore (algo sg ~ids l);
    List.for_all
      (fun h -> Labeling.is_labeled l h = Semi_graph.half_edge_present sg h)
      (List.init (Graph.n_half_edges g) Fun.id)
    && Nec.validate_semi problem sg l = []
  in
  ok Tl_problems.Coloring.problem_deg_plus_one Algos.deg_plus_one_coloring
  && ok Tl_problems.Mis.problem Algos.mis
  && ok Tl_problems.Matching.problem Algos.maximal_matching
  && ok Tl_problems.Edge_coloring.problem Algos.edge_coloring

(* The whole graph, then a seeded random node-subset view of it. *)
let run_all_on_graph_and_view g seed =
  let n = Graph.n_nodes g in
  let ids = Ids.permuted ~n ~seed in
  let rng = Gen.Prng.create (seed + 17) in
  let mask = Array.init n (fun _ -> Gen.Prng.int rng 2 = 0) in
  run_all_problems (Semi_graph.of_graph g) ~ids
  && run_all_problems (Semi_graph.of_node_subset g mask) ~ids

let test_algos_on_families () =
  List.iter
    (fun (name, g) ->
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:41 in
      check name true (run_all_problems (Semi_graph.of_graph g) ~ids))
    [
      ("path", Gen.path 40);
      ("star", Gen.star 30);
      ("cycle", Gen.cycle 21);
      ("random tree", Gen.random_tree ~n:150 ~seed:42);
      ("grid", Gen.grid 7 7);
      ("triangulated", Gen.triangulated_grid 5);
      ("caterpillar", Gen.caterpillar ~spine:10 ~legs:4);
      ("two nodes", Gen.path 2);
      ("single", Gen.path 1);
      ("complete", Gen.complete 6);
    ]

let test_algos_on_semi_graph_with_rank1 () =
  (* run the base algorithms on a proper semi-graph: half of a path *)
  let g = Gen.path 12 in
  let mask = Array.init 12 (fun v -> v mod 4 < 2) in
  let sg = Semi_graph.of_node_subset g mask in
  check "all problems valid on semi" true
    (run_all_problems sg ~ids:(Ids.identity 12))

(* On a whole graph the line structure is the line graph, its nodes the
   edges in id order. *)
let test_line_graph () =
  let line g = Algos.line_structure (Semi_graph.of_graph g) in
  (* path 0-1-2-3: line graph is a path on 3 nodes *)
  let lg, edge_of = line (Gen.path 4) in
  check_int "lg nodes" 3 (Graph.n_nodes lg);
  check_int "lg edges" 2 (Graph.n_edges lg);
  check "edge_of is the identity" true (edge_of = [| 0; 1; 2 |]);
  (* star: line graph of K_{1,4} is K_4 *)
  let ls, _ = line (Gen.star 5) in
  check_int "ls nodes" 4 (Graph.n_nodes ls);
  check_int "ls edges" 6 (Graph.n_edges ls)

let test_line_structure () =
  let g = Gen.path 5 in
  let sg = Semi_graph.of_graph g in
  let lg, edge_of = Algos.line_structure sg in
  check_int "L nodes" 4 (Graph.n_nodes lg);
  check_int "L edges" 3 (Graph.n_edges lg);
  check_int "edge_of" 0 edge_of.(0);
  (* restricted semi-graph: line structure only covers rank-2 edges *)
  let sg2 = Semi_graph.of_node_subset g [| true; true; true; false; false |] in
  let lg2, _ = Algos.line_structure sg2 in
  check_int "rank-2 only" 2 (Graph.n_nodes lg2)

let test_rounds_depend_on_degree_not_n () =
  (* truly local behaviour: on paths, rounds are roughly constant in n *)
  let rounds_for n =
    let g = Gen.path n in
    let sg = Semi_graph.of_graph g in
    let ids = Ids.permuted ~n ~seed:77 in
    let l = Labeling.create g in
    Algos.deg_plus_one_coloring sg ~ids l
  in
  let r1 = rounds_for 100 in
  let r2 = rounds_for 3000 in
  check "log*-ish growth only" true (r2 - r1 <= 3)

(* ---------- qcheck properties ---------- *)

let prop_cv_proper =
  QCheck.Test.make ~name:"CV 3-coloring proper on random forests" ~count:60
    QCheck.(triple (int_range 2 200) (int_range 1 5) (int_range 0 100000))
    (fun (n, trees, seed) ->
      let trees = min trees n in
      let g = Gen.random_forest ~n ~trees ~seed in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let colors, _ = CV.color3 ~nodes:(all_nodes g) ~parent ~ids in
      proper_forest_coloring g parent colors (all_nodes g))

let prop_algos_valid_on_random_trees =
  QCheck.Test.make ~name:"base algorithms valid on random trees" ~count:25
    QCheck.(pair (int_range 1 120) (int_range 0 100000))
    (fun (n, seed) ->
      run_all_on_graph_and_view (Gen.random_tree ~n ~seed) (seed + 9))

let prop_algos_valid_on_arb_graphs =
  QCheck.Test.make ~name:"base algorithms valid on arboricity-a graphs"
    ~count:15
    QCheck.(triple (int_range 2 80) (int_range 1 3) (int_range 0 100000))
    (fun (n, a, seed) ->
      run_all_on_graph_and_view
        (Gen.forest_union ~n ~arboricity:a ~seed)
        (seed + 3))

(* Line-node degree is the edge degree d(u) + d(v) - 2. *)
let prop_line_graph_degrees =
  QCheck.Test.make ~name:"line graph degree equals edge degree" ~count:50
    QCheck.(pair (int_range 2 80) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let lg, edge_of = Algos.line_structure (Semi_graph.of_graph g) in
      edge_of = Array.init (Graph.n_edges g) Fun.id
      && List.for_all
           (fun i ->
             let u, v = Graph.edge_endpoints g edge_of.(i) in
             Graph.degree lg i = Graph.degree g u + Graph.degree g v - 2)
           (List.init (Graph.n_nodes lg) Fun.id))

let prop_linial_step_keeps_proper =
  QCheck.Test.make ~name:"Linial step preserves properness" ~count:40
    QCheck.(pair (int_range 2 120) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let colors = Array.map (fun id -> id - 1) (Ids.permuted ~n ~seed:(seed + 1)) in
      let _ =
        Linial.step
          ~neighbors:(neighbors_of g)
          ~nodes:(all_nodes g) ~colors ~palette:n
          ~max_degree:(Graph.max_degree g)
      in
      Props.is_proper_coloring g colors)

(* The Linial run inside proper_coloring reports the compile that
   proper_coloring itself did: a miss with real time on a fresh view, a
   cache hit on the repeat. *)
let test_linial_trace_compile () =
  let g = Gen.random_tree ~n:3000 ~seed:8 in
  let sg = Semi_graph.of_graph g in
  let ids = Ids.permuted ~n:3000 ~seed:9 in
  let linial_traces f =
    let got = ref [] in
    let sub = Tl_engine.Driver.subscribe (fun t -> got := t :: !got) in
    Fun.protect ~finally:(fun () -> Tl_engine.Driver.unsubscribe sub) f;
    List.filter (fun t -> Tl_engine.Trace.label t = "linial.color") !got
  in
  let compile_of f =
    match linial_traces f with
    | [ t ] ->
      ( (Tl_engine.Trace.metrics t).Tl_engine.Trace.compile_s,
        Tl_engine.Trace.compile_cached t )
    | ts ->
      Alcotest.failf "expected one linial.color trace, got %d" (List.length ts)
  in
  let s1, cached1 =
    compile_of (fun () -> ignore (Algos.proper_coloring sg ~ids))
  in
  check "fresh view: compile not cached" false cached1;
  check (Printf.sprintf "fresh view: compile_s > 0 (got %g)" s1) true (s1 > 0.);
  let _, cached2 =
    compile_of (fun () -> ignore (Algos.proper_coloring sg ~ids))
  in
  check "repeat: compile cached" true cached2

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_cv_proper;
      prop_cv_runtime_proper;
      prop_algos_valid_on_random_trees;
      prop_algos_valid_on_arb_graphs;
      prop_line_graph_degrees;
      prop_linial_step_keeps_proper;
    ]

let () =
  Alcotest.run "tl_symmetry"
    [
      ("log_star", [ Alcotest.test_case "values" `Quick test_log_star ]);
      ( "cole_vishkin",
        [
          Alcotest.test_case "path" `Quick test_cv_path;
          Alcotest.test_case "tree families" `Quick test_cv_star_and_deep_tree;
          Alcotest.test_case "forest" `Quick test_cv_forest;
          Alcotest.test_case "node subset" `Quick test_cv_subset_of_nodes;
          Alcotest.test_case "large ids" `Quick test_cv_large_ids;
          Alcotest.test_case "runtime differential" `Quick test_cv_runtime_differential;
        ] );
      ( "linial",
        [
          Alcotest.test_case "single step" `Quick test_linial_step_properness;
          Alcotest.test_case "full reduction" `Quick test_linial_reduce;
          Alcotest.test_case "primes" `Quick test_primes;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "KW to delta+1" `Quick test_kw_reduction;
          Alcotest.test_case "greedy to deg+1" `Quick test_to_bound_deg_plus_one;
        ] );
      ( "algos",
        [
          Alcotest.test_case "all problems, all families" `Quick test_algos_on_families;
          Alcotest.test_case "semi-graphs with rank-1 edges" `Quick test_algos_on_semi_graph_with_rank1;
          Alcotest.test_case "line graph" `Quick test_line_graph;
          Alcotest.test_case "line structure" `Quick test_line_structure;
          Alcotest.test_case "truly local rounds" `Quick test_rounds_depend_on_degree_not_n;
          Alcotest.test_case "linial trace carries the compile" `Quick
            test_linial_trace_compile;
        ] );
      ("properties", qcheck_tests);
    ]
