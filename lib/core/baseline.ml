module Graph = Tl_graph.Graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Rake_compress = Tl_decompose.Rake_compress
module Span = Tl_obs.Span

(* Split the tree's edges into two forests by owner (= lower endpoint in
   the rake-and-compress total order with k = 2; every node has at most 2
   higher neighbors), 3-color each forest and return the 6 star families
   in schedule order together with the rounds spent. *)
let star_schedule tree ~ids =
  let cost = Round_cost.create () in
  let rc =
    Span.with_span "decompose" (fun () ->
        let rc = Rake_compress.run tree ~k:2 ~ids in
        Round_cost.charge cost "decompose"
          (Rake_compress.decomposition_rounds rc);
        rc)
  in
  let f_index, star_j =
    Span.with_span "forest-coloring" (fun () ->
        (* k = 2 guarantees at most two higher neighbors per node *)
        let f_index, star_j, cv_rounds =
          Tl_decompose.Arb_decompose.forest_stars tree ~ids ~forests:2
            ~lower:(Rake_compress.lower_endpoint rc)
            ~higher:(Rake_compress.higher_endpoint rc)
            ~in_class:(fun _ -> true)
        in
        Round_cost.charge cost "forest-3-coloring" cv_rounds;
        (f_index, star_j))
  in
  let m = Graph.n_edges tree in
  (* group the edges of each (c, j) family in schedule order *)
  let families = ref [] in
  for c = 2 downto 1 do
    for j = 3 downto 1 do
      let edges = ref [] in
      for e = m - 1 downto 0 do
        if f_index.(e) = c && star_j.(e) = j then edges := e :: !edges
      done;
      families := !edges :: !families
    done
  done;
  (cost, !families)

let solve_with_stars solve_node_list ~tree ~ids =
  let cost, families = star_schedule tree ~ids in
  let labeling = Labeling.create tree in
  Span.with_span "stars" (fun () ->
      Span.add_counter "families" (List.length families);
      List.iter
        (fun edges ->
          solve_node_list tree labeling ~edges;
          (* each family's stars are node-disjoint and solved in parallel:
             gather + redistribute at distance 1 *)
          Round_cost.charge cost "gather-solve(stars)" 2)
        families);
  (labeling, cost)

let edge_coloring_on_tree ~tree ~ids =
  solve_with_stars Tl_problems.Edge_coloring.solve_node_list ~tree ~ids

let matching_on_tree ~tree ~ids =
  solve_with_stars Tl_problems.Matching.solve_node_list ~tree ~ids
