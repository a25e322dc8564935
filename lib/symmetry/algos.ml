module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling

let underlying_neighbors sg v = List.map fst (Semi_graph.rank2_neighbors sg v)

let proper_coloring sg ~ids =
  let base = Semi_graph.base sg in
  let n = Graph.n_nodes base in
  if Array.length ids <> n then invalid_arg "Algos.proper_coloring: bad ids";
  let nodes = Semi_graph.nodes sg in
  (* One compiled snapshot serves the whole reduction chain: Linial runs
     on the engine, and the greedy reductions read adjacency through the
     CSR rows instead of re-deriving it from the semi-graph every call. *)
  let topo, compile_s, cache_hit = Tl_local.Runtime.compile sg in
  let max_degree = Tl_engine.Topology.max_degree topo in
  let colors = Array.make n (-1) in
  List.iter (fun v -> colors.(v) <- ids.(v)) nodes;
  let palette0 = 1 + List.fold_left (fun acc v -> max acc ids.(v)) 0 nodes in
  let neighbors v = Tl_engine.Topology.neighbor_nodes topo v in
  if max_degree = 0 then begin
    List.iter (fun v -> colors.(v) <- 0) nodes;
    (colors, 1, 0)
  end
  else begin
    let palette1, linial_rounds =
      Linial.reduce_topo_with ~compile_s ~compile_cached:cache_hit ~topo
        ~nodes ~colors ~palette:palette0 ~max_degree
    in
    let palette2, kw_rounds =
      Reduce.kw_to_delta_plus_one ~neighbors ~nodes ~colors ~palette:palette1
        ~delta:max_degree
    in
    let bound v = Semi_graph.underlying_degree sg v + 1 in
    let reduce_rounds =
      Reduce.to_bound ~neighbors ~nodes ~colors ~palette:palette2 ~bound
    in
    (colors, max_degree + 1, linial_rounds + kw_rounds + reduce_rounds)
  end

let deg_plus_one_coloring sg ~ids labeling =
  let colors, _palette, rounds = proper_coloring sg ~ids in
  List.iter
    (fun v ->
      List.iter
        (fun h -> Labeling.set labeling h (colors.(v) + 1))
        (Semi_graph.half_edges_of sg v))
    (Semi_graph.nodes sg);
  rounds

(* Greedy MIS over the color classes of a proper coloring: class c joins in
   round c if no neighbor has joined yet. Costs [palette] rounds. *)
let mis_of_coloring sg colors palette =
  let base = Semi_graph.base sg in
  let in_mis = Array.make (Graph.n_nodes base) false in
  let nodes = Semi_graph.nodes sg in
  for c = 0 to palette - 1 do
    List.iter
      (fun v ->
        if
          colors.(v) = c
          && not (List.exists (fun u -> in_mis.(u)) (underlying_neighbors sg v))
        then in_mis.(v) <- true)
      nodes
  done;
  (in_mis, palette)

let mis sg ~ids labeling =
  let colors, palette, color_rounds = proper_coloring sg ~ids in
  let in_mis, class_rounds = mis_of_coloring sg colors palette in
  (* one round to learn which neighbors joined, then label *)
  List.iter
    (fun v ->
      if in_mis.(v) then
        List.iter
          (fun h -> Labeling.set labeling h Tl_problems.Mis.M)
          (Semi_graph.half_edges_of sg v)
      else begin
        let pointed = ref false in
        List.iter
          (fun h ->
            let e = Graph.half_edge_edge h in
            let u = Graph.other_endpoint (Semi_graph.base sg) e v in
            let opposite_in_mis = Semi_graph.node_present sg u && in_mis.(u) in
            if opposite_in_mis && not !pointed then begin
              pointed := true;
              Labeling.set labeling h Tl_problems.Mis.P
            end
            else Labeling.set labeling h Tl_problems.Mis.O)
          (Semi_graph.half_edges_of sg v)
      end)
    (Semi_graph.nodes sg);
  color_rounds + class_rounds + 1

let line_structure sg =
  let rank2 =
    List.filter (fun e -> Semi_graph.rank sg e = 2) (Semi_graph.edges sg)
  in
  let edge_of = Array.of_list rank2 in
  let lnode_of = Hashtbl.create (Array.length edge_of) in
  Array.iteri (fun i e -> Hashtbl.add lnode_of e i) edge_of;
  let ledges = ref [] in
  let seen = Hashtbl.create (4 * Array.length edge_of) in
  List.iter
    (fun v ->
      let inc =
        List.filter_map
          (fun (_, e) -> Hashtbl.find_opt lnode_of e)
          (Semi_graph.rank2_neighbors sg v)
      in
      let rec pairs = function
        | [] -> ()
        | x :: rest ->
          List.iter
            (fun y ->
              let p = if x < y then (x, y) else (y, x) in
              if not (Hashtbl.mem seen p) then begin
                Hashtbl.add seen p ();
                ledges := p :: !ledges
              end)
            rest;
          pairs rest
      in
      pairs inc)
    (Semi_graph.nodes sg);
  (Graph.of_edges ~n:(Array.length edge_of) !ledges, edge_of)

(* Unique positive ids for line-graph nodes derived from endpoint ids. *)
let line_ids sg edge_of ids =
  let base = Semi_graph.base sg in
  let width = 1 + Array.fold_left max 0 ids in
  Array.map
    (fun e ->
      let u, v = Graph.edge_endpoints base e in
      let a = min ids.(u) ids.(v) and b = max ids.(u) ids.(v) in
      (a * width) + b)
    edge_of

(* (deg+1)-coloring of the line graph; every line-graph round costs 2 base
   rounds, plus 1 base round for edges to learn their line-neighborhood. *)
let line_coloring sg ~ids =
  let lg, edge_of = line_structure sg in
  let lsg = Semi_graph.of_graph lg in
  let lids = line_ids sg edge_of ids in
  let colors, palette, lrounds = proper_coloring lsg ~ids:lids in
  (lg, edge_of, colors, palette, 1 + (2 * lrounds))

let maximal_matching sg ~ids labeling =
  let base = Semi_graph.base sg in
  let lg, edge_of, colors, palette, setup_rounds = line_coloring sg ~ids in
  let lsg = Semi_graph.of_graph lg in
  let in_mis, class_rounds = mis_of_coloring lsg colors palette in
  (* matched: per node, whether one of its present rank-2 edges is matched *)
  let matched = Array.make (Graph.n_nodes base) false in
  Array.iteri
    (fun i e ->
      if in_mis.(i) then begin
        let u, v = Graph.edge_endpoints base e in
        matched.(u) <- true;
        matched.(v) <- true
      end)
    edge_of;
  Array.iteri
    (fun i e ->
      let u, v = Graph.edge_endpoints base e in
      let hu = Graph.half_edge base ~edge:e ~node:u in
      let hv = Graph.half_edge base ~edge:e ~node:v in
      if in_mis.(i) then begin
        Labeling.set labeling hu Tl_problems.Matching.M;
        Labeling.set labeling hv Tl_problems.Matching.M
      end
      else begin
        Labeling.set labeling hu
          (if matched.(u) then Tl_problems.Matching.P else Tl_problems.Matching.O);
        Labeling.set labeling hv
          (if matched.(v) then Tl_problems.Matching.P else Tl_problems.Matching.O)
      end)
    edge_of;
  (* dangling rank-1 edges *)
  List.iter
    (fun e ->
      if Semi_graph.rank sg e = 1 then begin
        let u, v = Graph.edge_endpoints base e in
        let node = if Semi_graph.node_present sg u then u else v in
        Labeling.set labeling
          (Graph.half_edge base ~edge:e ~node)
          Tl_problems.Matching.D
      end)
    (Semi_graph.edges sg);
  setup_rounds + (2 * class_rounds) + 1

let edge_coloring sg ~ids labeling =
  let base = Semi_graph.base sg in
  let _lg, edge_of, colors, _palette, rounds = line_coloring sg ~ids in
  Array.iteri
    (fun i e ->
      let u, v = Graph.edge_endpoints base e in
      let b = colors.(i) + 1 in
      let du = Semi_graph.underlying_degree sg u in
      let a1 = min du b in
      let a2 = max 1 (b + 1 - a1) in
      Labeling.set labeling
        (Graph.half_edge base ~edge:e ~node:u)
        (Tl_problems.Edge_coloring.Pair (a1, b));
      Labeling.set labeling
        (Graph.half_edge base ~edge:e ~node:v)
        (Tl_problems.Edge_coloring.Pair (a2, b)))
    edge_of;
  List.iter
    (fun e ->
      if Semi_graph.rank sg e = 1 then begin
        let u, v = Graph.edge_endpoints base e in
        let node = if Semi_graph.node_present sg u then u else v in
        Labeling.set labeling
          (Graph.half_edge base ~edge:e ~node)
          Tl_problems.Edge_coloring.D
      end)
    (Semi_graph.edges sg);
  rounds + 1
