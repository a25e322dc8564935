module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Labeling = Tl_problems.Labeling
module P = Tl_problems

(* The whole reduction chain runs on one compiled snapshot: Linial on the
   engine, then the greedy reductions over the same CSR rows. *)
let color_topo (topo, compile_s, compile_cached) ~ids =
  let n = Topology.n_base topo in
  if Array.length ids <> n then invalid_arg "Algos.proper_coloring: bad ids";
  let nodes = Array.to_list topo.Topology.present_nodes in
  let max_degree = Topology.max_degree topo in
  let colors = Array.make n (-1) in
  List.iter (fun v -> colors.(v) <- ids.(v)) nodes;
  let palette0 = 1 + List.fold_left (fun acc v -> max acc ids.(v)) 0 nodes in
  let neighbors v = Topology.neighbor_nodes topo v in
  if max_degree = 0 then begin
    List.iter (fun v -> colors.(v) <- 0) nodes;
    (colors, 1, 0)
  end
  else begin
    let palette1, linial_rounds =
      Linial.reduce_topo_with ~compile_s ~compile_cached ~topo ~nodes ~colors
        ~palette:palette0 ~max_degree
    in
    let palette2, kw_rounds =
      Reduce.kw_to_delta_plus_one ~neighbors ~nodes ~colors ~palette:palette1
        ~delta:max_degree
    in
    let bound v = Topology.degree topo v + 1 in
    let reduce_rounds =
      Reduce.to_bound ~neighbors ~nodes ~colors ~palette:palette2 ~bound
    in
    (colors, max_degree + 1, linial_rounds + kw_rounds + reduce_rounds)
  end

let proper_coloring sg ~ids = color_topo (Tl_local.Runtime.compile sg) ~ids

let deg_plus_one_coloring sg ~ids labeling =
  let colors, _palette, rounds = proper_coloring sg ~ids in
  P.Coloring.write sg (Array.map succ colors) labeling;
  rounds

(* Greedy MIS over the color classes of a proper coloring: class c joins in
   round c if no neighbor has joined yet. Costs [palette] rounds. *)
let mis_of_coloring topo colors palette =
  let { Topology.off; adj; present_nodes; _ } = topo in
  let in_mis = Array.make (Topology.n_base topo) false in
  for c = 0 to palette - 1 do
    Array.iter
      (fun v ->
        if colors.(v) = c then begin
          let free = ref true in
          for i = off.(v) to off.(v + 1) - 1 do
            if in_mis.(adj.(i)) then free := false
          done;
          if !free then in_mis.(v) <- true
        end)
      present_nodes
  done;
  in_mis

let mis sg ~ids labeling =
  let ((topo, _, _) as compiled) = Tl_local.Runtime.compile sg in
  let colors, palette, color_rounds = color_topo compiled ~ids in
  P.Mis.write sg (mis_of_coloring topo colors palette) labeling;
  (* [palette] class rounds, then one round to learn which neighbors
     joined *)
  color_rounds + palette + 1

(* Line nodes are the present rank-2 edges in ascending id order. Two
   distinct edges of a simple graph share at most one endpoint, so every
   line edge arises at exactly one node and needs no dedup. *)
let line_structure sg =
  let base = Semi_graph.base sg in
  let lnode = Array.make (Graph.n_edges base) (-1) in
  let count = ref 0 in
  Graph.iter_edges
    (fun e (u, v) ->
      if
        Semi_graph.edge_present sg e
        && Semi_graph.node_present sg u
        && Semi_graph.node_present sg v
      then begin
        lnode.(e) <- !count;
        incr count
      end)
    base;
  let edge_of = Array.make !count 0 in
  Array.iteri (fun e i -> if i >= 0 then edge_of.(i) <- e) lnode;
  let ledges = ref [] in
  for v = 0 to Graph.n_nodes base - 1 do
    let inc = Graph.incident base v in
    let d = Array.length inc in
    for i = 0 to d - 1 do
      let x = lnode.(inc.(i)) in
      if x >= 0 then
        for j = i + 1 to d - 1 do
          let y = lnode.(inc.(j)) in
          if y >= 0 then ledges := (min x y, max x y) :: !ledges
        done
    done
  done;
  (Graph.of_edges ~n:!count !ledges, edge_of)

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

(* (deg+1)-coloring of the line graph on its one compiled topology; every
   line-graph round costs 2 base rounds, plus 1 base round for edges to
   learn their line-neighborhood. *)
let line_coloring sg ~ids =
  let lg, edge_of = line_structure sg in
  let ((ltopo, _, _) as compiled) =
    Tl_local.Runtime.compile (Semi_graph.of_graph lg)
  in
  let colors, palette, lrounds =
    color_topo compiled ~ids:(line_ids sg edge_of ids)
  in
  (ltopo, edge_of, colors, palette, 1 + (2 * lrounds))

let maximal_matching sg ~ids labeling =
  let ltopo, edge_of, colors, palette, setup_rounds = line_coloring sg ~ids in
  let in_mis = mis_of_coloring ltopo colors palette in
  let in_matching = Array.make (Graph.n_edges (Semi_graph.base sg)) false in
  Array.iteri (fun i e -> in_matching.(e) <- in_mis.(i)) edge_of;
  P.Matching.write sg in_matching labeling;
  setup_rounds + (2 * palette) + 1

let edge_coloring sg ~ids labeling =
  let _, edge_of, colors, _, rounds = line_coloring sg ~ids in
  let edge_colors = Array.make (Graph.n_edges (Semi_graph.base sg)) 0 in
  Array.iteri (fun i e -> edge_colors.(e) <- colors.(i) + 1) edge_of;
  P.Edge_coloring.write sg edge_colors labeling;
  rounds + 1
