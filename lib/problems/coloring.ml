module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph

type label = int

let pp_label = Format.pp_print_int

let all_same_positive labels =
  match labels with
  | [] -> Some 1
  | c :: rest -> if c >= 1 && List.for_all (( = ) c) rest then Some c else None

let node_ok_bounded bound labels =
  match all_same_positive labels with
  | None -> List.length labels = 0
  | Some c -> c <= bound (List.length labels)

let edge_ok = function
  | [] | [ _ ] -> true
  | [ c1; c2 ] -> c1 <> c2
  | _ -> false

let problem_deg_plus_one =
  {
    Nec.name = "deg+1-coloring";
    equal_label = ( = );
    pp_label;
    node_ok = node_ok_bounded (fun deg -> deg + 1);
    edge_ok;
  }

let problem_delta_plus_one ~delta =
  {
    Nec.name = Printf.sprintf "%d+1-coloring" delta;
    equal_label = ( = );
    pp_label;
    node_ok = node_ok_bounded (fun _ -> delta + 1);
    edge_ok;
  }

let decode g labeling =
  Array.init (Graph.n_nodes g) (fun v ->
      match Labeling.labels_at_node labeling v with [] -> 1 | c :: _ -> c)

let write sg colors labeling =
  let g = Semi_graph.base sg in
  for h = 0 to Graph.n_half_edges g - 1 do
    if Semi_graph.half_edge_present sg h then
      Labeling.set labeling h colors.(Graph.half_edge_node g h)
  done

let encode g colors =
  if not (Tl_graph.Props.is_proper_coloring g colors) then
    invalid_arg "Coloring.encode: not a proper coloring";
  let labeling = Labeling.create g in
  write (Semi_graph.of_graph g) colors labeling;
  labeling

let solve_edge_list g labeling ~nodes =
  List.iter
    (fun v ->
      let hs = Graph.half_edges_of g v in
      List.iter
        (fun h ->
          if Labeling.is_labeled labeling h then
            invalid_arg "Coloring.solve_edge_list: node already partially labeled")
        hs;
      let deg = Graph.degree g v in
      let forbidden = Array.make (deg + 2) false in
      List.iter
        (fun h ->
          match Labeling.get labeling (Graph.opposite_half_edge h) with
          | Some c when c <= deg + 1 -> forbidden.(c) <- true
          | Some _ | None -> ())
        hs;
      let rec first c = if forbidden.(c) then first (c + 1) else c in
      let color = first 1 in
      List.iter (fun h -> Labeling.set labeling h color) hs)
    nodes

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_edge_list g labeling ~nodes:(List.init (Graph.n_nodes g) Fun.id);
  labeling
