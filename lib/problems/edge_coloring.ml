module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph

type label = Pair of int * int | D

let pp_label ppf = function
  | Pair (a, b) -> Format.fprintf ppf "(%d,%d)" a b
  | D -> Format.pp_print_string ppf "D"

let node_ok labels =
  let pairs =
    List.filter_map (function Pair (a, b) -> Some (a, b) | D -> None) labels
  in
  let p = List.length pairs in
  let degree_parts_ok = List.for_all (fun (a, _) -> a >= 1 && a <= p) pairs in
  let colors = List.map snd pairs in
  let rec distinct = function
    | [] -> true
    | b :: rest -> (not (List.mem b rest)) && distinct rest
  in
  degree_parts_ok && distinct colors

let edge_ok_base = function
  | [] -> true
  | [ D ] -> true
  | [ Pair _ ] -> false
  | [ Pair (a1, b1); Pair (a2, b2) ] -> b1 = b2 && b1 >= 1 && a1 + a2 >= b1 + 1
  | [ _; _ ] -> false
  | _ -> false

let problem =
  {
    Nec.name = "edge-degree+1-edge-coloring";
    equal_label = ( = );
    pp_label;
    node_ok;
    edge_ok = edge_ok_base;
  }

let problem_two_delta ~delta =
  {
    Nec.name = Printf.sprintf "2*%d-1-edge-coloring" delta;
    equal_label = ( = );
    pp_label;
    node_ok;
    edge_ok =
      (fun labels ->
        edge_ok_base labels
        &&
        match labels with
        | [ Pair (_, b); Pair _ ] -> b <= (2 * delta) - 1
        | _ -> true);
  }

let decode g labeling =
  Array.init (Graph.n_edges g) (fun e ->
      match Labeling.labels_at_edge labeling e with
      | Pair (_, b) :: _ -> b
      | _ -> 0)

let write sg colors labeling =
  let g = Semi_graph.base sg in
  let present = Semi_graph.node_present sg in
  let udeg = Array.make (Graph.n_nodes g) 0 in
  Graph.iter_edges
    (fun e (u, v) ->
      if Semi_graph.edge_present sg e && present u && present v then begin
        udeg.(u) <- udeg.(u) + 1;
        udeg.(v) <- udeg.(v) + 1
      end)
    g;
  for h = 0 to Graph.n_half_edges g - 1 do
    if Semi_graph.half_edge_present sg h then begin
      let e = Graph.half_edge_edge h in
      let u, v = Graph.edge_endpoints g e in
      Labeling.set labeling h
        (if not (present u && present v) then D
         else
           let b = colors.(e) in
           let a1 = min udeg.(u) b in
           if h = Graph.half_edge g ~edge:e ~node:u then Pair (a1, b)
           else Pair (max 1 (b + 1 - a1), b))
    end
  done

let encode g colors =
  if not (Tl_graph.Props.is_proper_edge_coloring g colors) then
    invalid_arg "Edge_coloring.encode: not proper";
  Graph.iter_edges
    (fun e _ ->
      if colors.(e) < 1 || colors.(e) > Tl_graph.Props.edge_degree g e + 1 then
        invalid_arg "Edge_coloring.encode: color out of palette")
    g;
  let labeling = Labeling.create g in
  write (Semi_graph.of_graph g) colors labeling;
  labeling

let colored_count labeling v =
  Nec.count (function Pair _ -> true | D -> false) (Labeling.labels_at_node labeling v)

let colors_at labeling v =
  List.filter_map
    (function Pair (_, b) -> Some b | D -> None)
    (Labeling.labels_at_node labeling v)

let solve_node_list g labeling ~edges =
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      let hu = Graph.half_edge g ~edge:e ~node:u in
      let hv = Graph.half_edge g ~edge:e ~node:v in
      if Labeling.is_labeled labeling hu || Labeling.is_labeled labeling hv then
        invalid_arg "Edge_coloring.solve_node_list: edge already labeled";
      let cu = colored_count labeling u in
      let cv = colored_count labeling v in
      let forbidden = colors_at labeling u @ colors_at labeling v in
      let rec first c = if List.mem c forbidden then first (c + 1) else c in
      let color = first 1 in
      assert (color <= cu + cv + 1);
      Labeling.set labeling hu (Pair (cu + 1, color));
      Labeling.set labeling hv (Pair (cv + 1, color)))
    edges

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_node_list g labeling ~edges:(List.init (Graph.n_edges g) Fun.id);
  labeling
