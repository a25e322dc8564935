module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph

type label = M | P | O | D

let pp_label ppf l =
  Format.pp_print_string ppf
    (match l with M -> "M" | P -> "P" | O -> "O" | D -> "D")

let node_ok labels =
  match Nec.count (( = ) M) labels with
  | 1 -> true (* exactly one M; the rest are necessarily in {P, O, D} *)
  | 0 -> List.for_all (fun l -> l = O || l = D) labels
  | _ -> false

let edge_ok = function
  | [] -> true
  | [ D ] -> true
  | [ M ] | [ P ] | [ O ] -> false
  | [ a; b ] -> (
    match (a, b) with
    | P, O | O, P | M, M | P, P -> true
    | _ -> false)
  | _ -> false

let problem =
  { Nec.name = "maximal-matching"; equal_label = ( = ); pp_label; node_ok; edge_ok }

let decode g labeling =
  Array.init (Graph.n_edges g) (fun e ->
      match Labeling.labels_at_edge labeling e with
      | [ M; M ] -> true
      | _ -> false)

let write sg in_matching labeling =
  let g = Semi_graph.base sg in
  let matched = Array.make (Graph.n_nodes g) false in
  Graph.iter_edges
    (fun e (u, v) ->
      if in_matching.(e) then begin
        matched.(u) <- true;
        matched.(v) <- true
      end)
    g;
  for h = 0 to Graph.n_half_edges g - 1 do
    if Semi_graph.half_edge_present sg h then begin
      let e = Graph.half_edge_edge h in
      let u = Graph.half_edge_node g (Graph.opposite_half_edge h) in
      Labeling.set labeling h
        (if not (Semi_graph.node_present sg u) then D
         else if in_matching.(e) then M
         else if matched.(Graph.half_edge_node g h) then P
         else O)
    end
  done

let encode g in_matching =
  if not (Tl_graph.Props.is_maximal_matching g in_matching) then
    invalid_arg "Matching.encode: not a maximal matching";
  let labeling = Labeling.create g in
  write (Semi_graph.of_graph g) in_matching labeling;
  labeling

let has_m labeling v =
  List.exists (( = ) M) (Labeling.labels_at_node labeling v)

let solve_node_list g labeling ~edges =
  List.iter
    (fun e ->
      let u, v = Graph.edge_endpoints g e in
      let hu = Graph.half_edge g ~edge:e ~node:u in
      let hv = Graph.half_edge g ~edge:e ~node:v in
      if Labeling.is_labeled labeling hu || Labeling.is_labeled labeling hv then
        invalid_arg "Matching.solve_node_list: edge already labeled";
      match (has_m labeling u, has_m labeling v) with
      | false, false ->
        Labeling.set labeling hu M;
        Labeling.set labeling hv M
      | false, true ->
        Labeling.set labeling hu O;
        Labeling.set labeling hv P
      | true, false ->
        Labeling.set labeling hu P;
        Labeling.set labeling hv O
      | true, true ->
        Labeling.set labeling hu P;
        Labeling.set labeling hv P)
    edges

let solve_sequential g =
  let labeling = Labeling.create g in
  solve_node_list g labeling ~edges:(List.init (Graph.n_edges g) Fun.id);
  labeling
