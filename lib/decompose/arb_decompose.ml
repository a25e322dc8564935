module Graph = Tl_graph.Graph
module Props = Tl_graph.Props
module Semi_graph = Tl_graph.Semi_graph

type t = {
  graph : Graph.t;
  a : int;
  b : int;
  k : int;
  ids : int array;
  layer_of : int array; (* 1-based marking iteration *)
  iterations : int;
  atypical_of : bool array; (* per edge *)
  f_index_of : int array; (* per edge: 1..2a for atypical, 0 otherwise *)
  star_j : int array; (* per edge: 1..3 for atypical (color of higher end), 0 otherwise *)
  cv_rounds : int;
}

let lemma13_bound_of ~a ~k ~n =
  (* ⌈10 log_{k/a} n⌉ + 1 *)
  if n <= 1 then 1
  else
    let r = 10.0 *. log (float_of_int n) /. log (float_of_int k /. float_of_int a) in
    int_of_float (Float.ceil (r -. 1e-9)) + 1

(* Split the [in_class] edges into forests by lower endpoint (each lower
   endpoint numbers its class edges 1, 2, ...), point every lower endpoint
   at its higher one, 3-color each forest with Cole-Vishkin and give each
   edge [star_j] = 1 + the color of its higher endpoint. *)
let forest_stars graph ~ids ~forests ~lower ~higher ~in_class =
  let n = Graph.n_nodes graph and m = Graph.n_edges graph in
  let f_index = Array.make m 0 in
  let next = Array.make n 1 in
  for e = 0 to m - 1 do
    if in_class e then begin
      let lo = lower e in
      f_index.(e) <- next.(lo);
      next.(lo) <- next.(lo) + 1;
      assert (f_index.(e) <= forests)
    end
  done;
  let star_j = Array.make m 0 in
  let cv_rounds = ref 0 in
  for i = 1 to forests do
    let parent = Array.make n (-1) in
    let in_forest = Array.make n false in
    for e = 0 to m - 1 do
      if f_index.(e) = i then begin
        let lo = lower e and hi = higher e in
        parent.(lo) <- hi;
        in_forest.(lo) <- true;
        in_forest.(hi) <- true
      end
    done;
    let nodes = ref [] in
    for v = n - 1 downto 0 do
      if in_forest.(v) then nodes := v :: !nodes
    done;
    if !nodes <> [] then begin
      let colors, rounds =
        Tl_symmetry.Cole_vishkin.color3 ~nodes:!nodes ~parent ~ids
      in
      if rounds > !cv_rounds then cv_rounds := rounds;
      for e = 0 to m - 1 do
        if f_index.(e) = i then star_j.(e) <- colors.(higher e) + 1
      done
    end
  done;
  (f_index, star_j, !cv_rounds)

let run graph ~a ~k ~ids =
  if a < 1 then invalid_arg "Arb_decompose.run: a < 1";
  if k < 5 * a then invalid_arg "Arb_decompose.run: k < 5a";
  let n = Graph.n_nodes graph in
  if Array.length ids <> n then invalid_arg "Arb_decompose.run: bad ids";
  Tl_obs.Span.with_span "arb-decompose"
    ~attrs:
      [ ("a", string_of_int a); ("k", string_of_int k); ("n", string_of_int n) ]
  @@ fun () ->
  let b = 2 * a in
  let m = Graph.n_edges graph in
  let layer_of = Array.make n 0 in
  let alive = Array.make n true in
  let deg = Array.init n (Graph.degree graph) in
  let atypical_of = Array.make m false in
  let remaining = ref n in
  let iteration = ref 0 in
  let bound = lemma13_bound_of ~a ~k ~n in
  Tl_obs.Span.with_span "peel" (fun () ->
  while !remaining > 0 do
    incr iteration;
    if !iteration > bound then
      failwith
        "Arb_decompose.run: Lemma 13 bound exceeded (arboricity larger than a?)";
    let i = !iteration in
    (* Compress(G[V_{i-1}], b, k), decided against the iteration-start
       state and applied simultaneously. *)
    let marked =
      List.filter
        (fun v ->
          alive.(v)
          && deg.(v) <= k
          &&
          let high = ref 0 in
          Array.iter
            (fun u -> if alive.(u) && deg.(u) > k then incr high)
            (Graph.neighbors graph v);
          !high <= b)
        (List.init n Fun.id)
    in
    (* record atypical edges: for each marked u, edges to still-alive
       neighbors of degree > k (those neighbors are necessarily higher) *)
    List.iter
      (fun u ->
        let adj = Graph.neighbors graph u in
        let inc = Graph.incident graph u in
        Array.iteri
          (fun idx v ->
            if alive.(v) && deg.(v) > k then atypical_of.(inc.(idx)) <- true)
          adj)
      marked;
    List.iter
      (fun v ->
        layer_of.(v) <- i;
        alive.(v) <- false;
        decr remaining)
      marked;
    List.iter
      (fun v ->
        Array.iter
          (fun u -> if alive.(u) then deg.(u) <- deg.(u) - 1)
          (Graph.neighbors graph v))
      marked
  done;
  Tl_obs.Span.add_counter "iterations" !iteration);
  let iterations = !iteration in
  (* total order helpers on the freshly computed layers *)
  let is_higher u v =
    if layer_of.(u) <> layer_of.(v) then layer_of.(u) > layer_of.(v)
    else ids.(u) > ids.(v)
  in
  let higher_of e =
    let u, v = Graph.edge_endpoints graph e in
    if is_higher u v then u else v
  in
  let lower_of e =
    let u, v = Graph.edge_endpoints graph e in
    if is_higher u v then v else u
  in
  let f_index_of, star_j, cv_rounds =
    Tl_obs.Span.with_span "cv3-forests" (fun () ->
        let ((_, _, cv) as r) =
          forest_stars graph ~ids ~forests:b ~lower:lower_of ~higher:higher_of
            ~in_class:(Array.get atypical_of)
        in
        Tl_obs.Span.add_counter "cv_rounds" cv;
        r)
  in
  {
    graph;
    a;
    b;
    k;
    ids;
    layer_of;
    iterations;
    atypical_of;
    f_index_of;
    star_j;
    cv_rounds;
  }

let layer t v = t.layer_of.(v)
let iterations t = t.iterations
let a t = t.a
let b t = t.b
let k t = t.k

let is_higher t u v =
  if t.layer_of.(u) <> t.layer_of.(v) then t.layer_of.(u) > t.layer_of.(v)
  else t.ids.(u) > t.ids.(v)

let higher_endpoint t e =
  let u, v = Graph.edge_endpoints t.graph e in
  if is_higher t u v then u else v

let lower_endpoint t e =
  let u, v = Graph.edge_endpoints t.graph e in
  if is_higher t u v then v else u

let decomposition_rounds t = 2 * t.iterations
let cv_rounds t = t.cv_rounds
let atypical t e = t.atypical_of.(e)

let typical_edges t =
  let acc = ref [] in
  for e = Graph.n_edges t.graph - 1 downto 0 do
    if not t.atypical_of.(e) then acc := e :: !acc
  done;
  !acc

let atypical_edges t =
  let acc = ref [] in
  for e = Graph.n_edges t.graph - 1 downto 0 do
    if t.atypical_of.(e) then acc := e :: !acc
  done;
  !acc

let g_e2 t =
  Semi_graph.of_edge_subset t.graph (Array.map not t.atypical_of)

let f_index t e = t.f_index_of.(e)
let star_class t e = (t.f_index_of.(e), t.star_j.(e))

let stars t ~i ~j =
  let by_center = Hashtbl.create 16 in
  Graph.iter_edges
    (fun e _ ->
      if t.f_index_of.(e) = i && t.star_j.(e) = j then begin
        let center = higher_endpoint t e in
        let old = try Hashtbl.find by_center center with Not_found -> [] in
        Hashtbl.replace by_center center (e :: old)
      end)
    t.graph;
  Hashtbl.fold (fun center edges acc -> (center, List.rev edges) :: acc) by_center []
  |> List.sort compare

let out_degree_orientation t =
  Array.init (Graph.n_edges t.graph) (fun e ->
      let u, _v = Graph.edge_endpoints t.graph e in
      (* true iff oriented smaller -> larger, i.e. the smaller endpoint is
         the lower one *)
      lower_endpoint t e = u)

let max_out_degree t =
  let n = Graph.n_nodes t.graph in
  let out = Array.make n 0 in
  Graph.iter_edges
    (fun e _ ->
      let lo = lower_endpoint t e in
      out.(lo) <- out.(lo) + 1)
    t.graph;
  Array.fold_left max 0 out

let check_acyclic_orientation t =
  (* acyclicity: the orientation follows a total order (layer, id), so a
     directed cycle would need a strictly increasing cycle in that order;
     verify directly by checking every edge goes strictly "up" *)
  let strictly_up =
    Graph.fold_edges
      (fun e _ acc ->
        let lo = lower_endpoint t e and hi = higher_endpoint t e in
        acc && is_higher t hi lo && not (is_higher t lo hi))
      t.graph true
  in
  strictly_up && max_out_degree t <= t.k

let lemma13_bound t =
  lemma13_bound_of ~a:t.a ~k:t.k ~n:(Graph.n_nodes t.graph)

let check_lemma13 t = t.iterations <= lemma13_bound t

let typical_max_degree t =
  let n = Graph.n_nodes t.graph in
  let deg = Array.make n 0 in
  Graph.iter_edges
    (fun e (u, v) ->
      if not t.atypical_of.(e) then begin
        deg.(u) <- deg.(u) + 1;
        deg.(v) <- deg.(v) + 1
      end)
    t.graph;
  Array.fold_left max 0 deg

let check_lemma14 t = typical_max_degree t <= t.k

let max_atypical_per_node t =
  let n = Graph.n_nodes t.graph in
  let cnt = Array.make n 0 in
  Graph.iter_edges
    (fun e _ ->
      if t.atypical_of.(e) then begin
        let lo = lower_endpoint t e in
        cnt.(lo) <- cnt.(lo) + 1
      end)
    t.graph;
  Array.fold_left max 0 cnt

let check_atypical_bound t = max_atypical_per_node t <= t.b

let check_forests t =
  let ok = ref true in
  for i = 1 to t.b do
    let edges = ref [] in
    Graph.iter_edges
      (fun e (u, v) -> if t.f_index_of.(e) = i then edges := (u, v) :: !edges)
      t.graph;
    if !edges <> [] then begin
      let nodes = List.concat_map (fun (u, v) -> [ u; v ]) !edges in
      let remap = Hashtbl.create 16 in
      let count = ref 0 in
      List.iter
        (fun v ->
          if not (Hashtbl.mem remap v) then begin
            Hashtbl.add remap v !count;
            incr count
          end)
        nodes;
      let sub =
        Graph.of_edges ~n:!count
          (List.map
             (fun (u, v) -> (Hashtbl.find remap u, Hashtbl.find remap v))
             !edges)
      in
      if not (Props.is_forest sub) then ok := false;
      (* at most one higher neighbor per node within F_i *)
      let higher_count = Array.make (Graph.n_nodes t.graph) 0 in
      Graph.iter_edges
        (fun e _ ->
          if t.f_index_of.(e) = i then begin
            let lo = lower_endpoint t e in
            higher_count.(lo) <- higher_count.(lo) + 1
          end)
        t.graph;
      if Array.exists (fun c -> c > 1) higher_count then ok := false
    end
  done;
  !ok

let check_stars t =
  let ok = ref true in
  for i = 1 to t.b do
    for j = 1 to 3 do
      let sts = stars t ~i ~j in
      let centers = List.map fst sts in
      List.iter
        (fun (center, edges) ->
          (* all edges share [center] as higher endpoint, and no lower
             endpoint is itself a center of this (i, j) class *)
          List.iter
            (fun e ->
              if higher_endpoint t e <> center then ok := false;
              if List.mem (lower_endpoint t e) centers then ok := false)
            edges)
        sts
    done
  done;
  !ok
