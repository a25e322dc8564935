module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Labeling = Tl_problems.Labeling
module Round_cost = Tl_local.Round_cost
module Rake_compress = Tl_decompose.Rake_compress
module Span = Tl_obs.Span
module Pool = Tl_engine.Pool

type 'l spec = {
  problem : 'l Tl_problems.Nec.t;
  base_algorithm :
    Tl_graph.Semi_graph.t -> ids:int array -> 'l Tl_problems.Labeling.t -> int;
  solve_edge_list :
    Tl_graph.Graph.t -> 'l Tl_problems.Labeling.t -> nodes:int list -> unit;
}

type 'l result = {
  labeling : 'l Tl_problems.Labeling.t;
  cost : Tl_local.Round_cost.t;
  rc : Tl_decompose.Rake_compress.t;
  k : int;
}

(* Debug-mode owner check for the pooled gather-solve: every half-edge a
   component's solver may write is claimed by exactly one component
   (components are node-disjoint and a node's half-edges belong to it
   alone), so concurrent [solve_edge_list] calls never collide. Verifies
   that claim explicitly before fanning out. *)
let assert_disjoint_owners tree components =
  let owner = Array.make (Graph.n_half_edges tree) (-1) in
  Array.iteri
    (fun c component ->
      List.iter
        (fun v ->
          List.iter
            (fun h ->
              if owner.(h) >= 0 then
                failwith
                  (Printf.sprintf
                     "Theorem1: half-edge %d owned by components %d and %d" h
                     owner.(h) c);
              owner.(h) <- c)
            (Graph.half_edges_of tree v))
        component)
    components

let run ?(check_invariants = false) ?k ~spec ~tree ~ids ~f () =
  let n = Graph.n_nodes tree in
  let pool = Pool.create () in
  let k =
    match k with Some k -> k | None -> Complexity.choose_k ~f ~n
  in
  let assert_partial labeling phase =
    if check_invariants then
      match Tl_problems.Nec.validate_partial spec.problem tree labeling with
      | [] -> ()
      | v :: _ ->
        failwith
          (Format.asprintf "Theorem1.run: invariant broken after %s: %a"
             phase Tl_problems.Nec.pp_violation v)
  in
  Span.set_attr "k" (string_of_int k);
  let cost = Round_cost.create () in
  (* Phase 1: rake-and-compress decomposition (Algorithm 1). *)
  let rc =
    Span.with_span "decompose" (fun () ->
        let rc = Rake_compress.run tree ~k ~ids in
        Round_cost.charge cost "decompose"
          (Rake_compress.decomposition_rounds rc);
        rc)
  in
  let labeling = Labeling.create tree in
  (* Phase 2: the base algorithm A on T_C (Algorithm 2, line 1). *)
  let t_c = Rake_compress.t_c rc in
  Span.with_span "base" (fun () ->
      Round_cost.charge cost "base:A(T_C)" (spec.base_algorithm t_c ~ids labeling));
  assert_partial labeling "base:A(T_C)";
  (* Phase 3: gather-and-solve Π× on each component of T_R (line 2). All
     components are processed in parallel; the LOCAL cost is the largest
     gather+redistribute distance, i.e. twice the eccentricity of the
     collecting (highest) node. With [workers > 1] the components are
     fanned over a deterministic domain pool (they are node-disjoint, so
     the labeling writes never collide); the sequential commit order
     keeps the charged maximum and any failure bit-identical to the
     sequential path. *)
  let t_r = Rake_compress.t_r rc in
  let components = Semi_graph.underlying_components t_r in
  (* Flat per-component solve: T_R is compiled once into a CSR snapshot
     (memoized — repeated runs over an unchanged view reuse it) and the
     restricted BFS runs on preallocated int-array scratch: a distance
     slab and a flat ring-free queue per worker, reset via the queue
     prefix after each component. No per-node lists, no Queue cells —
     the BFS that dominated the gather phase at n=1e6 is allocation-free
     after setup. Eccentricity is order-independent, so the value is
     bit-identical to the old list-based BFS. *)
  let topo_r = Tl_engine.Topology.compile_cached t_r in
  let ecc_within dist queue src =
    let off = topo_r.Tl_engine.Topology.off
    and adj = topo_r.Tl_engine.Topology.adj in
    dist.(src) <- 0;
    queue.(0) <- src;
    let head = ref 0 and tail = ref 1 in
    let far = ref 0 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      let du = dist.(v) + 1 in
      for j = off.(v) to off.(v + 1) - 1 do
        let u = adj.(j) in
        if dist.(u) < 0 then begin
          dist.(u) <- du;
          if du > !far then far := du;
          queue.(!tail) <- u;
          incr tail
        end
      done
    done;
    for i = 0 to !tail - 1 do
      dist.(queue.(i)) <- -1
    done;
    !far
  in
  (* Gather charge + solve of one component; returns 2 * eccentricity. *)
  let solve_component dist queue component =
    match component with
    | [] -> 0
    | first :: _ ->
      let highest =
        List.fold_left
          (fun acc v -> if Rake_compress.is_higher rc v acc then v else acc)
          first component
      in
      let ecc = ecc_within dist queue highest in
      spec.solve_edge_list tree labeling ~nodes:component;
      2 * ecc
  in
  Span.with_span "gather-solve" (fun () ->
      Span.add_counter "components" (Array.length components);
      Span.add_counter "pool:workers" (Pool.workers pool);
      Span.add_counter "pool:tasks" (Array.length components);
      let max_gather = ref 0 in
      if Pool.workers pool <= 1 || Array.length components < 2 then begin
        let dist = Array.make n (-1) in
        let queue = Array.make n 0 in
        Array.iter
          (fun component ->
            if component <> [] then begin
              let g = solve_component dist queue component in
              if g > !max_gather then max_gather := g;
              assert_partial labeling "gather-solve(T_R) component"
            end)
          components
      end
      else begin
        if check_invariants then assert_disjoint_owners tree components;
        let dists =
          Array.init (Pool.workers pool) (fun _ -> Array.make n (-1))
        in
        let queues =
          Array.init (Pool.workers pool) (fun _ -> Array.make n 0)
        in
        (* Workers write only their own scratch and the half-edges of
           their own components; spans are untouched off the coordinating
           domain. The commit fold runs in task order, and the workers
           are parked team members — no domains are spawned here. *)
        Pool.prewarm pool;
        Pool.map_commit pool ~tasks:components
          ~work:(fun ~worker ~index:_ component ->
            solve_component dists.(worker) queues.(worker) component)
          ~commit:(fun ~index:_ g -> if g > !max_gather then max_gather := g);
        (* Under pooling the proof invariant is checked once after the
           whole phase: mid-phase checks would observe other components'
           concurrent progress. *)
        assert_partial labeling "gather-solve(T_R)"
      end;
      Round_cost.charge cost "gather-solve(T_R)" !max_gather);
  { labeling; cost; rc; k }
