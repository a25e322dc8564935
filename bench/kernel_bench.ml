(* B1-B5: wall-clock microbenchmarks of the computational kernels
   (Bechamel). The paper's metric is LOCAL rounds (covered by E1-E12);
   these benchmarks track the simulator's own throughput so regressions
   in the implementation are visible. *)

open Bechamel
open Toolkit

module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Labeling = Tl_problems.Labeling

let n = 10_000

let tree = lazy (Gen.random_tree ~n ~seed:71)
let union = lazy (Gen.forest_union ~n ~arboricity:2 ~seed:73)
let ids = lazy (Ids.permuted ~n ~seed:79)

let b1_rake_compress () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  ignore (Tl_decompose.Rake_compress.run tree ~k:4 ~ids)

let b2_arb_decompose () =
  let g = Lazy.force union and ids = Lazy.force ids in
  ignore (Tl_decompose.Arb_decompose.run g ~a:2 ~k:10 ~ids)

let b3_cv_coloring () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  let parent = Tl_graph.Tree.parents_forest tree in
  ignore
    (Tl_symmetry.Cole_vishkin.color3 ~nodes:(List.init n Fun.id) ~parent ~ids)

let b4_base_coloring () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  let sg = Semi_graph.of_graph tree in
  let labeling = Labeling.create tree in
  ignore (Tl_symmetry.Algos.deg_plus_one_coloring sg ~ids labeling)

let b5_theorem1_mis () =
  let tree = Lazy.force tree and ids = Lazy.force ids in
  ignore (Tl_core.Pipeline.mis_on_tree ~tree ~ids ())

let tests =
  Test.make_grouped ~name:"kernels"
    [
      Test.make ~name:"B1 rake-and-compress 10k" (Staged.stage b1_rake_compress);
      Test.make ~name:"B2 algorithm-3 10k a=2" (Staged.stage b2_arb_decompose);
      Test.make ~name:"B3 CV 3-coloring 10k" (Staged.stage b3_cv_coloring);
      Test.make ~name:"B4 base (deg+1)-coloring 10k" (Staged.stage b4_base_coloring);
      Test.make ~name:"B5 theorem-1 MIS pipeline 10k" (Staged.stage b5_theorem1_mis);
    ]

(* ---------- B6: engine stepping comparison (emits BENCH_engine.json) ----------

   Times the same LOCAL kernels under the three engine steppers — the
   legacy naive full-scan reference, the compiled-topology active-set
   scheduler, and the Domain-parallel variant — on a >= 100k-node random
   tree, asserts the results are bit-identical across modes, and writes
   the measurements as BENCH_engine.json in the working directory.
   Instance size is overridable via TL_ENGINE_BENCH_N (CI smoke). *)

module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Trace = Tl_engine.Trace
module CV = Tl_symmetry.Cole_vishkin

let engine_bench_n () =
  match Sys.getenv_opt "TL_ENGINE_BENCH_N" with
  | Some s -> (
    match int_of_string_opt s with Some n when n > 0 -> n | _ -> 100_000)
  | None -> 100_000

type mode_result = {
  mode : string;
  domains : int;  (* domains the mode actually runs on, not host cores *)
  wall_s : float;
  rounds : int;
  steps : int;
  ok : bool;  (* bit-identical to the naive reference *)
}

let mode_domains = function
  | Engine.Naive | Engine.Seq | Engine.Shard _ | Engine.Proc _ -> 1
  | Engine.Par p -> p

(* Run [f], capturing total step executions through a trace subscription. *)
let timed_with_steps f =
  let traces = ref [] in
  let sub = Tl_engine.Driver.subscribe (fun t -> traces := t :: !traces) in
  Fun.protect
    ~finally:(fun () -> Tl_engine.Driver.unsubscribe sub)
    (fun () ->
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      let steps =
        List.fold_left
          (fun acc t -> acc + (Trace.metrics t).Trace.steps)
          0 !traces
      in
      (r, dt, steps))

(* Best-of-[reps] timing; result and rounds are deterministic across reps. *)
let bench_mode ~reps ~mode f =
  let best = ref infinity and result = ref None and steps = ref 0 in
  for _ = 1 to reps do
    let r, dt, st = timed_with_steps (fun () -> f mode) in
    if dt < !best then best := dt;
    steps := st;
    result := Some r
  done;
  (Option.get !result, !best, !steps)

let engine_modes = [ Engine.Naive; Engine.Seq; Engine.Par 2; Engine.Par 4 ]

let run_kernel ~name ~reps f =
  let naive_r, naive_t, naive_steps = bench_mode ~reps ~mode:Engine.Naive f in
  let results =
    { mode = "naive"; domains = 1; wall_s = naive_t; rounds = snd naive_r;
      steps = naive_steps; ok = true }
    :: List.filter_map
         (fun mode ->
           if mode = Engine.Naive then None
           else begin
             let r, t, st = bench_mode ~reps ~mode f in
             Some
               {
                 mode = Engine.mode_to_string mode;
                 domains = mode_domains mode;
                 wall_s = t;
                 rounds = snd r;
                 steps = st;
                 ok = r = naive_r;
               }
           end)
         engine_modes
  in
  (name, results)

let emit_engine_json ~file ~n ~seed kernels =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\"bench\":\"engine\",\"family\":\"random-tree\",\"n\":%d,\"seed\":%d,\
     \"cores\":%d,\"kernels\":[" n seed
    (Domain.recommended_domain_count ());
  List.iteri
    (fun i (name, results) ->
      if i > 0 then Buffer.add_char b ',';
      let naive_t =
        List.find (fun r -> r.mode = "naive") results |> fun r -> r.wall_s
      in
      Printf.bprintf b
        "\n {\"kernel\":\"%s\",\"deterministic\":%b,\"modes\":[" name
        (List.for_all (fun r -> r.ok) results);
      List.iteri
        (fun j r ->
          if j > 0 then Buffer.add_char b ',';
          Printf.bprintf b
            "\n  {\"mode\":\"%s\",\"domains\":%d,\"wall_s\":%.6f,\"rounds\":%d,\
             \"steps\":%d,\"speedup_vs_naive\":%.3f}"
            r.mode r.domains r.wall_s r.rounds r.steps
            (if r.wall_s > 0. then naive_t /. r.wall_s else 0.))
        results;
      Buffer.add_string b "]}")
    kernels;
  Buffer.add_string b "]}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents b);
  close_out oc

let run_engine () =
  let n = engine_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B6: engine stepping — naive vs active-set vs parallel (n=%d)" n)
  ;
  let tree = Gen.random_tree ~n ~seed in
  let sg = Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  let ids = Ids.permuted ~n ~seed:(seed + 8) in
  (* CV 3-coloring: the repo's log*-round workhorse, executed as a state
     machine on the engine in its default mode. *)
  let parent = Tl_graph.Tree.parents_forest tree in
  let nodes = List.init n Fun.id in
  let cv3 mode =
    Engine.with_knobs ~mode (fun () ->
        CV.color3_runtime ~sg ~nodes ~parent ~ids)
  in
  (* Flooding to a fixed point: diameter-many rounds with a shrinking
     frontier — the active-set scheduler's best case. *)
  let flood mode =
    let o =
      Engine.run_until_stable ~mode ~topo
        ~init:(fun v -> v = 0)
        ~step:(fun ~round:_ ~node:_ s ~neighbors ->
          s || List.exists (fun (_, _, su) -> su) neighbors)
        ~equal:Bool.equal ~max_rounds:(n + 1) ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  (* Greedy MIS by local id maximum: 0 undecided, 1 in, 2 out; decided
     regions go quiet while undecided chains keep stepping. *)
  let mis mode =
    let step ~round:_ ~node:v s ~neighbors =
      if s <> 0 then s
      else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
      else if
        List.for_all (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v)) neighbors
      then 1
      else 0
    in
    let o =
      Engine.run ~mode ~topo
        ~init:(fun _ -> 0)
        ~step
        ~halted:(fun s -> s <> 0)
        ~max_rounds:(n + 1) ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  let kernels =
    match Sys.getenv_opt "TL_ENGINE_BENCH_KERNELS" with
    | Some "cv3" -> [ run_kernel ~name:"cv3" ~reps:3 cv3 ]
    | _ ->
      [
        run_kernel ~name:"cv3" ~reps:3 cv3;
        run_kernel ~name:"flood" ~reps:1 flood;
        run_kernel ~name:"mis-local-max" ~reps:3 mis;
      ]
  in
  let rows =
    List.concat_map
      (fun (name, results) ->
        let naive_t =
          (List.find (fun r -> r.mode = "naive") results).wall_s
        in
        List.map
          (fun r ->
            [
              name;
              r.mode;
              Util.i r.rounds;
              Util.i r.steps;
              Printf.sprintf "%.4f" r.wall_s;
              Printf.sprintf "%.2fx"
                (if r.wall_s > 0. then naive_t /. r.wall_s else 0.);
              Util.pass_fail r.ok;
            ])
          results)
      kernels
  in
  Util.table
    ~header:
      [ "kernel"; "mode"; "rounds"; "steps"; "wall s"; "vs naive"; "identical" ]
    rows;
  let active_beats_naive =
    List.for_all
      (fun (name, results) ->
        let t m = (List.find (fun r -> r.mode = m) results).wall_s in
        name <> "cv3" || t "seq" < t "naive")
      kernels
  in
  Printf.printf "\nactive-set faster than naive on cv3: %s\n"
    (Util.pass_fail active_beats_naive);
  emit_engine_json ~file:"BENCH_engine.json" ~n ~seed kernels;
  Printf.printf "wrote BENCH_engine.json\n"

(* ---------- B7: component-solve pool (merges into BENCH_engine.json) ----------

   Times the sequential vs pooled Theorem 12 / Theorem 15 executions —
   the per-component gather-solve and the per-star Π* solving fanned
   over OCaml domains — and merges the measurements into
   BENCH_engine.json (same schema as B6, so bench/regress.exe gates
   both). Pool widths beyond the host's core count measure the pool's
   overhead honestly rather than a speedup. Sizes are overridable via
   TL_POOL_BENCH_N (CI smoke runs one small size; its kernel index 0
   still aligns with the committed baseline's first size). *)

module Graph = Tl_graph.Graph
module Json = Tl_obs.Json
module Theorem1 = Tl_core.Theorem1
module Theorem2 = Tl_core.Theorem2

let pool_sizes () =
  match Option.bind (Sys.getenv_opt "TL_POOL_BENCH_N") int_of_string_opt with
  | Some n when n > 0 -> [ n ]
  | _ -> [ 100_000; 500_000; 1_000_000 ]

let pool_widths = [ 1; 2; 4 ]

type pool_row = {
  width : int;
  pool_wall_s : float;
  total_rounds : int;
  identical : bool;  (* labeling bit-identical to the width-1 run *)
}

(* Best-of-[reps]; clears the topology compile cache before every run so
   each width starts cold and repeated runs don't pin big snapshots. *)
let bench_pool_widths ~reps ~run ~labels =
  let time w =
    let best = ref infinity and result = ref None in
    for _ = 1 to reps do
      Topology.clear_cache ();
      let t0 = Unix.gettimeofday () in
      let r = run w in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let (seq_labels, seq_rounds), seq_t = time 1 in
  { width = 1; pool_wall_s = seq_t; total_rounds = seq_rounds;
    identical = true }
  :: List.filter_map
       (fun w ->
         if w = 1 then None
         else begin
           let (l, rounds), t = time w in
           Some
             {
               width = w;
               pool_wall_s = t;
               total_rounds = rounds;
               identical = labels l = labels seq_labels;
             }
         end)
       pool_widths

let pool_kernel_json ~name ~n rows =
  let seq_t = (List.find (fun r -> r.width = 1) rows).pool_wall_s in
  Json.Obj
    [
      ("kernel", Json.Str name);
      ("n", Json.Num (float_of_int n));
      ("deterministic", Json.Bool (List.for_all (fun r -> r.identical) rows));
      ( "modes",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ( "mode",
                     Json.Str
                       (if r.width = 1 then "seq"
                        else Printf.sprintf "pool:%d" r.width) );
                   ("domains", Json.Num (float_of_int r.width));
                   ("wall_s", Json.Num r.pool_wall_s);
                   ("rounds", Json.Num (float_of_int r.total_rounds));
                   ( "speedup_vs_seq",
                     Json.Num
                       (if r.pool_wall_s > 0. then seq_t /. r.pool_wall_s
                        else 0.) );
                 ])
             rows) );
    ]

(* Rewrite [file] with [kernels] merged in: existing kernels keep their
   place, same-named ones are replaced. A missing or unreadable file
   degrades to a fresh header. *)
let merge_into_engine_json ~file kernels =
  let fresh =
    [
      ("bench", Json.Str "engine");
      ( "cores",
        Json.Num (float_of_int (Domain.recommended_domain_count ())) );
    ]
  in
  let base_fields =
    if Sys.file_exists file then
      match Json.parse_file file with
      | Json.Obj fields -> fields
      | _ -> fresh
      | exception _ -> fresh
    else fresh
  in
  let new_names =
    List.filter_map
      (fun k -> Option.bind (Json.member "kernel" k) Json.to_str)
      kernels
  in
  let kept =
    Option.bind (List.assoc_opt "kernels" base_fields) Json.to_list
    |> Option.value ~default:[]
    |> List.filter (fun k ->
           match Option.bind (Json.member "kernel" k) Json.to_str with
           | Some name -> not (List.mem name new_names)
           | None -> true)
  in
  let fields =
    List.remove_assoc "kernels" base_fields
    @ [ ("kernels", Json.Arr (kept @ kernels)) ]
  in
  let oc = open_out file in
  output_string oc (Json.to_string (Json.Obj fields));
  output_char oc '\n';
  close_out oc

let run_pool () =
  let sizes = pool_sizes () in
  Util.heading
    (Printf.sprintf
       "B7: component-solve pool — sequential vs pooled Theorem 12/15 (n in \
        {%s}, host cores %d)"
       (String.concat ", " (List.map string_of_int sizes))
       (Domain.recommended_domain_count ()));
  let mis_spec =
    {
      Theorem1.problem = Tl_problems.Mis.problem;
      base_algorithm = Tl_symmetry.Algos.mis;
      solve_edge_list = Tl_problems.Mis.solve_edge_list;
    }
  in
  let matching_spec =
    {
      Theorem2.problem = Tl_problems.Matching.problem;
      base_algorithm = Tl_symmetry.Algos.maximal_matching;
      solve_node_list = Tl_problems.Matching.solve_node_list;
    }
  in
  let labels g l = List.init (Graph.n_half_edges g) (Labeling.get l) in
  let kernels =
    List.concat
      (List.mapi
         (fun i n ->
           let reps = if n >= 500_000 then 1 else 2 in
           let ids = Ids.permuted ~n ~seed:79 in
           let tree = Gen.random_tree ~n ~seed:71 in
           let t1_rows =
             bench_pool_widths ~reps
               ~run:(fun w ->
                 let r =
                   Engine.with_knobs ~workers:w (fun () ->
                       Theorem1.run ~spec:mis_spec ~tree ~ids
                         ~f:Tl_core.Complexity.f_linear ())
                 in
                 (r.Theorem1.labeling, Tl_local.Round_cost.total r.Theorem1.cost))
               ~labels:(labels tree)
           in
           let graph = Gen.forest_union ~n ~arboricity:2 ~seed:73 in
           let t2_rows =
             bench_pool_widths ~reps
               ~run:(fun w ->
                 let r =
                   Engine.with_knobs ~workers:w (fun () ->
                       Theorem2.run ~spec:matching_spec ~graph ~a:2 ~ids
                         ~f:Tl_core.Complexity.f_linear ())
                 in
                 (r.Theorem2.labeling, Tl_local.Round_cost.total r.Theorem2.cost))
               ~labels:(labels graph)
           in
           [
             (Printf.sprintf "t1-mis-pool.%d" i, n, t1_rows);
             (Printf.sprintf "t2-matching-pool.%d" i, n, t2_rows);
           ])
         sizes)
  in
  let rows =
    List.concat_map
      (fun (name, n, rows) ->
        let seq_t = (List.find (fun r -> r.width = 1) rows).pool_wall_s in
        List.map
          (fun r ->
            [
              name;
              Util.i n;
              (if r.width = 1 then "seq" else Printf.sprintf "pool:%d" r.width);
              Util.i r.total_rounds;
              Printf.sprintf "%.4f" r.pool_wall_s;
              Printf.sprintf "%.2fx"
                (if r.pool_wall_s > 0. then seq_t /. r.pool_wall_s else 0.);
              Util.pass_fail r.identical;
            ])
          rows)
      kernels
  in
  Util.table
    ~header:[ "kernel"; "n"; "mode"; "rounds"; "wall s"; "vs seq"; "identical" ]
    rows;
  let hits, misses = Topology.cache_stats () in
  Printf.printf "\ntopology compile cache over this process: %d hit(s), %d miss(es)\n"
    hits misses;
  merge_into_engine_json ~file:"BENCH_engine.json"
    (List.map (fun (name, n, rows) -> pool_kernel_json ~name ~n rows) kernels);
  Printf.printf "merged %d pool kernels into BENCH_engine.json\n"
    (List.length kernels)

(* ---------- B8: sharded halo-exchange backend (merges into BENCH_engine.json) ----------

   Times the sequential stepper against the tl_shard halo-exchange
   backend (shard counts 2/4/8) on three kernels: flooding to a fixed
   point (active-set), the full Theorem 12 MIS pipeline, and a
   fixed-round full-scan max-id sweep — the memory-bound shape where
   the compact per-shard arrays pay off. The pool width is pinned to 1
   so the comparison isolates the cache-blocking effect of sharding
   from domain parallelism (the qcheck battery already proves
   shard x pool bit-identical). Results merge into BENCH_engine.json
   (same schema as B6/B7, so bench/regress.exe gates all three). Sizes
   are overridable via TL_SHARD_BENCH_N (CI smoke runs one small size;
   its kernel index 0 still aligns with the committed baseline's first
   size). *)

module Pool = Tl_engine.Pool
module Shard_plan = Tl_shard.Plan

let shard_sizes () =
  match Option.bind (Sys.getenv_opt "TL_SHARD_BENCH_N") int_of_string_opt with
  | Some n when n > 0 -> [ n ]
  | _ -> [ 250_000; 1_000_000 ]

let shard_modes = [ Engine.Seq; Engine.Shard 2; Engine.Shard 4; Engine.Shard 8 ]

(* Best-of-[reps] with the pool width pinned to 1 and both the
   shard-plan and topology compile caches cleared before every run, so
   each mode pays its own (re)build cold. The pre-rep compaction keeps
   the measurement honest: plan + per-shard context building allocates
   many large arrays, which crawl through a fragmented major heap left
   behind by whatever ran before (earlier kernels, earlier
   experiments) — untimed defragmentation removes that noise. *)
let bench_shard_mode ~reps ~mode f =
  let saved = !Pool.default_workers in
  Pool.default_workers := 1;
  Fun.protect
    ~finally:(fun () -> Pool.default_workers := saved)
    (fun () ->
      let best = ref infinity and result = ref None and steps = ref 0 in
      for _ = 1 to reps do
        Shard_plan.clear_cache ();
        Topology.clear_cache ();
        Gc.compact ();
        let r, dt, st = timed_with_steps (fun () -> f mode) in
        if dt < !best then best := dt;
        steps := st;
        result := Some r
      done;
      (Option.get !result, !best, !steps))

let run_shard_kernel ~reps f =
  let seq_r, seq_t, seq_steps = bench_shard_mode ~reps ~mode:Engine.Seq f in
  { mode = "seq"; domains = 1; wall_s = seq_t; rounds = snd seq_r;
    steps = seq_steps; ok = true }
  :: List.filter_map
       (fun mode ->
         if mode = Engine.Seq then None
         else begin
           let r, t, st = bench_shard_mode ~reps ~mode f in
           Some
             {
               mode = Engine.mode_to_string mode;
               domains = 1;
               wall_s = t;
               rounds = snd r;
               steps = st;
               ok = r = seq_r;
             }
         end)
       shard_modes

let shard_kernel_json ~name ~n results =
  let seq_t = (List.find (fun r -> r.mode = "seq") results).wall_s in
  Json.Obj
    [
      ("kernel", Json.Str name);
      ("n", Json.Num (float_of_int n));
      ("deterministic", Json.Bool (List.for_all (fun r -> r.ok) results));
      ( "modes",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("mode", Json.Str r.mode);
                   ("domains", Json.Num (float_of_int r.domains));
                   ("wall_s", Json.Num r.wall_s);
                   ("rounds", Json.Num (float_of_int r.rounds));
                   ("steps", Json.Num (float_of_int r.steps));
                   ( "speedup_vs_seq",
                     Json.Num
                       (if r.wall_s > 0. then seq_t /. r.wall_s else 0.) );
                 ])
             results) );
    ]

let run_shard () =
  let sizes = shard_sizes () in
  Util.heading
    (Printf.sprintf
       "B8: sharded halo-exchange backend — seq vs shard:{2,4,8} (n in {%s}, \
        pool=1)"
       (String.concat ", " (List.map string_of_int sizes)));
  let mis_spec =
    {
      Theorem1.problem = Tl_problems.Mis.problem;
      base_algorithm = Tl_symmetry.Algos.mis;
      solve_edge_list = Tl_problems.Mis.solve_edge_list;
    }
  in
  let kernels =
    List.concat
      (List.mapi
         (fun i n ->
           let reps = if n >= 500_000 then 1 else 2 in
           let seed = 71 in
           let tree = Gen.random_tree ~n ~seed in
           let sg = Semi_graph.of_graph tree in
           let topo = Topology.compile sg in
           let ids = Ids.permuted ~n ~seed:79 in
           (* Flooding to a fixed point: shrinking frontier, Active_set. *)
           let flood mode =
             let o =
               Engine.run_until_stable ~mode ~topo
                 ~init:(fun v -> v = 0)
                 ~step:(fun ~round:_ ~node:_ s ~neighbors ->
                   s || List.exists (fun (_, _, su) -> su) neighbors)
                 ~equal:Bool.equal ~max_rounds:(n + 1) ()
             in
             (o.Engine.states, o.Engine.rounds)
           in
           (* The whole Theorem 12 MIS pipeline through the engine knob. *)
           let t1mis mode =
             let r =
               Engine.with_knobs ~mode ~workers:1 (fun () ->
                   Theorem1.run ~spec:mis_spec ~tree ~ids
                     ~f:Tl_core.Complexity.f_linear ())
             in
             ( List.init (Graph.n_half_edges tree)
                 (Labeling.get r.Theorem1.labeling),
               Tl_local.Round_cost.total r.Theorem1.cost )
           in
           (* Fixed-round full-scan max-id sweep: every round touches
              every node and gathers every neighbor — the memory-bound
              reference where working-set size dominates. *)
           let maxprop mode =
             let o =
               Engine.run_rounds ~mode ~sched:Engine.Full_scan
                 ~equal:Int.equal ~topo
                 ~init:(fun v -> ids.(v))
                 ~step:(fun ~round:_ ~node:_ s ~neighbors ->
                   List.fold_left
                     (fun m (_, _, su) -> if su > m then su else m)
                     s neighbors)
                 ~rounds:24 ()
             in
             (o.Engine.states, o.Engine.rounds)
           in
           (* Mostly-hidden snapshot, the shape of a late rake-compress
              layer: a path with all but ~1% of the base nodes hidden,
              stepped under Active_set with an always-changing sum rule
              so every round's frontier is dense. The monolithic
              stepper's dense-frontier rebuild scans its O(n_base)
              dirty array every round; the shards scan their compact
              O(n_owned) bitmaps — the working-set gap this backend
              exists to close. *)
           let n_visible = max 64 (n / 100) in
           let sparse_sg = Semi_graph.of_graph (Gen.path n) in
           for v = n_visible to n - 1 do
             Semi_graph.hide_node sparse_sg v
           done;
           let sparse_topo = Topology.compile sparse_sg in
           let sparse_sum mode =
             let o =
               Engine.run_rounds ~mode ~equal:Int.equal ~topo:sparse_topo
                 ~init:(fun v -> ids.(v))
                 ~step:(fun ~round:_ ~node:_ s ~neighbors ->
                   List.fold_left (fun acc (_, _, su) -> acc + su) (s + 1)
                     neighbors)
                 ~rounds:96 ()
             in
             (o.Engine.states, o.Engine.rounds)
           in
           [
             (Printf.sprintf "shard-flood.%d" i, n,
              run_shard_kernel ~reps flood);
             (Printf.sprintf "shard-t1mis.%d" i, n,
              run_shard_kernel ~reps t1mis);
             (Printf.sprintf "shard-maxprop.%d" i, n,
              run_shard_kernel ~reps maxprop);
             (Printf.sprintf "shard-sparse-sum.%d" i, n,
              run_shard_kernel ~reps sparse_sum);
           ])
         sizes)
  in
  let rows =
    List.concat_map
      (fun (name, n, results) ->
        let seq_t = (List.find (fun r -> r.mode = "seq") results).wall_s in
        List.map
          (fun r ->
            [
              name;
              Util.i n;
              r.mode;
              Util.i r.rounds;
              Printf.sprintf "%.4f" r.wall_s;
              Printf.sprintf "%.2fx"
                (if r.wall_s > 0. then seq_t /. r.wall_s else 0.);
              Util.pass_fail r.ok;
            ])
          results)
      kernels
  in
  Util.table
    ~header:[ "kernel"; "n"; "mode"; "rounds"; "wall s"; "vs seq"; "identical" ]
    rows;
  let best =
    List.fold_left
      (fun acc (_, _, results) ->
        let seq_t = (List.find (fun r -> r.mode = "seq") results).wall_s in
        List.fold_left
          (fun acc r ->
            if r.mode = "seq" || r.wall_s <= 0. then acc
            else max acc (seq_t /. r.wall_s))
          acc results)
      0. kernels
  in
  Printf.printf "\nbest shard speedup over seq: %.2fx — >= 1.5x on some kernel: %s\n"
    best
    (Util.pass_fail (best >= 1.5));
  merge_into_engine_json ~file:"BENCH_engine.json"
    (List.map (fun (name, n, results) -> shard_kernel_json ~name ~n results)
       kernels);
  Printf.printf "merged %d shard kernels into BENCH_engine.json\n"
    (List.length kernels)

(* ---------- B10: tl_metrics overhead (merges into BENCH_engine.json) ----------

   Measures what the live metrics registry costs on the hottest loop we
   have: the flood kernel under the active-set engine, once with the
   registry disabled (the one-shot CLI default — engine/pool hooks
   uninstalled, every shard-layer guard a single relaxed Atomic read)
   and once with Tl_obs.Metrics.enable () installed, which also turns on
   per-run trace collection feeding the engine_* counters and the
   engine_run_seconds histogram. Both best-of-reps wall clocks merge
   into BENCH_engine.json as kernel "metrics-overhead" (modes
   "metrics-off" / "metrics-on"), so bench/regress.exe gates the
   instrumentation cost like any other kernel; the acceptance bar —
   metrics-on within 3% of metrics-off — is printed as its own check
   (with the regress absolute floor for smoke-sized runs). Size is
   overridable via TL_METRICS_BENCH_N (CI smoke). *)

module Metrics = Tl_obs.Metrics

let metrics_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_METRICS_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

let run_metrics () =
  let n = metrics_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B10: tl_metrics overhead — flood, registry off vs on (n=%d)" n);
  let tree = Gen.random_tree ~n ~seed in
  let sg = Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  let flood () =
    let o =
      Engine.run_until_stable ~mode:Engine.Seq ~topo
        ~init:(fun v -> v = 0)
        ~step:(fun ~round:_ ~node:_ s ~neighbors ->
          s || List.exists (fun (_, _, su) -> su) neighbors)
        ~equal:Bool.equal ~max_rounds:(n + 1) ()
    in
    (o.Engine.states, o.Engine.rounds)
  in
  let reps = if n >= 500_000 then 5 else 7 in
  (* One untimed warmup per arm, then interleaved off/on trials: each
     rep times the off arm and the on arm back to back, so page-cache
     state and machine-load drift land on both arms alike. (The old
     all-off-then-all-on ordering let whichever arm ran first absorb
     the cold start — "on" would occasionally beat "off" on run order
     alone.) *)
  Metrics.disable ();
  let off_r = ref (flood ()) in
  Metrics.enable ();
  let on_r = ref (flood ()) in
  Metrics.reset ();
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let best_off = ref infinity and best_on = ref infinity in
  for _ = 1 to reps do
    Metrics.disable ();
    let r, dt = time flood in
    if dt < !best_off then best_off := dt;
    off_r := r;
    Metrics.enable ();
    let r, dt = time flood in
    if dt < !best_on then best_on := dt;
    on_r := r
  done;
  let off_r = !off_r and on_r = !on_r in
  let off_t = !best_off and on_t = !best_on in
  let runs_seen = Metrics.counter_value (Metrics.counter "engine_runs_total") in
  let steps_seen =
    Metrics.counter_value (Metrics.counter "engine_steps_total")
  in
  Metrics.disable ();
  let identical = off_r = on_r in
  let overhead_pct =
    if off_t > 0. then 100. *. ((on_t -. off_t) /. off_t) else 0.
  in
  Util.table
    ~header:[ "mode"; "rounds"; "wall s"; "identical" ]
    [
      [ "metrics-off"; Util.i (snd off_r); Printf.sprintf "%.4f" off_t; "-" ];
      [
        "metrics-on"; Util.i (snd on_r); Printf.sprintf "%.4f" on_t;
        Util.pass_fail identical;
      ];
    ];
  Printf.printf "\nengine counters while enabled: runs=%d steps=%d (%s)\n"
    runs_seen steps_seen
    (Util.pass_fail (runs_seen = reps && steps_seen > 0));
  Printf.printf "metrics-on within 3%% of metrics-off: %s (%+.2f%%)\n"
    (Util.pass_fail (on_t <= off_t *. 1.03 || on_t <= off_t +. 0.005))
    overhead_pct;
  merge_into_engine_json ~file:"BENCH_engine.json"
    [
      Json.Obj
        [
          ("kernel", Json.Str "metrics-overhead");
          ("n", Json.Num (float_of_int n));
          ("deterministic", Json.Bool identical);
          ( "modes",
            Json.Arr
              (List.map
                 (fun (mode, t, rounds) ->
                   Json.Obj
                     [
                       ("mode", Json.Str mode);
                       ("domains", Json.Num 1.);
                       ("wall_s", Json.Num t);
                       ("rounds", Json.Num (float_of_int rounds));
                     ])
                 [
                   ("metrics-off", off_t, snd off_r);
                   ("metrics-on", on_t, snd on_r);
                 ]) );
        ];
    ];
  Printf.printf "merged metrics-overhead into BENCH_engine.json\n"

(* ---------- B11: flat slabs + domain team (merges into BENCH_engine.json) ----------

   Times flood and greedy MIS on the boxed active-set engine (Seq, the
   production reference) against the flat slab path — sequential and
   fanned over the persistent domain team — asserting the flat results
   bit-identical to the boxed ones. Also measures the flat hot path's
   minor-heap allocation per step on an untraced flat:seq run and
   merges it as its own pseudo-kernel row ("flat-alloc", wall_s =
   words/step): bench/regress.exe then gates allocation regressions
   through its existing absolute floor, no new tooling. Size is
   overridable via TL_FLAT_BENCH_N (CI smoke). *)

module Flat = Tl_engine.Flat

let flat_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_FLAT_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

(* Step count of one traced run of [f]; rounds and steps are
   deterministic per mode, so one extra run outside the timing loop. *)
let flat_steps_of f =
  let traces = ref [] in
  let sub = Tl_engine.Driver.subscribe (fun t -> traces := t :: !traces) in
  Fun.protect
    ~finally:(fun () -> Tl_engine.Driver.unsubscribe sub)
    (fun () ->
      ignore (f ());
      List.fold_left
        (fun acc t -> acc + (Trace.metrics t).Trace.steps)
        0 !traces)

(* One kernel's comparison rows: boxed Seq reference plus the flat path
   at par in {1, 2, 4}. [col_boxed] projects the boxed outcome to the
   (int column, rounds) pair the flat column is compared against.
   Trials are interleaved — each rep times the boxed arm then every
   flat arm back to back, after one untimed warmup apiece — so machine
   load drift lands on all arms alike (the same bias B10 corrects for;
   all-of-one-arm-then-the-next made ratios on a busy host a function
   of run order, not of the code). *)
let flat_kernel_rows ~reps ~run_boxed ~col_boxed ~run_flat_par =
  let pars = [| 1; 2; 4 |] in
  let warm_b = ref (run_boxed ()) in
  let warm_f = Array.map (fun par -> run_flat_par par) pars in
  let t_b = ref infinity in
  let t_f = Array.make (Array.length pars) infinity in
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  for _ = 1 to reps do
    let r, dt = time run_boxed in
    if dt < !t_b then t_b := dt;
    warm_b := r;
    Array.iteri
      (fun i par ->
        let r, dt = time (fun () -> run_flat_par par) in
        if dt < t_f.(i) then t_f.(i) <- dt;
        warm_f.(i) <- r)
      pars
  done;
  let steps_b = flat_steps_of run_boxed in
  let col_b, rounds_b = col_boxed !warm_b in
  let boxed_row =
    { mode = "seq"; domains = 1; wall_s = !t_b; rounds = rounds_b;
      steps = steps_b; ok = true }
  in
  let flat_rows =
    List.mapi
      (fun i par ->
        let o_f = warm_f.(i) in
        let steps_f = flat_steps_of (fun () -> run_flat_par par) in
        {
          mode =
            (if par <= 1 then "flat:seq" else Printf.sprintf "flat:par:%d" par);
          domains = (if par <= 1 then 1 else par);
          wall_s = t_f.(i);
          rounds = o_f.Flat.rounds;
          steps = steps_f;
          ok = Flat.column o_f ~slot:0 = col_b && o_f.Flat.rounds = rounds_b;
        })
      (Array.to_list pars)
  in
  boxed_row :: flat_rows

let flat_kernel_json ~name ~n rows =
  let seq_t = (List.find (fun r -> r.mode = "seq") rows).wall_s in
  Json.Obj
    [
      ("kernel", Json.Str name);
      ("n", Json.Num (float_of_int n));
      ("deterministic", Json.Bool (List.for_all (fun r -> r.ok) rows));
      ( "modes",
        Json.Arr
          (List.map
             (fun r ->
               Json.Obj
                 [
                   ("mode", Json.Str r.mode);
                   ("domains", Json.Num (float_of_int r.domains));
                   ("wall_s", Json.Num r.wall_s);
                   ("rounds", Json.Num (float_of_int r.rounds));
                   ("steps", Json.Num (float_of_int r.steps));
                   ( "speedup_vs_seq",
                     Json.Num (if r.wall_s > 0. then seq_t /. r.wall_s else 0.)
                   );
                 ])
             rows) );
    ]

let run_flat () =
  let n = flat_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B11: flat state slabs + persistent domain team — boxed seq vs flat \
        (n=%d)"
       n);
  let tree = Gen.random_tree ~n ~seed in
  let sg = Semi_graph.of_graph tree in
  let topo = Topology.compile sg in
  let ids = Ids.permuted ~n ~seed:(seed + 8) in
  (* best-of-5 even at full size: the arms are interleaved, so more reps
     buy more quiet-window samples for every arm at once *)
  let reps = 5 in
  let max_rounds = n + 1 in
  (* flood: boxed bool states vs flat slot-0 column *)
  let boxed_flood () =
    Engine.run_until_stable ~mode:Engine.Seq ~topo
      ~init:(fun v -> v = 0)
      ~step:(fun ~round:_ ~node:_ s ~neighbors ->
        s || List.exists (fun (_, _, su) -> su) neighbors)
      ~equal:Bool.equal ~max_rounds ()
  in
  let flood_kernel = Flat.Kernels.flood () in
  let flat_flood par =
    Flat.run_until_stable ~par ~topo ~kernel:flood_kernel ~max_rounds ()
  in
  (* greedy MIS by local id maximum: boxed int states vs flat column *)
  let boxed_mis () =
    Engine.run ~mode:Engine.Seq ~topo
      ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~node:v s ~neighbors ->
        if s <> 0 then s
        else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
        else if
          List.for_all
            (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v))
            neighbors
        then 1
        else 0)
      ~halted:(fun s -> s <> 0)
      ~max_rounds ()
  in
  let mis_kernel = Flat.Kernels.mis_local_max ~ids in
  let flat_mis par = Flat.run ~par ~topo ~kernel:mis_kernel ~max_rounds () in
  let kernels =
    [
      ( "flat-flood",
        flat_kernel_rows ~reps ~run_boxed:boxed_flood
          ~col_boxed:(fun o ->
            (Array.map Bool.to_int o.Engine.states, o.Engine.rounds))
          ~run_flat_par:flat_flood );
      ( "flat-mis",
        flat_kernel_rows ~reps ~run_boxed:boxed_mis
          ~col_boxed:(fun o -> (o.Engine.states, o.Engine.rounds))
          ~run_flat_par:flat_mis );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, rows) ->
        let seq_t = (List.find (fun r -> r.mode = "seq") rows).wall_s in
        List.map
          (fun r ->
            [
              name;
              r.mode;
              Util.i r.rounds;
              Util.i r.steps;
              Printf.sprintf "%.4f" r.wall_s;
              Printf.sprintf "%.2fx"
                (if r.wall_s > 0. then seq_t /. r.wall_s else 0.);
              Util.pass_fail r.ok;
            ])
          rows)
      kernels
  in
  Util.table
    ~header:
      [ "kernel"; "mode"; "rounds"; "steps"; "wall s"; "vs seq"; "identical" ]
    rows;
  (* acceptance: the flat path on the 4-wide team beats the boxed
     sequential engine by >= 1.6x on both kernels *)
  let speedup_ok =
    List.for_all
      (fun (_, rows) ->
        let t m = (List.find (fun r -> r.mode = m) rows).wall_s in
        t "flat:par:4" > 0. && t "seq" /. t "flat:par:4" >= 1.6)
      kernels
  in
  Printf.printf "\nflat:par:4 >= 1.6x over boxed seq on both kernels: %s\n"
    (Util.pass_fail speedup_ok);
  (* allocation per step on the untraced flat:seq hot path: the state
     slabs go straight to the major heap (>= 256 words), so the
     bracketed minor-words delta is the per-round bookkeeping budget —
     a handful of words for the whole run, orders of magnitude below
     one word per step. *)
  let flood_steps =
    let rows = List.assoc "flat-flood" kernels in
    (List.find (fun r -> r.mode = "flat:seq") rows).steps
  in
  ignore (flat_flood 1);
  let w0 = Gc.minor_words () in
  ignore (flat_flood 1);
  let w1 = Gc.minor_words () in
  let words_per_step =
    if flood_steps > 0 then (w1 -. w0) /. float_of_int flood_steps else 0.
  in
  Printf.printf "flat:seq minor words/step: %.6f over %d steps (%s)\n"
    words_per_step flood_steps
    (Util.pass_fail (words_per_step < 0.01));
  merge_into_engine_json ~file:"BENCH_engine.json"
    (List.map (fun (name, rows) -> flat_kernel_json ~name ~n rows) kernels
    @ [
        Json.Obj
          [
            ("kernel", Json.Str "flat-alloc");
            ("n", Json.Num (float_of_int n));
            ("deterministic", Json.Bool true);
            ( "modes",
              Json.Arr
                [
                  Json.Obj
                    [
                      ("mode", Json.Str "flat:seq");
                      ("domains", Json.Num 1.);
                      ("wall_s", Json.Num words_per_step);
                      ("rounds", Json.Num (float_of_int flood_steps));
                    ];
                ] );
          ];
      ]);
  Printf.printf "merged flat-flood / flat-mis / flat-alloc into BENCH_engine.json\n"

(* ---------- B12: process-parallel shard backend (merges into BENCH_engine.json) ----------

   Times the sequential stepper against the tl_proc backend — one shard
   per forked Unix process, halos over socketpairs in the tlp binary
   wire format — on flood and the greedy-MIS machine, with the in-process
   shard:4 backend (pool=1) as the cache-blocking control: the delta
   between shard:4 and proc:4 is what the processes add (isolation, the
   wire, per-worker minor heaps) minus what they cost (fork, frame
   traffic, coordinator barriers). The proc-flat rows run the flat
   int-slab executor inside each worker — the configuration the backend
   exists for. A "proc-alloc" pseudo-row records the scalar codec's
   minor words per put+get pair (wall_s = words/op, exactly 0 in steady
   state), so regress.exe gates allocation creep on the wire hot path
   through its absolute floor.

   CRITICAL ordering: every proc measurement runs before any mode that
   can spawn a domain (shard, par, pool) — OCaml 5 forbids fork once a
   domain has ever been spawned. For the same reason B12 skips itself
   with a note when domains already exist in this process (a full-suite
   `bench/main.exe` run after B6/B7): run it standalone, one process per
   experiment, as `make bench-full` and CI do. Size is overridable via
   TL_PROC_BENCH_N (CI smoke). *)

module Proc = Tl_proc.Coordinator
module Proc_wire = Tl_proc.Wire
module Team = Tl_engine.Team

let proc_bench_n () =
  match Option.bind (Sys.getenv_opt "TL_PROC_BENCH_N") int_of_string_opt with
  | Some n when n > 1 -> n
  | _ -> 1_000_000

(* Best-of-[reps] with the shard-plan and topology caches cleared before
   every run (each mode pays its plan build cold, fork and prologue
   shipping included) and an untimed pre-rep compaction, as in B8. *)
let bench_proc_arm ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    Shard_plan.clear_cache ();
    Topology.clear_cache ();
    Gc.compact ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let codec_words_per_op () =
  let b = Bytes.create 16 in
  Proc_wire.put_i64 b 0 42;
  ignore (Proc_wire.get_i64 b 0);
  let ops = 1_000_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to ops do
    Proc_wire.put_i64 b 0 (i * 1_000_003);
    if Proc_wire.get_i64 b 0 <> i * 1_000_003 then assert false
  done;
  let dw = Gc.minor_words () -. w0 in
  (* subtract nothing: the only allocation in the bracket is the
     Gc.minor_words float box itself, under one word per thousand ops *)
  (Float.max 0. (dw -. 8.) /. float_of_int ops, ops)

let run_proc () =
  let n = proc_bench_n () in
  let seed = 71 in
  Util.heading
    (Printf.sprintf
       "B12: process-parallel shard backend — seq vs shard:4 vs proc:{2,4} \
        over the tlp wire (n=%d)"
       n);
  if Team.spawns () > 0 then
    Printf.printf
      "domains already spawned in this process — fork is unavailable, \
       skipping B12\n\
       (run it standalone: dune exec bench/main.exe -- B12)\n"
  else begin
    let tree = Gen.random_tree ~n ~seed in
    let sg = Semi_graph.of_graph tree in
    let topo = Topology.compile sg in
    let ids = Ids.permuted ~n ~seed:79 in
    let max_rounds = n + 1 in
    let reps = if n >= 500_000 then 1 else 2 in
    let flood mode =
      let o =
        Engine.run_until_stable ~mode ~topo
          ~init:(fun v -> v = 0)
          ~step:(fun ~round:_ ~node:_ s ~neighbors ->
            s || List.exists (fun (_, _, su) -> su) neighbors)
          ~equal:Bool.equal ~max_rounds ()
      in
      (Array.map Bool.to_int o.Engine.states, o.Engine.rounds)
    in
    let mis mode =
      let o =
        Engine.run ~mode ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:v s ~neighbors ->
            if s <> 0 then s
            else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
            else if
              List.for_all
                (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v))
                neighbors
            then 1
            else 0)
          ~halted:(fun s -> s <> 0)
          ~max_rounds ()
      in
      (o.Engine.states, o.Engine.rounds)
    in
    let flat_flood procs () =
      let o =
        Proc.run_flat_until_stable ~procs ~topo
          ~kernel_for:(Proc.Kernels.flood ()) ~max_rounds ()
      in
      (Flat.column o ~slot:0, o.Flat.rounds)
    in
    let flat_mis procs () =
      let o =
        Proc.run_flat ~procs ~topo
          ~kernel_for:(Proc.Kernels.mis_local_max ~ids)
          ~max_rounds ()
      in
      (Flat.column o ~slot:0, o.Flat.rounds)
    in
    (* 1. every proc arm, before anything can spawn a domain *)
    let proc_arms kernel flat =
      List.map
        (fun (mode_name, f) -> (mode_name, bench_proc_arm ~reps f))
        [
          ("proc:2", fun () -> kernel (Engine.Proc 2));
          ("proc:4", fun () -> kernel (Engine.Proc 4));
          ("proc-flat:4", flat 4);
        ]
    in
    let flood_proc = proc_arms flood flat_flood in
    let mis_proc = proc_arms mis flat_mis in
    (* 2. the in-process references (seq, then shard:4 — the latter may
       spawn the domain team even at pool width 1) *)
    let flood_seq = bench_proc_arm ~reps (fun () -> flood Engine.Seq) in
    let mis_seq = bench_proc_arm ~reps (fun () -> mis Engine.Seq) in
    let shard_arm kernel =
      let saved = !Pool.default_workers in
      Pool.default_workers := 1;
      Fun.protect
        ~finally:(fun () -> Pool.default_workers := saved)
        (fun () -> bench_proc_arm ~reps (fun () -> kernel (Engine.Shard 4)))
    in
    let flood_shard = shard_arm flood in
    let mis_shard = shard_arm mis in
    let rows_of (seq_r, seq_t) shard arms =
      { mode = "seq"; domains = 1; wall_s = seq_t; rounds = snd seq_r;
        steps = 0; ok = true }
      :: (let r, t = shard in
          { mode = "shard:4"; domains = 1; wall_s = t; rounds = snd r;
            steps = 0; ok = r = seq_r })
      :: List.map
           (fun (mode, (r, t)) ->
             { mode; domains = 4; wall_s = t; rounds = snd r; steps = 0;
               ok = r = seq_r })
           arms
    in
    let kernels =
      [
        ("proc-flood.0", n, rows_of flood_seq flood_shard flood_proc);
        ("proc-mis.0", n, rows_of mis_seq mis_shard mis_proc);
      ]
    in
    let rows =
      List.concat_map
        (fun (name, n, results) ->
          let seq_t = (List.find (fun r -> r.mode = "seq") results).wall_s in
          List.map
            (fun r ->
              [
                name;
                Util.i n;
                r.mode;
                Util.i r.rounds;
                Printf.sprintf "%.4f" r.wall_s;
                Printf.sprintf "%.2fx"
                  (if r.wall_s > 0. then seq_t /. r.wall_s else 0.);
                Util.pass_fail r.ok;
              ])
            results)
        kernels
    in
    Util.table
      ~header:[ "kernel"; "n"; "mode"; "rounds"; "wall s"; "vs seq"; "identical" ]
      rows;
    let best =
      List.fold_left
        (fun acc (_, _, results) ->
          let seq_t = (List.find (fun r -> r.mode = "seq") results).wall_s in
          List.fold_left
            (fun acc r ->
              if String.length r.mode >= 4 && String.sub r.mode 0 4 = "proc"
                 && r.wall_s > 0.
              then max acc (seq_t /. r.wall_s)
              else acc)
            acc results)
        0. kernels
    in
    Printf.printf
      "\nbest proc arm over seq: %.2fx — proc backend >= 1.0x on flood or \
       MIS: %s\n"
      best
      (Util.pass_fail (best >= 1.0));
    let words_per_op, ops = codec_words_per_op () in
    Printf.printf "wire codec minor words/op: %.6f over %d ops (%s)\n"
      words_per_op ops
      (Util.pass_fail (words_per_op < 0.01));
    merge_into_engine_json ~file:"BENCH_engine.json"
      (List.map
         (fun (name, n, results) -> shard_kernel_json ~name ~n results)
         kernels
      @ [
          Json.Obj
            [
              ("kernel", Json.Str "proc-alloc");
              ("n", Json.Num (float_of_int n));
              ("deterministic", Json.Bool true);
              ( "modes",
                Json.Arr
                  [
                    Json.Obj
                      [
                        ("mode", Json.Str "codec");
                        ("domains", Json.Num 1.);
                        ("wall_s", Json.Num words_per_op);
                        ("rounds", Json.Num (float_of_int ops));
                      ];
                  ] );
            ];
        ]);
    Printf.printf
      "merged proc-flood / proc-mis / proc-alloc into BENCH_engine.json\n"
  end

let run () =
  Util.heading "B1-B5: kernel wall-clock microbenchmarks (Bechamel)";
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
      let ns =
        match Analyze.OLS.estimates est with
        | Some [ t ] -> t
        | _ -> Float.nan
      in
      rows := [ name; Printf.sprintf "%.3f ms" (ns /. 1e6) ] :: !rows)
    results;
  Util.table ~header:[ "kernel"; "time/run" ]
    (List.sort compare !rows)
