(* Tests for the execution engine: Topology compilation, differential
   equivalence of the Naive / Seq / Par steppers across graph families
   and machines, failure semantics, tracing, and the Runtime compile path. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Tree = Tl_graph.Tree
module Semi_graph = Tl_graph.Semi_graph
module Topology = Tl_engine.Topology
module Engine = Tl_engine.Engine
module Driver = Tl_engine.Driver
module Trace = Tl_engine.Trace
module Runtime = Tl_local.Runtime
module Round_cost = Tl_local.Round_cost
module Ids = Tl_local.Ids
module CV = Tl_symmetry.Cole_vishkin
module Linial = Tl_symmetry.Linial

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let modes = [ Engine.Naive; Engine.Seq; Engine.Par 2; Engine.Par 4 ]

(* Graph families exercised by the differential properties: random trees,
   forest unions (arboricity 2), stars (one huge hub) and
   preferential-attachment trees (skewed hubs). *)
let family ~n ~seed ~pick =
  let n = max 2 n in
  match pick mod 4 with
  | 0 -> Gen.random_tree ~n ~seed
  | 1 -> Gen.forest_union ~n ~arboricity:2 ~seed
  | 2 -> Gen.star n
  | _ -> Gen.power_law_tree ~n ~seed

(* ---------- machines ---------- *)

let flood_step ~round:_ ~node:_ s ~neighbors =
  s || List.exists (fun (_, _, su) -> su) neighbors

(* greedy MIS by local id maximum: 0 undecided / 1 in / 2 out *)
let mis_step ids ~round:_ ~node:v s ~neighbors =
  if s <> 0 then s
  else if List.exists (fun (_, _, su) -> su = 1) neighbors then 2
  else if List.for_all (fun (u, _, su) -> su <> 0 || ids.(u) < ids.(v)) neighbors
  then 1
  else 0

(* leaf peeling: a node peels once at most one neighbor is unpeeled *)
let peel_step ~round:_ ~node:_ s ~neighbors =
  s
  || List.length (List.filter (fun (_, _, su) -> not su) neighbors) <= 1

(* ---------- Topology vs Semi_graph ---------- *)

let topo_agrees sg =
  let topo = Topology.compile sg in
  Topology.n_present topo = Semi_graph.n_present_nodes sg
  && Topology.max_degree topo = Semi_graph.max_underlying_degree sg
  && List.for_all
       (fun v ->
         Topology.present topo v
         && List.init (Topology.degree topo v) (fun i ->
                let slot = topo.Topology.off.(v) + i in
                (topo.Topology.adj.(slot), topo.Topology.eid.(slot)))
            = Semi_graph.rank2_neighbors sg v
         && Topology.degree topo v
            = List.length (Semi_graph.rank2_neighbors sg v)
         && Topology.neighbor_nodes topo v
            = List.map fst (Semi_graph.rank2_neighbors sg v))
       (Semi_graph.nodes sg)

let prop_topology_matches_semigraph =
  QCheck.Test.make ~name:"Topology.compile agrees with rank2_neighbors"
    ~count:60
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      topo_agrees (Semi_graph.of_graph g))

let prop_topology_on_subsets =
  QCheck.Test.make ~name:"Topology.compile agrees on node subsets" ~count:40
    QCheck.(triple (int_range 3 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      (* drop every third node: absent nodes and their edges must vanish
         from the snapshot exactly like they do from the semi-graph *)
      let keep = Array.init (Graph.n_nodes g) (fun v -> v mod 3 <> 2) in
      topo_agrees (Semi_graph.of_node_subset g keep))

(* ---------- differential: all modes bit-identical ---------- *)

let outcomes_equal (a : 'a Engine.outcome) (b : 'a Engine.outcome) =
  a.Engine.rounds = b.Engine.rounds && a.Engine.states = b.Engine.states

let all_modes_agree run_in =
  let reference = run_in Engine.Naive in
  List.for_all (fun m -> outcomes_equal (run_in m) reference) modes

let prop_flood_differential =
  QCheck.Test.make ~name:"flood: modes and scheds bit-identical" ~count:50
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let run_in ?sched mode =
        Engine.run_until_stable ~mode ?sched ~topo
          ~init:(fun v -> v = 0)
          ~step:flood_step ~equal:Bool.equal
          ~max_rounds:(Graph.n_nodes g + 1)
          ()
      in
      all_modes_agree (fun m -> run_in m)
      && outcomes_equal
           (run_in ~sched:Engine.Full_scan Engine.Seq)
           (run_in Engine.Naive))

let prop_mis_differential =
  QCheck.Test.make ~name:"MIS machine: modes bit-identical" ~count:50
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      all_modes_agree (fun mode ->
          Engine.run ~mode ~topo
            ~init:(fun _ -> 0)
            ~step:(mis_step ids)
            ~halted:(fun s -> s <> 0)
            ~max_rounds:(n + 1) ()))

let prop_peel_differential =
  QCheck.Test.make ~name:"leaf peeling: modes bit-identical" ~count:50
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      all_modes_agree (fun mode ->
          Engine.run_until_stable ~mode ~topo
            ~init:(fun _ -> false)
            ~step:peel_step ~equal:Bool.equal
            ~max_rounds:(Graph.n_nodes g + 1)
            ()))

let prop_cv_differential =
  (* end to end through Runtime: CV 3-coloring is the repo's main
     engine-backed state machine *)
  QCheck.Test.make ~name:"CV 3-coloring: modes bit-identical via Runtime"
    ~count:30
    QCheck.(pair (int_range 2 120) (int_range 0 100000))
    (fun (n, seed) ->
      let g = Gen.random_tree ~n ~seed in
      let parent = Tree.parents_forest g in
      let ids = Ids.permuted ~n ~seed:(seed + 1) in
      let sg = Semi_graph.of_graph g in
      let nodes = List.init n Fun.id in
      let run_in mode =
        Engine.with_knobs ~mode (fun () ->
            CV.color3_runtime ~sg ~nodes ~parent ~ids)
      in
      let reference = run_in Engine.Naive in
      List.for_all (fun m -> run_in m = reference) modes)

let prop_run_rounds_differential =
  (* max-propagation for a fixed number of rounds; also checks that the
     engine keeps executing (and counting) after the machine goes quiet *)
  QCheck.Test.make ~name:"run_rounds: modes bit-identical, exact count"
    ~count:40
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 5) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 3 + (seed mod 5) in
      let run_in mode =
        Engine.run_rounds ~mode ~topo
          ~init:(fun v -> ids.(v))
          ~step:(fun ~round:_ ~node:_ s ~neighbors ->
            List.fold_left (fun acc (_, _, su) -> max acc su) s neighbors)
          ~rounds:r ()
      in
      let reference = run_in Engine.Naive in
      reference.Engine.rounds = r
      && List.for_all (fun m -> outcomes_equal (run_in m) reference) modes)

(* ---------- Runtime.compile + Engine (regression vs naive) ---------- *)

let named_families =
  [
    ("path", Gen.path 40);
    ("star", Gen.star 30);
    ("double-star", Gen.double_star 8 9);
    ("caterpillar", Gen.caterpillar ~spine:10 ~legs:3);
    ("random-tree", Gen.random_tree ~n:80 ~seed:11);
    ("forest-union", Gen.forest_union ~n:60 ~arboricity:2 ~seed:13);
    ("power-law-tree", Gen.power_law_tree ~n:70 ~seed:17);
  ]

(* The path every engine-backed algorithm takes: the cached compile,
   then the engine. *)
let runtime_run ?mode ?trace ~sg ~init ~step ~halted ~max_rounds () =
  let topo, compile_s, compile_cached = Runtime.compile sg in
  Engine.run ?mode ?trace ~compile_s ~compile_cached ~topo ~init ~step ~halted
    ~max_rounds ()

let test_compile_then_engine_matches_naive () =
  List.iter
    (fun (name, g) ->
      let sg = Semi_graph.of_graph g in
      let n = Graph.n_nodes g in
      let init v = v = 0 in
      let run ?mode () =
        runtime_run ?mode ~sg ~init ~step:flood_step
          ~halted:(fun s -> s)
          ~max_rounds:(n + 1) ()
      in
      let default = run () and naive = run ~mode:Engine.Naive () in
      check (name ^ ": run states match naive") true
        (default.Engine.states = naive.Engine.states);
      check_int (name ^ ": run rounds match naive") naive.Engine.rounds
        default.Engine.rounds;
      let stable ?mode () =
        let topo, compile_s, compile_cached = Runtime.compile sg in
        Engine.run_until_stable ?mode ~compile_s ~compile_cached ~topo ~init
          ~step:flood_step ~equal:Bool.equal ~max_rounds:(n + 1) ()
      in
      let default_s = stable () and naive_s = stable ~mode:Engine.Naive () in
      check (name ^ ": stable states match naive") true
        (default_s.Engine.states = naive_s.Engine.states);
      check_int
        (name ^ ": stable rounds match naive")
        naive_s.Engine.rounds default_s.Engine.rounds)
    named_families

(* ---------- Linial on the engine ---------- *)

let prop_linial_topo_equivalence =
  QCheck.Test.make ~name:"Linial.reduce_topo == Linial.reduce" ~count:30
    QCheck.(pair (int_range 2 120) (int_range 0 100000))
    (fun (n, seed) ->
      let g = family ~n ~seed ~pick:(seed mod 4) in
      let n = Graph.n_nodes g in
      let nodes = List.init n Fun.id in
      let ids = Ids.permuted ~n ~seed:(seed + 7) in
      let colors_a = Array.map (fun id -> id - 1) ids in
      let colors_b = Array.copy colors_a in
      let max_degree = Graph.max_degree g in
      let ra =
        Linial.reduce
          ~neighbors:(fun v -> Array.to_list (Graph.neighbors g v))
          ~nodes ~colors:colors_a ~palette:n ~max_degree
      in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let rb =
        Linial.reduce_topo ~topo ~nodes ~colors:colors_b ~palette:n ~max_degree
      in
      ra = rb && colors_a = colors_b)

(* ---------- failure semantics ---------- *)

let failure_message f =
  match f () with
  | exception Failure m -> Some m
  | _ -> None

let test_max_rounds_failure_parity () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 5)) in
  (* never halts, never changes: naive spins to max_rounds, the
     active-set stepper stalls — both must raise the same Failure *)
  let frozen mode () =
    Engine.run ~mode ~topo
      ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
      ~halted:(fun _ -> false)
      ~max_rounds:10 ()
  in
  let m_naive = failure_message (frozen Engine.Naive) in
  check "naive raises" true (m_naive <> None);
  List.iter
    (fun mode ->
      Alcotest.(check (option string))
        ("stall parity: " ^ Engine.mode_to_string mode)
        m_naive
        (failure_message (frozen mode)))
    modes;
  (* never stabilizes: every mode must exhaust max_rounds identically *)
  let blinker mode () =
    Engine.run_until_stable ~mode ~topo
      ~init:(fun _ -> false)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> not s)
      ~equal:Bool.equal ~max_rounds:7 ()
  in
  let m_naive = failure_message (blinker Engine.Naive) in
  check "naive blinker raises" true (m_naive <> None);
  List.iter
    (fun mode ->
      Alcotest.(check (option string))
        ("blinker parity: " ^ Engine.mode_to_string mode)
        m_naive
        (failure_message (blinker mode)))
    modes

let test_empty_present_set () =
  let g = Gen.path 4 in
  let sg = Semi_graph.of_node_subset g (Array.make 4 false) in
  let topo = Topology.compile sg in
  List.iter
    (fun mode ->
      let o =
        Engine.run ~mode ~topo
          ~init:(fun _ -> 0)
          ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s + 1)
          ~halted:(fun _ -> false)
          ~max_rounds:5 ()
      in
      check_int
        ("no present nodes costs 0 rounds: " ^ Engine.mode_to_string mode)
        0 o.Engine.rounds)
    modes

(* ---------- tracing and the ledger bridge ---------- *)

let test_trace_metrics () =
  let n = 64 in
  let g = Gen.random_tree ~n ~seed:23 in
  let sg = Semi_graph.of_graph g in
  let trace = Trace.create ~label:"test-flood" () in
  let o =
    runtime_run ~trace ~sg
      ~init:(fun v -> v = 0)
      ~step:flood_step
      ~halted:(fun s -> s)
      ~max_rounds:(n + 1) ()
  in
  let m = Trace.metrics trace in
  check_int "trace rounds = outcome rounds" o.Engine.rounds m.Trace.rounds;
  check_int "naive_steps = rounds * n" (o.Engine.rounds * n)
    m.Trace.naive_steps;
  check "active-set executed fewer steps" true (m.Trace.steps < m.Trace.naive_steps);
  check_int "steps = sum of per-round active"
    (List.fold_left (fun acc r -> acc + r.Trace.active) 0 (Trace.records trace))
    m.Trace.steps;
  check "max_active bounded by n" true (m.Trace.max_active <= n);
  let json = Trace.to_json trace in
  check "json carries the label" true
    (let needle = "\"label\":\"test-flood\"" in
     let rec find i =
       i + String.length needle <= String.length json
       && (String.sub json i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  (* ledger bridge: the measured engine rounds land in a named phase *)
  let ledger = Round_cost.create () in
  Runtime.charge_trace ledger trace;
  check_int "charge_trace adds engine:<label> phase" m.Trace.rounds
    (Round_cost.get ledger "engine:test-flood")

let test_trace_sink () =
  let got = ref [] in
  let sub = Driver.subscribe (fun t -> got := t :: !got) in
  Fun.protect
    ~finally:(fun () -> Driver.unsubscribe sub)
    (fun () ->
      let sg = Semi_graph.of_graph (Gen.path 12) in
      ignore
        (runtime_run ~sg
           ~init:(fun v -> v = 0)
           ~step:flood_step
           ~halted:(fun s -> s)
           ~max_rounds:20 ()));
  check_int "sink received exactly one trace" 1 (List.length !got);
  check "sink trace measured rounds" true
    ((Trace.metrics (List.hd !got)).Trace.rounds > 0)

let test_trace_zero_rounds () =
  (* a trace that never recorded a round: every metric must be defined,
     in particular naive_steps = 0 must not blow up step_savings in the
     JSON (it prints 0, not nan/inf) *)
  let tr = Trace.create ~label:"empty" () in
  Trace.set_meta tr ~mode:"seq" ~scheduling:"active-set" ~n_base:10
    ~n_present:0;
  Trace.finish tr ~total_s:0.0;
  let m = Trace.metrics tr in
  check_int "rounds" 0 m.Trace.rounds;
  check_int "steps" 0 m.Trace.steps;
  check_int "naive_steps" 0 m.Trace.naive_steps;
  check_int "max_active" 0 m.Trace.max_active;
  let j = Tl_obs.Json.parse (Trace.to_json tr) in
  let metrics = Option.get (Tl_obs.Json.member "metrics" j) in
  check "step_savings finite" true
    (Option.bind (Tl_obs.Json.member "step_savings" metrics) Tl_obs.Json.to_float
    = Some 0.);
  check "n_present 0 serialized" true
    (Option.bind (Tl_obs.Json.member "n_present" j) Tl_obs.Json.to_int = Some 0);
  check "empty rounds_detail" true
    (Option.bind (Tl_obs.Json.member "rounds_detail" j) Tl_obs.Json.to_list
    = Some [])

let test_trace_json_roundtrip () =
  (* rounds_detail through a real parser: tracked fields present,
     untracked (-1) fields omitted per the schema doc in trace.mli *)
  let tr = Trace.create ~label:"rt" () in
  Trace.set_meta tr ~mode:"naive" ~scheduling:"full-scan" ~n_base:4
    ~n_present:4;
  Trace.record tr
    { Trace.round = 1; active = 4; changed = 2; unhalted = 3; wall_s = 0.5 };
  Trace.record tr
    { Trace.round = 2; active = 3; changed = -1; unhalted = -1; wall_s = 0.25 };
  Trace.finish tr ~total_s:1.0;
  let open Tl_obs.Json in
  let j = parse (Trace.to_json tr) in
  let detail = Option.get (Option.bind (member "rounds_detail" j) to_list) in
  check_int "two detail rows" 2 (List.length detail);
  let r1 = List.nth detail 0 and r2 = List.nth detail 1 in
  check "r1 changed present" true
    (Option.bind (member "changed" r1) to_int = Some 2);
  check "r1 unhalted present" true
    (Option.bind (member "unhalted" r1) to_int = Some 3);
  check "r1 wall_s" true (Option.bind (member "wall_s" r1) to_float = Some 0.5);
  check "r2 changed omitted" true (member "changed" r2 = None);
  check "r2 unhalted omitted" true (member "unhalted" r2 = None);
  check "r2 active" true (Option.bind (member "active" r2) to_int = Some 3);
  check "label round-trips" true
    (Option.bind (member "label" j) to_str = Some "rt");
  (* the accessors added for the span bridge *)
  check "mode accessor" true (Trace.mode tr = "naive");
  check "scheduling accessor" true (Trace.scheduling tr = "full-scan");
  check_int "n_base accessor" 4 (Trace.n_base tr);
  check_int "n_present accessor" 4 (Trace.n_present tr)

(* ---------- mode parsing ---------- *)

(* The one scope for the process-wide knobs: both set inside [f], both
   restored on return and on raise, an omitted knob left untouched. *)
let test_with_knobs () =
  let mode0 = !Engine.default_mode
  and workers0 = !Tl_engine.Pool.default_workers in
  let ambient () = (!Engine.default_mode, !Tl_engine.Pool.default_workers) in
  let inside =
    Engine.with_knobs ~mode:(Engine.Par 3) ~workers:(workers0 + 2) ambient
  in
  check "both knobs set inside" true (inside = (Engine.Par 3, workers0 + 2));
  check "both restored on return" true (ambient () = (mode0, workers0));
  (try
     Engine.with_knobs ~mode:(Engine.Shard 2) ~workers:(workers0 + 1)
       (fun () -> failwith "boom")
   with Failure _ -> ());
  check "both restored on raise" true (ambient () = (mode0, workers0));
  check "omitted workers untouched" true
    (Engine.with_knobs ~mode:Engine.Naive ambient = (Engine.Naive, workers0));
  check "omitted mode untouched" true
    (Engine.with_knobs ~workers:(workers0 + 3) ambient
    = (mode0, workers0 + 3));
  check "restored after partial scopes" true (ambient () = (mode0, workers0))

let test_mode_strings () =
  List.iter
    (fun m ->
      check
        ("round-trip " ^ Engine.mode_to_string m)
        true
        (Engine.mode_of_string (Engine.mode_to_string m) = m))
    [ Engine.Naive; Engine.Seq; Engine.Par 2; Engine.Par 16 ];
  List.iter
    (fun s ->
      check ("rejects " ^ s) true
        (match Engine.mode_of_string s with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      "par:0";
      "par:x";
      "threads";
      "";
      "shard:0";
      "par:+2" (* int_of_string would take it; digits-only must not *);
      " seq";
      "seq ";
      "par: 2";
      "par:2 ";
      "par:99999999999999999999" (* out of int range *);
    ];
  (* rejection messages name the offending input — callers surface them
     verbatim as usage errors *)
  (match Engine.mode_of_string "par:0" with
  | exception Invalid_argument msg ->
    check "par:0 message names the input" true
      (let rec find i =
         i + 7 <= String.length msg
         && (String.sub msg i 7 = "\"par:0\"" || find (i + 1))
       in
       find 0)
  | _ -> Alcotest.fail "par:0 must be rejected")

(* ---------- Pool ---------- *)

module Pool = Tl_engine.Pool

let test_pool_create () =
  let rejects label w =
    match Pool.create ~workers:w () with
    | exception Invalid_argument msg ->
      check label true
        (String.length msg > 0
        && String.sub msg 0 (min 11 (String.length msg)) = "Pool.create")
    | pool ->
      Alcotest.fail
        (Printf.sprintf "expected Invalid_argument on %d workers, got %d" w
           (Pool.workers pool))
  in
  rejects "rejects 0 workers" 0;
  rejects "rejects negative workers" (-3);
  (* 65+ used to be silently clamped to 64 — a typo'd --pool 640 ran at
     64 workers with plausible timings; now it is an explicit error *)
  rejects "rejects 65 workers" 65;
  rejects "rejects 1000 workers" 1000;
  check_int "64 workers accepted" 64 (Pool.workers (Pool.create ~workers:64 ()));
  let saved = !Pool.default_workers in
  Pool.default_workers := 5;
  check_int "create () reads default_workers" 5 (Pool.workers (Pool.create ()));
  Pool.default_workers := saved

let test_pool_map_deterministic () =
  let tasks = Array.init 37 (fun i -> i) in
  let expected = Array.map (fun x -> x * x) tasks in
  List.iter
    (fun w ->
      let pool = Pool.create ~workers:w () in
      let got = Pool.map pool ~tasks ~f:(fun ~worker:_ ~index:_ x -> x * x) in
      check (Printf.sprintf "map result workers=%d" w) true (got = expected))
    [ 1; 2; 3; 4; 7; 64 ]

let test_pool_chunking () =
  (* fixed contiguous chunking: task i runs on worker i / ceil(n/p),
     independent of scheduling *)
  let n = 10 and p = 3 in
  let tasks = Array.init n (fun i -> i) in
  let pool = Pool.create ~workers:p () in
  let owners = Pool.map pool ~tasks ~f:(fun ~worker ~index:_ _ -> worker) in
  let chunk = (n + p - 1) / p in
  check "contiguous chunks" true (owners = Array.init n (fun i -> i / chunk))

let test_pool_exception_lowest_index () =
  (* when several tasks raise, the lowest-index failure is re-raised —
     the same exception the sequential run would have surfaced first *)
  let tasks = Array.init 8 (fun i -> i) in
  let pool = Pool.create ~workers:4 () in
  match
    Pool.map pool ~tasks ~f:(fun ~worker:_ ~index:_ x ->
        if x = 6 then failwith "high";
        if x = 2 then failwith "low";
        x)
  with
  | exception Failure msg ->
    check "lowest-index failure wins" true (msg = "low")
  | _ -> Alcotest.fail "expected Failure"

let test_pool_commit_order () =
  let tasks = Array.init 23 (fun i -> i) in
  let pool = Pool.create ~workers:5 () in
  let order = ref [] in
  Pool.map_commit pool ~tasks
    ~work:(fun ~worker:_ ~index:_ x -> x)
    ~commit:(fun ~index r -> order := (index, r) :: !order);
  check "commit in task order" true
    (List.rev !order = List.init 23 (fun i -> (i, i)))

(* ---------- the persistent domain team ---------- *)

module Team = Tl_engine.Team

let test_team_coverage () =
  List.iter
    (fun w ->
      let hits = Array.make (max 1 w) 0 in
      Team.run ~workers:w (fun i -> hits.(i) <- hits.(i) + 1);
      check
        (Printf.sprintf "every index ran exactly once, workers=%d" w)
        true
        (Array.for_all (fun c -> c = 1) hits))
    [ 1; 2; 3; 4; 8 ]

let test_team_reuse () =
  (* the whole point: domains are spawned once and parked, not respawned
     per map / per round *)
  Team.prewarm 4;
  let s0 = Team.spawns () in
  check "prewarm spawned the members" true (s0 >= 3);
  for _ = 1 to 50 do
    Team.run ~workers:4 (fun _ -> ())
  done;
  check_int "50 team runs spawn nothing new" s0 (Team.spawns ());
  let pool = Pool.create ~workers:4 () in
  let tasks = Array.init 100 Fun.id in
  for _ = 1 to 10 do
    ignore (Pool.map pool ~tasks ~f:(fun ~worker:_ ~index:_ x -> x + 1))
  done;
  check_int "pool maps ride the same parked team" s0 (Team.spawns ());
  let saved = !Engine.par_grain in
  Engine.par_grain := 0;
  Fun.protect
    ~finally:(fun () -> Engine.par_grain := saved)
    (fun () ->
      let topo = Topology.compile (Semi_graph.of_graph (Gen.path 200)) in
      ignore
        (Engine.run_until_stable ~mode:(Engine.Par 4) ~topo
           ~init:(fun v -> v = 0)
           ~step:flood_step ~equal:Bool.equal ~max_rounds:201 ()));
  check_int "par rounds ride the same parked team" s0 (Team.spawns ())

let test_team_exception_lowest_index () =
  (* several workers raise; every member still finishes, and the lowest
     worker index's exception is re-raised *)
  match
    Team.run ~workers:4 (fun w ->
        if w = 3 then failwith "three";
        if w = 1 then failwith "one")
  with
  | exception Failure msg -> check "lowest worker index wins" true (msg = "one")
  | () -> Alcotest.fail "expected Failure"

let test_team_reentrant_inline () =
  (* a job calling back into the team (nested parallelism) must not
     deadlock on the barrier: the nested run degrades to inline *)
  let marks = Array.make 4 0 in
  Team.run ~workers:2 (fun w ->
      Team.run ~workers:2 (fun i -> marks.((w * 2) + i) <- 1));
  check "nested run covered all indices" true
    (Array.for_all (fun m -> m = 1) marks);
  (* and the team still works afterwards *)
  let hits = Array.make 3 0 in
  Team.run ~workers:3 (fun i -> hits.(i) <- 1);
  check "team alive after nested run" true (Array.for_all (fun m -> m = 1) hits)

(* ---------- flat layout vs boxed reference ---------- *)

module Flat = Tl_engine.Flat

let with_par_grain g f =
  let saved = !Engine.par_grain in
  Engine.par_grain := g;
  Fun.protect ~finally:(fun () -> Engine.par_grain := saved) f

(* grain 0 forces even tiny qcheck instances through the team; the
   default grain exercises the inline path. Results must not depend on
   either knob. *)
let flat_variants = [ (1, 2048); (1, 0); (2, 0); (3, 0); (4, 2048) ]

let record_sig t =
  List.map
    (fun r -> (r.Trace.round, r.Trace.active, r.Trace.changed, r.Trace.unhalted))
    (Trace.records t)

let prop_flat_flood_differential =
  QCheck.Test.make
    ~name:"flat flood == boxed flood (states, rounds, traces)" ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let mr = Graph.n_nodes g + 1 in
      List.for_all
        (fun sched ->
          let boxed_tr = Trace.create () in
          let boxed =
            Engine.run_until_stable ~mode:Engine.Seq ~sched ~trace:boxed_tr
              ~topo
              ~init:(fun v -> v = 0)
              ~step:flood_step ~equal:Bool.equal ~max_rounds:mr ()
          in
          let boxed_ints = Array.map Bool.to_int boxed.Engine.states in
          List.for_all
            (fun (par, grain) ->
              with_par_grain grain (fun () ->
                  let tr = Trace.create () in
                  let o =
                    Flat.run_until_stable ~par ~sched ~trace:tr ~topo
                      ~kernel:(Flat.Kernels.flood ()) ~max_rounds:mr ()
                  in
                  o.Flat.rounds = boxed.Engine.rounds
                  && Flat.column o ~slot:0 = boxed_ints
                  && record_sig tr = record_sig boxed_tr
                  && Trace.layout tr = "flat"))
            flat_variants)
        [ Engine.Active_set; Engine.Full_scan ])

let prop_flat_mis_differential =
  QCheck.Test.make ~name:"flat MIS == boxed MIS (run with halting)" ~count:40
    QCheck.(triple (int_range 2 150) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let boxed_tr = Trace.create () in
      let boxed =
        Engine.run ~mode:Engine.Seq ~trace:boxed_tr ~topo
          ~init:(fun _ -> 0)
          ~step:(mis_step ids)
          ~halted:(fun s -> s <> 0)
          ~max_rounds:(n + 1) ()
      in
      List.for_all
        (fun (par, grain) ->
          with_par_grain grain (fun () ->
              let tr = Trace.create () in
              let o =
                Flat.run ~par ~trace:tr ~topo
                  ~kernel:(Flat.Kernels.mis_local_max ~ids)
                  ~max_rounds:(n + 1) ()
              in
              o.Flat.rounds = boxed.Engine.rounds
              && Flat.column o ~slot:0 = boxed.Engine.states
              && record_sig tr = record_sig boxed_tr))
        flat_variants)

let prop_flat_run_rounds_differential =
  QCheck.Test.make ~name:"flat run_rounds == boxed run_rounds" ~count:30
    QCheck.(triple (int_range 2 120) (int_range 0 100000) (int_range 0 3))
    (fun (n, seed, pick) ->
      let g = family ~n ~seed ~pick in
      let n = Graph.n_nodes g in
      let ids = Ids.permuted ~n ~seed:(seed + 3) in
      let topo = Topology.compile (Semi_graph.of_graph g) in
      let r = 1 + (seed mod 4) in
      let boxed =
        Engine.run_rounds ~mode:Engine.Seq ~topo
          ~init:(fun _ -> 0)
          ~step:(mis_step ids) ~rounds:r ()
      in
      List.for_all
        (fun (par, grain) ->
          with_par_grain grain (fun () ->
              let o =
                Flat.run_rounds ~par ~topo
                  ~kernel:(Flat.Kernels.mis_local_max ~ids)
                  ~rounds:r ()
              in
              o.Flat.rounds = r && Flat.column o ~slot:0 = boxed.Engine.states))
        flat_variants)

let test_flat_failure_parity () =
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path 5)) in
  (* frozen machine: active set drains with unhalted nodes left — flat
     must fail fast with the byte-identical engine message *)
  let frozen_kernel =
    {
      Flat.name = "frozen";
      slots = 1;
      scratch_words = 0;
      init = (fun ~node:_ ~slot:_ -> 0);
      step = (fun ctx ~scratch:_ ~round:_ ~node:v -> ctx.Flat.nxt.(v) <- 0);
      halted = Some (fun _ ~node:_ -> false);
    }
  in
  let boxed_frozen () =
    Engine.run ~mode:Engine.Seq ~topo
      ~init:(fun _ -> 0)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> s)
      ~halted:(fun _ -> false)
      ~max_rounds:10 ()
  in
  let flat_frozen () =
    Flat.run ~topo ~kernel:frozen_kernel ~max_rounds:10 ()
  in
  let m_boxed = failure_message boxed_frozen in
  check "boxed frozen raises" true (m_boxed <> None);
  Alcotest.(check (option string))
    "stall failure parity" m_boxed
    (failure_message flat_frozen);
  (* blinker: exhausts max_rounds in run_until_stable *)
  let blinker_kernel =
    {
      Flat.name = "blinker";
      slots = 1;
      scratch_words = 0;
      init = (fun ~node:_ ~slot:_ -> 0);
      step =
        (fun ctx ~scratch:_ ~round:_ ~node:v ->
          ctx.Flat.nxt.(v) <- 1 - ctx.Flat.cur.(v));
      halted = None;
    }
  in
  let boxed_blinker () =
    Engine.run_until_stable ~mode:Engine.Seq ~topo
      ~init:(fun _ -> false)
      ~step:(fun ~round:_ ~node:_ s ~neighbors:_ -> not s)
      ~equal:Bool.equal ~max_rounds:7 ()
  in
  let flat_blinker () =
    Flat.run_until_stable ~topo ~kernel:blinker_kernel ~max_rounds:7 ()
  in
  let m_boxed = failure_message boxed_blinker in
  check "boxed blinker raises" true (m_boxed <> None);
  Alcotest.(check (option string))
    "max_rounds failure parity" m_boxed
    (failure_message flat_blinker);
  (* a kernel without a halting predicate cannot enter Flat.run *)
  (match Flat.run ~topo ~kernel:blinker_kernel ~max_rounds:7 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument for halted-less kernel");
  ()

let test_flat_zero_alloc_per_step () =
  (* the flat hot path must allocate nothing on the minor heap per step:
     run flood down a long path (many rounds, tiny frontiers — the shape
     that amplifies any per-round or per-step allocation) and bound the
     whole run's minor-heap delta by a per-run constant. A 2-word leak
     per round would show up as ~40k words here. *)
  let n = 20_000 in
  let topo = Topology.compile (Semi_graph.of_graph (Gen.path n)) in
  let kernel = Flat.Kernels.flood () in
  ignore (Flat.run_until_stable ~topo ~kernel ~max_rounds:(n + 1) ());
  let w0 = Gc.minor_words () in
  let o = Flat.run_until_stable ~topo ~kernel ~max_rounds:(n + 1) () in
  let w1 = Gc.minor_words () in
  check_int "flood covered the path" (n - 1) o.Flat.rounds;
  check "flood reached every node" true
    (Array.for_all (fun s -> s = 1) (Flat.column o ~slot:0));
  let delta = w1 -. w0 in
  check
    (Printf.sprintf "per-run minor words bounded (got %.0f)" delta)
    true (delta < 2048.)

(* An armed fault gate interrupts flat runs exactly like boxed ones: the
   run stops at the gate's round with the states, round count and trace
   rows of a boxed Seq run interrupted at the same round. *)
let with_gate_closing_at r f =
  Driver.fault_gate := Some (fun ~round -> round < r);
  Fun.protect ~finally:(fun () -> Driver.fault_gate := None) f

let test_flat_fault_gate () =
  let g = Gen.random_tree ~n:400 ~seed:12 in
  let n = Graph.n_nodes g in
  let ids = Ids.permuted ~n ~seed:13 in
  let topo = Topology.compile (Semi_graph.of_graph g) in
  let mr = n + 1 in
  let interrupted ~name ~full_rounds boxed flat =
    let r = max 1 (full_rounds / 2) in
    check (name ^ ": uninterrupted run is longer than the gate") true
      (full_rounds > r);
    with_gate_closing_at r (fun () ->
        let btr = Trace.create () and ftr = Trace.create () in
        let (b_rounds, b_states) = boxed btr in
        let (f_rounds, f_states) = flat ftr in
        check_int (name ^ ": boxed stops at the gate") r b_rounds;
        check_int (name ^ ": flat stops at the gate") r f_rounds;
        check (name ^ ": states equal") true (f_states = b_states);
        check (name ^ ": trace rows equal") true
          (record_sig ftr = record_sig btr))
  in
  let flood_boxed ~halting tr =
    let o =
      if halting then
        Engine.run ~mode:Engine.Seq ~trace:tr ~topo
          ~init:(fun v -> v = 0)
          ~step:flood_step ~halted:Fun.id ~max_rounds:mr ()
      else
        Engine.run_until_stable ~mode:Engine.Seq ~trace:tr ~topo
          ~init:(fun v -> v = 0)
          ~step:flood_step ~equal:Bool.equal ~max_rounds:mr ()
    in
    (o.Engine.rounds, Array.map Bool.to_int o.Engine.states)
  in
  let flood_flat ~halting tr =
    let kernel = Flat.Kernels.flood () in
    let o =
      if halting then Flat.run ~trace:tr ~topo ~kernel ~max_rounds:mr ()
      else Flat.run_until_stable ~trace:tr ~topo ~kernel ~max_rounds:mr ()
    in
    (o.Flat.rounds, Flat.column o ~slot:0)
  in
  let mis_boxed ~halting tr =
    let o =
      if halting then
        Engine.run ~mode:Engine.Seq ~trace:tr ~topo
          ~init:(fun _ -> 0)
          ~step:(mis_step ids)
          ~halted:(fun s -> s <> 0)
          ~max_rounds:mr ()
      else
        Engine.run_until_stable ~mode:Engine.Seq ~trace:tr ~topo
          ~init:(fun _ -> 0)
          ~step:(mis_step ids) ~equal:Int.equal ~max_rounds:mr ()
    in
    (o.Engine.rounds, o.Engine.states)
  in
  let mis_flat ~halting tr =
    let kernel = Flat.Kernels.mis_local_max ~ids in
    let o =
      if halting then Flat.run ~trace:tr ~topo ~kernel ~max_rounds:mr ()
      else Flat.run_until_stable ~trace:tr ~topo ~kernel ~max_rounds:mr ()
    in
    (o.Flat.rounds, Flat.column o ~slot:0)
  in
  List.iter
    (fun halting ->
      let entry = if halting then "run" else "run_until_stable" in
      let full f = fst (f ~halting (Trace.create ())) in
      interrupted ~name:("flood " ^ entry) ~full_rounds:(full flood_boxed)
        (flood_boxed ~halting) (flood_flat ~halting);
      interrupted ~name:("mis " ^ entry) ~full_rounds:(full mis_boxed)
        (mis_boxed ~halting) (mis_flat ~halting))
    [ true; false ]

(* ---------- the round driver against a scripted backend ---------- *)

(* A fake backend whose round [r] reports the [r]-th scripted
   (active, changed, unhalted) triple; [calls] counts executed rounds. *)
let scripted script =
  let calls = ref 0 in
  let round r (st : Driver.stats) =
    incr calls;
    let active, changed, unhalted = script.(r - 1) in
    st.active <- active;
    st.changed <- changed;
    st.unhalted <- unhalted
  in
  (calls, round)

let test_driver_stall_fails () =
  let calls, round = scripted [||] in
  let st = Driver.stats ~active:0 ~unhalted:3 in
  Alcotest.(check (option string))
    "stall raises the max_rounds failure"
    (Some "Engine.run: max_rounds=10 exceeded")
    (failure_message (fun () ->
         Driver.loop None (Driver.Until_halted 10) st round));
  check_int "no round executed" 0 !calls;
  let _, round = scripted (Array.make 4 (5, 5, 5)) in
  Alcotest.(check (option string))
    "until_stable exhaustion message"
    (Some "Engine.run_until_stable: max_rounds=4 exceeded")
    (failure_message (fun () ->
         Driver.loop None (Driver.Until_stable 4)
           (Driver.stats ~active:5 ~unhalted:0)
           round))

let test_driver_gate_interrupts () =
  List.iter
    (fun term ->
      let calls, round = scripted (Array.make 50 (5, 5, 5)) in
      let rounds =
        with_gate_closing_at 3 (fun () ->
            Driver.loop None term (Driver.stats ~active:5 ~unhalted:5) round)
      in
      check_int "gate closing at 3 ends the run at 3" 3 rounds;
      check_int "three rounds executed" 3 !calls)
    [ Driver.Until_halted 10; Driver.Until_stable 10; Driver.Fixed 10 ]

let test_driver_fixed_skips_empty () =
  let calls, round = scripted [| (4, 4, -1); (0, 1, -1) |] in
  let tr = Trace.create () in
  let rounds =
    Driver.loop (Some tr) (Driver.Fixed 10)
      (Driver.stats ~active:6 ~unhalted:0)
      round
  in
  check_int "fixed reports every scheduled round" 10 rounds;
  check_int "rounds after the frontier drained are skipped" 2 !calls;
  check_int "one trace row per executed round" 2
    (List.length (Trace.records tr))

let test_driver_stable_counts_changes () =
  let calls, round =
    scripted [| (3, 3, 0); (2, 2, 0); (1, 1, 0); (1, 0, 0) |]
  in
  let tr = Trace.create () in
  let rounds =
    Driver.loop (Some tr) (Driver.Until_stable 100)
      (Driver.stats ~active:9 ~unhalted:0)
      round
  in
  check_int "only changing rounds count" 3 rounds;
  check_int "the detection round executes" 4 !calls;
  Alcotest.(check (list (pair int (pair int int))))
    "rows: round, active before the round, changed"
    [ (1, (9, 3)); (2, (3, 2)); (3, (2, 1)); (4, (1, 0)) ]
    (List.map
       (fun r -> (r.Trace.round, (r.Trace.active, r.Trace.changed)))
       (Trace.records tr));
  check "unhalted untracked outside Until_halted" true
    (List.for_all (fun r -> r.Trace.unhalted = -1) (Trace.records tr))

let test_driver_one_row_per_round () =
  let calls, round = scripted [| (4, 2, 3); (4, 2, 1); (0, 1, 0) |] in
  let tr = Trace.create () in
  let rounds =
    Driver.loop (Some tr) (Driver.Until_halted 100)
      (Driver.stats ~active:7 ~unhalted:5)
      round
  in
  check_int "halts after three rounds" 3 rounds;
  check_int "one row per executed round" !calls
    (List.length (Trace.records tr));
  check "rows carry the scripted totals" true
    (record_sig tr = [ (1, 7, 2, 3); (2, 4, 2, 1); (3, 4, 1, 0) ])

(* ---------- compile cache ---------- *)

let test_topology_cache_hit_and_invalidation () =
  Topology.clear_cache ();
  let g = Gen.random_tree ~n:40 ~seed:5 in
  let sg = Semi_graph.of_graph g in
  let h0, m0 = Topology.cache_stats () in
  let t1, hit1 = Topology.compile_cached_stat sg in
  let t2, hit2 = Topology.compile_cached_stat sg in
  check "first compile misses" true (not hit1);
  check "second compile hits" true hit2;
  check "hit returns the same snapshot" true (t1 == t2);
  let h1, m1 = Topology.cache_stats () in
  check_int "one hit counted" 1 (h1 - h0);
  check_int "one miss counted" 1 (m1 - m0);
  (* masking a node bumps the generation, making the old key unreachable *)
  let gen0 = Semi_graph.generation sg in
  Semi_graph.hide_node sg 0;
  check_int "generation bumped" (gen0 + 1) (Semi_graph.generation sg);
  let t3, hit3 = Topology.compile_cached_stat sg in
  check "mutation invalidates" true (not hit3);
  check "recompiled snapshot" true (not (t3 == t1));
  check "node masked out" true (not (Topology.present t3 0));
  (* hiding an already-hidden node must not bump the generation *)
  Semi_graph.hide_node sg 0;
  check_int "no-op hide keeps generation" (gen0 + 1) (Semi_graph.generation sg);
  let _, hit4 = Topology.compile_cached_stat sg in
  check "no-op hide keeps the entry live" true hit4

let test_topology_cache_eviction_generation () =
  (* generation bumps (hide_node / hide_edge) interleaved with FIFO
     overflow: every transition is predicted and the hit/miss counters
     must account for all of them exactly *)
  Topology.clear_cache ();
  Topology.set_cache_limit 2;
  let sg = Semi_graph.of_graph (Gen.random_tree ~n:30 ~seed:41) in
  let sg2 = Semi_graph.of_graph (Gen.path 10) in
  let sg3 = Semi_graph.of_graph (Gen.star 8) in
  let h0, m0 = Topology.cache_stats () in
  check "initial compile misses" true (not (snd (Topology.compile_cached_stat sg)));
  check "recompile hits" true (snd (Topology.compile_cached_stat sg));
  Semi_graph.hide_edge sg 0;
  check "hide_edge invalidates" true
    (not (snd (Topology.compile_cached_stat sg)));
  Semi_graph.hide_node sg 1;
  (* third generation of the same view: FIFO (limit 2) drops gen 0 *)
  check "hide_node invalidates again" true
    (not (snd (Topology.compile_cached_stat sg)));
  (* two fresh views overflow the bound and evict both sg generations *)
  check "fresh view misses" true (not (snd (Topology.compile_cached_stat sg2)));
  check "second fresh view misses" true
    (not (snd (Topology.compile_cached_stat sg3)));
  check "sg evicted by overflow" true
    (not (snd (Topology.compile_cached_stat sg)));
  check "sg2 evicted by sg reinsert" true
    (not (snd (Topology.compile_cached_stat sg2)));
  check "sg3 evicted by sg2 reinsert" true
    (not (snd (Topology.compile_cached_stat sg3)));
  let h1, m1 = Topology.cache_stats () in
  check_int "exactly one hit" 1 (h1 - h0);
  check_int "exactly eight misses" 8 (m1 - m0);
  (* the Runtime span counters must mirror the cache stats *)
  Topology.clear_cache ();
  let h2, m2 = Topology.cache_stats () in
  let flood ~sg =
    ignore
      (runtime_run ~sg
         ~init:(fun v -> v = 0)
         ~step:flood_step
         ~halted:(fun s -> s)
         ~max_rounds:20 ())
  in
  let (), root =
    Tl_obs.Span.run "cache-counters" (fun () ->
        flood ~sg:sg2;
        flood ~sg:sg2;
        (* hide the far endpoint, not the flood source at node 0 *)
        Semi_graph.hide_node sg2 9;
        flood ~sg:sg2)
  in
  let h3, m3 = Topology.cache_stats () in
  let counters = Tl_obs.Span.counters root in
  let counter k = try List.assoc k counters with Not_found -> 0 in
  check_int "span topo:cache_hit matches stats" (h3 - h2)
    (counter "topo:cache_hit");
  check_int "span topo:cache_miss matches stats" (m3 - m2)
    (counter "topo:cache_miss");
  check_int "one hit via runtime" 1 (h3 - h2);
  check_int "two misses via runtime" 2 (m3 - m2);
  Topology.set_cache_limit 64

let test_topology_cache_limit () =
  Topology.clear_cache ();
  (match Topology.set_cache_limit (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument on negative limit");
  let sgs = Array.init 3 (fun i -> Semi_graph.of_graph (Gen.path (i + 2))) in
  Topology.set_cache_limit 2;
  Array.iter (fun sg -> ignore (Topology.compile_cached_stat sg)) sgs;
  (* FIFO: inserting the third view evicted the first *)
  check "oldest evicted" true (not (snd (Topology.compile_cached_stat sgs.(0))));
  check "recent kept" true (snd (Topology.compile_cached_stat sgs.(2)));
  Topology.set_cache_limit 0;
  check "limit 0 disables caching" true
    (not (snd (Topology.compile_cached_stat sgs.(2))));
  check "still disabled on repeat" true
    (not (snd (Topology.compile_cached_stat sgs.(2))));
  Topology.set_cache_limit 64

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let () =
  Alcotest.run "tl_engine"
    [
      ( "topology",
        qsuite [ prop_topology_matches_semigraph; prop_topology_on_subsets ]
        @ [
            Alcotest.test_case "compile cache hit/miss/invalidation" `Quick
              test_topology_cache_hit_and_invalidation;
            Alcotest.test_case "compile cache FIFO limit" `Quick
              test_topology_cache_limit;
            Alcotest.test_case "cache eviction: generation bumps x FIFO"
              `Quick test_topology_cache_eviction_generation;
          ] );
      ( "pool",
        [
          Alcotest.test_case "create validates and clamps" `Quick
            test_pool_create;
          Alcotest.test_case "map deterministic across widths" `Quick
            test_pool_map_deterministic;
          Alcotest.test_case "fixed contiguous chunking" `Quick
            test_pool_chunking;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_pool_exception_lowest_index;
          Alcotest.test_case "commit runs in task order" `Quick
            test_pool_commit_order;
        ] );
      ( "team",
        [
          Alcotest.test_case "every index runs exactly once" `Quick
            test_team_coverage;
          Alcotest.test_case "domains parked and reused, never respawned"
            `Quick test_team_reuse;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_team_exception_lowest_index;
          Alcotest.test_case "reentrant run degrades to inline" `Quick
            test_team_reentrant_inline;
        ] );
      ( "flat",
        qsuite
          [
            prop_flat_flood_differential;
            prop_flat_mis_differential;
            prop_flat_run_rounds_differential;
          ]
        @ [
            Alcotest.test_case "failure parity with the boxed engine" `Quick
              test_flat_failure_parity;
            Alcotest.test_case "zero minor-heap words per step" `Quick
              test_flat_zero_alloc_per_step;
            Alcotest.test_case "fault gate interrupts like boxed Seq" `Quick
              test_flat_fault_gate;
          ] );
      ( "driver",
        [
          Alcotest.test_case "stall and exhaustion messages" `Quick
            test_driver_stall_fails;
          Alcotest.test_case "gate interrupts every termination" `Quick
            test_driver_gate_interrupts;
          Alcotest.test_case "fixed skips an empty frontier" `Quick
            test_driver_fixed_skips_empty;
          Alcotest.test_case "until_stable counts changing rounds" `Quick
            test_driver_stable_counts_changes;
          Alcotest.test_case "one trace row per executed round" `Quick
            test_driver_one_row_per_round;
        ] );
      ( "differential",
        qsuite
          [
            prop_flood_differential;
            prop_mis_differential;
            prop_peel_differential;
            prop_cv_differential;
            prop_run_rounds_differential;
          ] );
      ( "runtime",
        [ Alcotest.test_case "compile then engine matches naive" `Quick
            test_compile_then_engine_matches_naive ] );
      ("linial", qsuite [ prop_linial_topo_equivalence ]);
      ( "failure",
        [
          Alcotest.test_case "max_rounds and stall parity" `Quick
            test_max_rounds_failure_parity;
          Alcotest.test_case "empty present set" `Quick test_empty_present_set;
        ] );
      ( "trace",
        [
          Alcotest.test_case "metrics and ledger bridge" `Quick
            test_trace_metrics;
          Alcotest.test_case "global sink" `Quick test_trace_sink;
          Alcotest.test_case "zero-round metrics" `Quick
            test_trace_zero_rounds;
          Alcotest.test_case "rounds_detail json round-trip" `Quick
            test_trace_json_roundtrip;
        ] );
      ( "modes",
        [
          Alcotest.test_case "parsing" `Quick test_mode_strings;
          Alcotest.test_case "with_knobs scope" `Quick test_with_knobs;
        ] );
    ]
