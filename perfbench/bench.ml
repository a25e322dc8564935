(* perfbench: the repo's benchmark. It runs the paper's three pipelines
   (Theorem 12 MIS on trees, Theorem 15 maximal matching on bounded
   arboricity, Theorem 3 edge colouring) and the tl_serve daemon end to
   end, checks every output, and with [--trace 1] splits a solve into
   its layers by timing public calls from outside.

   Built and run through perfbench/run.py from the repository root:

     python3 perfbench/run.py --workload t12-mis-tree --seed 1 \
       --seconds 20 --trace 0

   The last stdout line is one JSON object
   [{"correct", "attempted", "failed", "metrics"}]; the lines above it
   are the same numbers for humans. Everything runs single-threaded
   (engine [seq], pool 1): no domain is spawned, so the serve workload
   may fork the daemon. See perfbench/README.md for the metric
   definitions. *)

module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Pipeline = Tl_core.Pipeline
module Rake_compress = Tl_decompose.Rake_compress
module Arb_decompose = Tl_decompose.Arb_decompose
module Topology = Tl_engine.Topology
module Algos = Tl_symmetry.Algos
module Linial = Tl_symmetry.Linial
module Reduce = Tl_symmetry.Reduce
module Labeling = Tl_problems.Labeling
module Nec = Tl_problems.Nec
module Span = Tl_obs.Span
module Json = Tl_obs.Json
module P = Tl_serve.Protocol

(* ---------- measurement helpers ---------- *)

let now = Unix.gettimeofday

(* Words allocated by this domain so far (minor + major - promoted). *)
let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* [f ()] with its wall seconds and allocated millions of words. *)
let measure f =
  let w0 = words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, (words () -. w0) /. 1e6)

let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let pos = p *. float_of_int (Array.length a - 1) in
    let lo = int_of_float pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile 0.5 xs

(* VmHWM (peak resident set) of a process, in MiB. *)
let vm_hwm_mb pid =
  let file =
    match pid with None -> "/proc/self/status" | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ file)
      in
      scan ())

(* ---------- outcome accounting ---------- *)

let attempted = ref 0
let failed = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failed;
      Printf.eprintf "perfbench: FAIL %s\n%!" msg)
    fmt

(* One checked operation: raising counts as a failure. *)
let attempt name f =
  incr attempted;
  match f () with
  | () -> ()
  | exception e -> fail "%s raised %s" name (Printexc.to_string e)

(* ---------- pipeline workloads ---------- *)

type decomposed = {
  target : Semi_graph.t;  (** the semi-graph the base algorithm colours *)
  iterations : int;
  drounds : int;
}

type 'l pipeline = {
  params : string;  (** generator parameters, for the report *)
  build : seed:int -> Graph.t;
  call : Graph.t -> int array -> 'l Pipeline.report;
  problem : 'l Nec.t;
  base : Semi_graph.t -> ids:int array -> 'l Labeling.t -> int;
  decompose : Graph.t -> k:int -> ids:int array -> decomposed;
  line : bool;  (** the base algorithm runs on the line graph *)
}

type workload = Pipe : 'l pipeline -> workload | Serve

let rake_compress g ~k ~ids =
  let rc = Rake_compress.run g ~k ~ids in
  {
    target = Rake_compress.t_c rc;
    iterations = Rake_compress.iterations rc;
    drounds = Rake_compress.decomposition_rounds rc;
  }

let arb_decompose ~a g ~k ~ids =
  let d = Arb_decompose.run g ~a ~k ~ids in
  {
    target = Arb_decompose.g_e2 d;
    iterations = Arb_decompose.iterations d;
    drounds = Arb_decompose.decomposition_rounds d;
  }

let workload = function
  | "t12-mis-tree" ->
    let n = 1_000_000 in
    Pipe
      {
        params = "random-tree n=1000000";
        build = (fun ~seed -> Gen.random_tree ~n ~seed);
        call = (fun g ids -> Pipeline.mis_on_tree ~tree:g ~ids ());
        problem = Tl_problems.Mis.problem;
        base = Algos.mis;
        decompose = rake_compress;
        line = false;
      }
  | "t15-matching-arb2" ->
    let n = 200_000 and a = 2 in
    Pipe
      {
        params = "forest-union n=200000 a=2";
        build = (fun ~seed -> Gen.forest_union ~n ~arboricity:a ~seed);
        call = (fun g ids -> Pipeline.matching_on_graph ~graph:g ~a ~ids ());
        problem = Tl_problems.Matching.problem;
        base = Algos.maximal_matching;
        decompose = arb_decompose ~a;
        line = true;
      }
  | "t3-edgecol-tree" ->
    let n = 500_000 and a = 1 in
    Pipe
      {
        params = "random-tree n=500000 a=1";
        build = (fun ~seed -> Gen.random_tree ~n ~seed);
        call = (fun g ids -> Pipeline.edge_coloring_on_graph ~graph:g ~a ~ids ());
        problem = Tl_problems.Edge_coloring.problem;
        base = Algos.edge_coloring;
        decompose = arb_decompose ~a;
        line = true;
      }
  | "serve-mix" -> Serve
  | w -> invalid_arg ("unknown workload " ^ w)

(* The CLI's instance: generator on [seed], IDs permuted on [seed + 1]. *)
let instance p ~seed =
  let g = p.build ~seed in
  (g, Ids.permuted ~n:(Graph.n_nodes g) ~seed:(seed + 1))

type solve = { rounds : int; digest : string; k : int }

(* One Pipeline call, checked: valid labeling, and the same rounds and
   labeling digest as every earlier solve of the same instance. With
   [~traced:true] the call runs under a span root, returned last. *)
let checked_solve ?(traced = false) p ~reference g ids =
  let (r, root), solve_s, _ =
    measure (fun () ->
        if traced then
          let r, root = Span.run "solve" (fun () -> p.call g ids) in
          (r, Some root)
        else (p.call g ids, None))
  in
  let s =
    { rounds = r.Pipeline.total_rounds; digest = P.digest_labeling ~graph:g r.labeling; k = r.k }
  in
  if not r.valid then fail "invalid labeling (%d violations)" (List.length r.violations);
  (match !reference with
  | None -> reference := Some s
  | Some s0 ->
    if s0.rounds <> s.rounds || s0.digest <> s.digest then
      fail "nondeterministic solve: rounds %d vs %d, digest %s vs %s" s0.rounds s.rounds
        s0.digest s.digest);
  (r, s, solve_s, root)

let min_iterations = 3

(* Untraced: instance + Pipeline call, repeated until [seconds] have
   passed and at least [min_iterations] were made. Peak RSS is read
   after the first, as a user's one-shot solve would see it. *)
let run_pipeline p ~seed ~seconds =
  let reference = ref None in
  let setups = ref [] and solves = ref [] and peak = ref 0.0 in
  let t_start = now () in
  while !attempted < min_iterations || now () -. t_start < seconds do
    Gc.full_major ();
    attempt "solve" (fun () ->
        let (g, ids), setup_s, _ = measure (fun () -> instance p ~seed) in
        let _, _, solve_s, _ = checked_solve p ~reference g ids in
        if !peak = 0.0 then peak := vm_hwm_mb None;
        Printf.printf "iteration %d: setup %.3f s, solve %.3f s\n%!" !attempted setup_s solve_s;
        setups := setup_s :: !setups;
        solves := solve_s :: !solves)
  done;
  let rounds = match !reference with Some s -> float_of_int s.rounds | None -> 0.0 in
  let reqs = List.map2 ( +. ) !setups !solves in
  [
    ("setup_s", median !setups);
    ("solve_s", median !solves);
    ("rounds", rounds);
    ("peak_rss_mb", !peak);
    ("req_p50_ms", 1000.0 *. median reqs);
    ("req_p95_ms", 1000.0 *. percentile 0.95 reqs);
    ("req_per_s", float_of_int (List.length reqs) /. List.fold_left ( +. ) 0.0 reqs);
  ]

(* Line-graph IDs exactly as Algos derives them from endpoint IDs. *)
let line_ids sg edge_of ids =
  let base = Semi_graph.base sg in
  let width = 1 + Array.fold_left max 0 ids in
  Array.map
    (fun e ->
      let u, v = Graph.edge_endpoints base e in
      let lo = min ids.(u) ids.(v) and hi = max ids.(u) ids.(v) in
      (lo * width) + hi)
    edge_of

let counter span name = Option.value ~default:0 (List.assoc_opt name (Span.counters span))

let rec engine_steps span =
  List.fold_left (fun acc c -> acc + engine_steps c) (counter span "steps") (Span.children span)

(* A layer call timed on a collected heap, so that the garbage of the
   calls before it is not charged to it. *)
let layer f =
  Gc.full_major ();
  measure f

type chain = {
  coloring : int array * int * int;  (** colours, palette, rounds *)
  compile_s : float;
  compile_mw : float;
  linial_s : float;
  linial_steps : int;
  kw_s : float;
  kw_rounds : int;
  to_bound_s : float;
}

(* Algos.proper_coloring's chain, call by call, each timed from outside:
   Topology.compile -> Linial.reduce_topo -> Reduce.kw_to_delta_plus_one
   -> Reduce.to_bound. (Its edgeless branch never runs on the workloads'
   semi-graphs.) *)
let replay_proper_coloring sg ~ids =
  let n = Graph.n_nodes (Semi_graph.base sg) in
  let nodes = Semi_graph.nodes sg in
  let topo, compile_s, compile_mw = layer (fun () -> Topology.compile sg) in
  let max_degree = Topology.max_degree topo in
  let colors = Array.make n (-1) in
  List.iter (fun v -> colors.(v) <- ids.(v)) nodes;
  let palette0 = 1 + List.fold_left (fun acc v -> max acc ids.(v)) 0 nodes in
  let neighbors v = Topology.neighbor_nodes topo v in
  let linial colors () = Linial.reduce_topo ~topo ~nodes ~colors ~palette:palette0 ~max_degree in
  (* engine steps from a traced run on a copy, outside the timing: the
     trace that a span turns on costs time of its own *)
  let _, span = Span.run "linial" (linial (Array.copy colors)) in
  let (palette1, linial_rounds), linial_s, _ = measure (linial colors) in
  let (palette2, kw_rounds), kw_s, _ =
    measure (fun () ->
        Reduce.kw_to_delta_plus_one ~neighbors ~nodes ~colors ~palette:palette1 ~delta:max_degree)
  in
  let bound v = Semi_graph.underlying_degree sg v + 1 in
  let reduce_rounds, to_bound_s, _ =
    measure (fun () -> Reduce.to_bound ~neighbors ~nodes ~colors ~palette:palette2 ~bound)
  in
  {
    coloring = (colors, max_degree + 1, linial_rounds + kw_rounds + reduce_rounds);
    compile_s;
    compile_mw;
    linial_s;
    linial_steps = engine_steps span;
    kw_s;
    kw_rounds;
    to_bound_s;
  }

(* Phases of the program's own span tree whose self time (elapsed minus
   the children's) exceeds 5% of the solve: where its tracing is dark. *)
let dark_phases root =
  let total = Span.elapsed_s root in
  let rec walk path span acc =
    let kids = Span.children span in
    let covered = List.fold_left (fun s c -> s +. Span.elapsed_s c) 0.0 kids in
    let share = (Span.elapsed_s span -. covered) /. total in
    let acc = if kids <> [] && share > 0.05 then (path, share) :: acc else acc in
    List.fold_left (fun acc c -> walk (path ^ "/" ^ Span.name c) c acc) acc kids
  in
  List.rev (walk (Span.name root) root [])

(* One pass over the layers' public calls, each timed on its own, in
   pipeline order; [sol] is a finished labeling for the validate call. *)
let layer_pass p g ids ~k ~sol =
  let d, decompose_s, decompose_mw = layer (fun () -> p.decompose g ~k ~ids) in
  let base_rounds, base_s, base_mw =
    let labeling = Labeling.create g in
    layer (fun () -> p.base d.target ~ids labeling)
  in
  let (lg, edge_of), line_s, line_mw =
    if p.line then layer (fun () -> Algos.line_structure d.target)
    else ((Graph.of_edges ~n:0 [], [||]), 0.0, 0.0)
  in
  let csg, cids =
    if p.line then (Semi_graph.of_graph lg, line_ids d.target edge_of ids) else (d.target, ids)
  in
  let c = replay_proper_coloring csg ~ids:cids in
  (* identity check: the replayed chain is the code it explains *)
  incr attempted;
  let expected = Algos.proper_coloring csg ~ids:cids in
  if c.coloring <> expected then begin
    let _, palette, rounds = expected and _, rp, rr = c.coloring in
    fail "layer probe differs from Algos.proper_coloring (palette %d vs %d, rounds %d vs %d)" rp
      palette rr rounds
  end;
  let violations, validate_s, validate_mw = layer (fun () -> Nec.validate p.problem g sol) in
  incr attempted;
  if violations <> [] then fail "Nec.validate: %d violations" (List.length violations);
  [
    ("tl_decompose.run_s", decompose_s);
    ("tl_decompose.run_mw", decompose_mw);
    ("tl_decompose.iterations", float_of_int d.iterations);
    ("tl_decompose.rounds", float_of_int d.drounds);
    ("tl_engine.compile_s", c.compile_s);
    ("tl_engine.compile_mw", c.compile_mw);
    ("tl_engine.linial_steps", float_of_int c.linial_steps);
    ("tl_symmetry.base_s", base_s);
    ("tl_symmetry.base_mw", base_mw);
    ("tl_symmetry.base_rounds", float_of_int base_rounds);
    ("tl_symmetry.line_structure_s", line_s);
    ("tl_symmetry.line_structure_mw", line_mw);
    ("tl_symmetry.line_edges", float_of_int (Graph.n_edges lg));
    ("tl_symmetry.linial_s", c.linial_s);
    ("tl_symmetry.kw_s", c.kw_s);
    ("tl_symmetry.kw_rounds", float_of_int c.kw_rounds);
    ("tl_symmetry.to_bound_s", c.to_bound_s);
    ("tl_problems.validate_s", validate_s);
    ("tl_problems.validate_mw", validate_mw);
  ]

(* Traced: a span-traced Pipeline call between two untraced ones, then
   two passes over the layer calls, each layer figure the smaller of its
   two samples (the host's load only ever adds time). The gather and
   star phases have no public entry point; they are read from the
   traced call's own span report. *)
let trace_pipeline p ~seed =
  let (g, ids), _, gen_mw = measure (fun () -> instance p ~seed) in
  let reference = ref None in
  let solve ~traced =
    Gc.full_major ();
    checked_solve ~traced p ~reference g ids
  in
  let _, _, untraced1, _ = solve ~traced:false in
  let _, _, traced_s, span = solve ~traced:true in
  let span = Option.get span in
  let r, s, untraced2, _ = solve ~traced:false in
  (* the mean of the two calls around the traced one cancels a steady drift *)
  let solve_s = (untraced1 +. untraced2) /. 2.0 in
  let pass () = layer_pass p g ids ~k:s.k ~sol:r.labeling in
  let first = pass () in
  let m = List.map2 (fun (name, a) (_, b) -> (name, Float.min a b)) first (pass ()) in
  let v name = List.assoc name m in
  let phase name key =
    match List.find_opt (fun c -> Span.name c = name) (Span.children span) with
    | Some c -> (Span.elapsed_s c, float_of_int (counter c key))
    | None -> (0.0, 0.0)
  in
  let gather_s, components = phase "gather-solve" "components" in
  let stars_s, star_tasks = phase "stars" "pool:tasks" in
  let base_rest_s =
    List.fold_left
      (fun acc name -> acc -. v name)
      (v "tl_symmetry.base_s")
      [
        "tl_symmetry.line_structure_s";
        "tl_engine.compile_s";
        "tl_symmetry.linial_s";
        "tl_symmetry.kw_s";
        "tl_symmetry.to_bound_s";
      ]
  in
  let named =
    v "tl_decompose.run_s" +. v "tl_symmetry.base_s" +. gather_s +. stars_s
    +. v "tl_problems.validate_s"
  in
  let dark = dark_phases span in
  Printf.printf "shares of solve_s (%.3f s, untraced):\n" solve_s;
  List.iter
    (fun (label, x) -> Printf.printf "  %-30s %6.1f%%\n" label (100.0 *. x /. solve_s))
    [
      ("decompose", v "tl_decompose.run_s");
      ("base", v "tl_symmetry.base_s");
      ("  line_structure", v "tl_symmetry.line_structure_s");
      ("  compile", v "tl_engine.compile_s");
      ("  linial", v "tl_symmetry.linial_s");
      ("  kw", v "tl_symmetry.kw_s");
      ("  to_bound", v "tl_symmetry.to_bound_s");
      ("  base_rest", base_rest_s);
      ("gather-solve", gather_s);
      ("stars", stars_s);
      ("validate", v "tl_problems.validate_s");
      ("unattributed", solve_s -. named);
    ];
  Printf.printf "program spans with >5%% unattributed self time (share of solve):\n";
  List.iter (fun (path, share) -> Printf.printf "  %-30s %6.1f%%\n" path (100.0 *. share)) dark;
  m
  @ [
      ("tl_graph.gen_mw", gen_mw);
      ("tl_symmetry.base_rest_s", base_rest_s);
      ("tl_core.gather_solve_s", gather_s);
      ("tl_core.components", components);
      ("tl_core.stars_s", stars_s);
      ("tl_core.star_tasks", star_tasks);
      ("tl_obs.trace_overhead_frac", (traced_s /. solve_s) -. 1.0);
      ("tl_obs.unattributed_frac", 1.0 -. (named /. solve_s));
      ("tl_obs.dark_phases", float_of_int (List.length dark));
    ]

(* ---------- serve-mix ---------- *)

let serve_n = 10_000
let hot_specs = 8
let min_requests = 200
let problems = [| "mis"; "matching"; "edge-coloring" |]

let spec_of gseed = P.Family { family = "random-tree"; n = serve_n; seed = gseed; a = 1; delta = 8 }

type daemon = { pid : int; ic : in_channel; oc : out_channel }

let live : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn path =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process path [| path |] in_r out_w Unix.stderr in
  live := pid :: !live;
  Unix.close in_r;
  Unix.close out_w;
  { pid; ic = Unix.in_channel_of_descr out_r; oc = Unix.out_channel_of_descr in_w }

let send d json =
  output_string d.oc (Json.to_line json);
  flush d.oc

let recv d =
  match P.response_of_json (Json.parse (input_line d.ic)) with
  | Ok r -> r
  | Error msg -> failwith ("unparseable response: " ^ msg)

let control d c =
  send d (P.control_to_json ~id:"ctl" c);
  (recv d).P.outcome

let stop d =
  (match control d P.Shutdown with P.Pong -> () | _ -> failwith "shutdown not acknowledged");
  close_out d.oc;
  close_in d.ic;
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Spawn-to-first-pong, [reps] times; the last daemon stays up. *)
let start_daemon path ~reps =
  let rec go i acc =
    let t0 = now () in
    let d = spawn path in
    (match control d P.Ping with P.Pong -> () | _ -> failwith "ping not answered");
    let acc = (now () -. t0) :: acc in
    if i + 1 < reps then begin
      stop d;
      go (i + 1) acc
    end
    else (d, acc)
  in
  go 0 []

(* In-process reference solve of one (hot graph, problem) pair. *)
let reference_solve gseed problem =
  let g = Gen.random_tree ~n:serve_n ~seed:gseed in
  let ids = Ids.permuted ~n:(Graph.n_nodes g) ~seed:(gseed + 1) in
  let answer r = (P.digest_labeling ~graph:g r.Pipeline.labeling, r.total_rounds, r.valid) in
  match problem with
  | "mis" -> answer (Pipeline.mis_on_tree ~tree:g ~ids ())
  | "matching" -> answer (Pipeline.matching_on_graph ~graph:g ~a:1 ~ids ())
  | _ -> answer (Pipeline.edge_coloring_on_graph ~graph:g ~a:1 ~ids ())

type served = { latency : float; exec : float option; traced : bool; rounds : int }

(* Closed loop on one connection with two requests in flight: the next
   request is written as soon as a response is read. Requests cycle
   through the three problems; every other one is on one of the
   [hot_specs] graphs (picked by the seeded generator), the rest on a
   graph seed never used before. *)
let serve_loop d ~seed ~seconds ~want_span ~references =
  let st = Random.State.make [| seed |] in
  let base_seed = seed * 1_000_000 in
  let inflight = Queue.create () in
  let results = ref [] in
  let issued = ref 0 in
  let issue () =
    let i = !issued in
    incr issued;
    let problem = problems.(i mod Array.length problems) in
    let hot = i mod 2 = 0 in
    let gseed = if hot then base_seed + Random.State.int st hot_specs else base_seed + hot_specs + i in
    let want_span = want_span i in
    let r =
      P.request ~id:(string_of_int i) ~problem ~spec:(spec_of gseed) ~engine:"seq" ~pool:1
        ~want_span ()
    in
    send d (P.request_to_json r);
    Queue.push (r, (if hot then Some (gseed, problem) else None), now ()) inflight
  in
  let t_start = now () in
  issue ();
  issue ();
  while not (Queue.is_empty inflight) do
    let resp = recv d in
    let t = now () in
    let r, hot, t_sent = Queue.pop inflight in
    incr attempted;
    (if resp.P.rid <> r.P.id then fail "response %s out of order (expected %s)" resp.rid r.id
     else
       match resp.outcome with
       | P.Solved s ->
         if not s.valid then fail "request %s: valid=false" r.id;
         (match hot with
         | Some key ->
           let digest, rounds, _ = Hashtbl.find references key in
           if digest <> s.digest || rounds <> s.total_rounds then
             fail "request %s: digest %s rounds %d, in-process %s rounds %d" r.id s.digest
               s.total_rounds digest rounds
         | None -> ());
         let exec =
           Option.bind s.span (fun j ->
               Option.bind (Json.member "span" j) (fun sp ->
                   Option.bind (Json.member "elapsed_s" sp) Json.to_float))
         in
         results :=
           { latency = t -. t_sent; exec; traced = r.want_span; rounds = s.total_rounds }
           :: !results
       | P.Error (kind, msg) -> fail "request %s: %s: %s" r.id (P.error_kind_to_string kind) msg
       | _ -> fail "request %s: unexpected control answer" r.id);
    if now () -. t_start < seconds || !issued < min_requests then issue ()
  done;
  (List.rev !results, now () -. t_start)

(* (digest, rounds, valid) of every (hot graph, problem) pair, solved
   in process: what every daemon answer on a hot spec must repeat. *)
let references ~seed =
  let refs = Hashtbl.create 32 in
  for h = 0 to hot_specs - 1 do
    Array.iter
      (fun problem ->
        let gseed = (seed * 1_000_000) + h in
        attempt "reference solve" (fun () ->
            let ((_, _, valid) as r) = reference_solve gseed problem in
            if not valid then fail "in-process %s on seed %d invalid" problem gseed;
            Hashtbl.replace refs (gseed, problem) r))
      problems
  done;
  refs

let stats d =
  match control d P.Stats with
  | P.Stats_report kvs -> fun key -> float_of_int (Option.value ~default:0 (List.assoc_opt key kvs))
  | _ -> failwith "stats not answered"

let run_serve ~daemon_path ~seed ~seconds =
  let references = references ~seed in
  let d, setups = start_daemon daemon_path ~reps:15 in
  let results, wall = serve_loop d ~seed ~seconds ~want_span:(fun _ -> false) ~references in
  let rss = vm_hwm_mb (Some d.pid) in
  stop d;
  let lat = List.map (fun r -> r.latency) results in
  Printf.printf "served %d requests in %.2f s\n" (List.length results) wall;
  [
    ("setup_s", median setups);
    ("solve_s", median lat);
    ("rounds", median (List.map (fun r -> float_of_int r.rounds) results));
    ("peak_rss_mb", rss);
    ("req_p50_ms", 1000.0 *. median lat);
    ("req_p95_ms", 1000.0 *. percentile 0.95 lat);
    ("req_per_s", float_of_int (List.length results) /. wall);
  ]

(* Traced serve-mix: every other request asks for its span report; the
   server's "serve:request" span is its exec time, the rest of the
   client latency is queue wait, IO and instance construction. *)
let trace_serve ~daemon_path ~seed ~seconds =
  let references = references ~seed in
  let d, _ = start_daemon daemon_path ~reps:1 in
  let results, _ = serve_loop d ~seed ~seconds ~want_span:(fun i -> i / 2 mod 2 = 1) ~references in
  let stat = stats d in
  stop d;
  let traced = List.filter (fun r -> r.traced) results in
  let plain = List.filter (fun r -> not r.traced) results in
  let execs = List.filter_map (fun r -> r.exec) traced in
  let waits = List.filter_map (fun r -> Option.map (fun e -> r.latency -. e) r.exec) traced in
  let lat rs = median (List.map (fun r -> r.latency) rs) in
  let hits = stat "serve:cache_hit" and misses = stat "serve:cache_miss" in
  if List.length execs <> List.length traced then fail "traced response without a span report";
  [
    ("tl_serve.exec_ms", 1000.0 *. median execs);
    ("tl_serve.wait_p95_ms", 1000.0 *. percentile 0.95 waits);
    ("tl_serve.cache_hit_ratio", hits /. Float.max 1.0 (hits +. misses));
    ("tl_serve.batches", stat "batches");
    ("tl_serve.max_batch", stat "max_batch");
    ("tl_obs.trace_overhead_frac", (lat traced /. lat plain) -. 1.0);
    ("tl_obs.unattributed_frac", 1.0 -. (median execs /. lat traced));
  ]

(* ---------- output ---------- *)

(* Names and units come from BENCHMARK.json, the benchmark's definition:
   every end-to-end (trace 0) or per-layer (trace 1) metric it lists is
   printed. A per-layer metric of a layer the workload does not run
   reads 0; any other gap counts as a failure. *)
let emit ~trace measured =
  let str k j = Option.get (Option.bind (Json.member k j) Json.to_str) in
  let listed =
    Json.member (if trace then "per_layer" else "end_to_end") (Json.parse_file "BENCHMARK.json")
    |> Fun.flip Option.bind Json.to_list |> Option.get
    |> List.map (fun m -> (str "name" m, str "unit" m))
  in
  List.iter
    (fun (name, _) -> if not (List.mem_assoc name listed) then fail "%s is not in BENCHMARK.json" name)
    measured;
  let value name =
    match List.assoc_opt name measured with
    | Some v when Float.is_finite v -> v
    | None when trace -> 0.0
    | _ ->
      fail "%s was not measured" name;
      0.0
  in
  let values = List.map (fun (name, unit) -> (name, value name, unit)) listed in
  List.iter (fun (name, v, unit) -> Printf.printf "%-32s %16.6f %s\n" name v unit) values;
  let attempted = max 1 (max !attempted !failed) in
  Printf.printf "error_rate %d/%d = %g\n" !failed attempted
    (float_of_int !failed /. float_of_int attempted);
  Json.Obj
    [
      ("correct", Json.Bool (!failed = 0));
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int !failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             values) );
    ]
  |> Json.to_line |> print_string

let () =
  let workload_name = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let daemon_path = ref "_build/default/bin/tree_local_serve.exe" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--daemon", Arg.Set_string daemon_path, "PATH tree_local_serve.exe");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  Tl_engine.Engine.default_mode := Tl_engine.Engine.Seq;
  Tl_engine.Pool.default_workers := 1;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d ocaml=%s nproc=%d\n%!"
    !workload_name !seed !seconds !trace Sys.ocaml_version
    (Domain.recommended_domain_count ());
  let seed = !seed and seconds = !seconds in
  let w = workload !workload_name in
  (match w with
  | Pipe p -> Printf.printf "instance: %s, default k\n%!" p.params
  | Serve ->
    Printf.printf "instance: random-tree n=%d, %d hot specs, %d requests at least\n%!" serve_n
      hot_specs min_requests);
  match (w, !trace) with
  | Pipe p, 0 -> emit ~trace:false (run_pipeline p ~seed ~seconds)
  | Pipe p, _ -> emit ~trace:true (trace_pipeline p ~seed)
  | Serve, 0 -> emit ~trace:false (run_serve ~daemon_path:!daemon_path ~seed ~seconds)
  | Serve, _ -> emit ~trace:true (trace_serve ~daemon_path:!daemon_path ~seed ~seconds)
