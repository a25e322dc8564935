module Json = Tl_obs.Json
module Span = Tl_obs.Span
module Report = Tl_obs.Report
module Metrics = Tl_obs.Metrics
module Graph = Tl_graph.Graph
module Gen = Tl_graph.Gen
module Semi_graph = Tl_graph.Semi_graph
module Ids = Tl_local.Ids
module Round_cost = Tl_local.Round_cost
module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Plan = Tl_shard.Plan
module Pipeline = Tl_core.Pipeline
module P = Protocol

type config = { depth : int; cache_slots : int; max_n : int }

let default_config = { depth = 64; cache_slots = 32; max_n = 2_000_000 }

let now = Unix.gettimeofday

(* Serving counters live in the process-wide metrics registry (the
   [metrics] control scrapes them); each server value remembers the
   registry values at creation and reports deltas, so the [stats]
   control keeps its per-server semantics (and its exact JSON shape)
   while every increment feeds the registry. *)
let m_received = Metrics.counter "serve_received_total"
let m_served = Metrics.counter "serve_served_total"
let m_rejected = Metrics.counter "serve_rejected_total"
let m_errors = Metrics.counter "serve_errors_total"
let m_batches = Metrics.counter "serve_batches_total"
let m_cache_hits = Metrics.counter "serve_cache_hits_total"
let m_cache_misses = Metrics.counter "serve_cache_misses_total"
let g_jobq = Metrics.gauge "serve_jobq_depth"
let g_max_batch = Metrics.gauge "serve_max_batch"
let h_latency = Metrics.histogram "serve_request_seconds"
let h_batch = Metrics.histogram "serve_batch_size"

(* One cached instance per spec key. The semi-graph is lazy so pipeline
   problems (which build their own internal views) never pay for it;
   engine kernels (flood) force it once per instance, which is what
   makes warm same-topology requests hit Topology.compile_cached and
   Plan.build_cached instead of recompiling. *)
type instance = {
  graph : Graph.t;
  ids : int array;
  sg : Semi_graph.t Lazy.t;
}

type t = {
  cfg : config;
  queue : (int * P.request) Jobq.t;
  cache : (string, instance) Hashtbl.t;
  cache_order : string Queue.t;
  base : (Metrics.counter * int) list;  (* registry values at creation *)
  mutable max_batch : int;  (* a maximum, not a counter: kept per server *)
  mutable shutdown : bool;
}

let create ?(config = default_config) () =
  if config.cache_slots < 0 then invalid_arg "Server.create: cache_slots < 0";
  if config.max_n < 1 then invalid_arg "Server.create: max_n < 1";
  (* every daemon turns the registry (and the engine bridge) on: the
     metrics control must see live engine/shard/pool counters too *)
  Metrics.enable ();
  {
    cfg = config;
    queue = Jobq.create ~depth:config.depth;
    cache = Hashtbl.create 64;
    cache_order = Queue.create ();
    base =
      List.map
        (fun c -> (c, Metrics.counter_value c))
        [ m_received; m_served; m_rejected; m_errors; m_batches; m_cache_hits;
          m_cache_misses ];
    max_batch = 0;
    shutdown = false;
  }

let config t = t.cfg
let shutdown_requested t = t.shutdown

let stats t =
  let topo_h, topo_m = Topology.cache_stats () in
  let plan_h, plan_m = Plan.cache_stats () in
  let delta c = Metrics.counter_value c - List.assq c t.base in
  [
    ("received", delta m_received);
    ("served", delta m_served);
    ("rejected", delta m_rejected);
    ("errors", delta m_errors);
    ("batches", delta m_batches);
    ("max_batch", t.max_batch);
    ("queue_depth", t.cfg.depth);
    ("serve:cache_hit", delta m_cache_hits);
    ("serve:cache_miss", delta m_cache_misses);
    ("topo:cache_hit", topo_h);
    ("topo:cache_miss", topo_m);
    ("plan:cache_hit", plan_h);
    ("plan:cache_miss", plan_m);
  ]

(* ---------- instances ---------- *)

let build_instance spec =
  let graph, seed =
    match spec with
    | P.Edges { n; edges; seed } -> (Graph.of_edges ~n edges, seed)
    | P.Family { family; n; seed; a; delta } ->
      (Gen.of_family family ~n ~seed ~a ~delta, seed)
  in
  (* same ID derivation as the CLI: permuted on seed + 1 *)
  let ids = Ids.permuted ~n:(Graph.n_nodes graph) ~seed:(seed + 1) in
  { graph; ids; sg = lazy (Semi_graph.of_graph graph) }

(* FIFO-bounded lookup; counts a hit/miss in the server stats and
   returns whether this call was served from cache. *)
let instance t spec =
  let key = P.spec_key spec in
  match Hashtbl.find_opt t.cache key with
  | Some inst ->
    Metrics.incr m_cache_hits 1;
    (inst, true)
  | None ->
    Metrics.incr m_cache_misses 1;
    let inst = build_instance spec in
    if t.cfg.cache_slots > 0 then begin
      while Queue.length t.cache_order >= t.cfg.cache_slots do
        Hashtbl.remove t.cache (Queue.pop t.cache_order)
      done;
      Hashtbl.add t.cache key inst;
      Queue.push key t.cache_order
    end;
    (inst, false)

(* ---------- validation ---------- *)

(* What a request runs: a row of the pipeline table, or one of the two
   daemon-only kernels — flooding (any pipeline method name) and a
   fault-schedule run of flood or MIS. *)
type job = Row of Pipeline.row | Flood | Chaos

let job_of (r : P.request) =
  match (r.problem, r.method_) with
  | ("flood" | "mis"), "chaos" -> Ok Chaos
  | "flood", ("transform" | "direct" | "baseline") -> Ok Flood
  | "flood", m -> Error (Printf.sprintf "problem \"flood\" has no method %S" m)
  | problem, method_ ->
    Result.map (fun row -> Row row) (Pipeline.lookup ~problem ~method_)

(* The daemon accepts the inline fault-spec forms only (compact grammar
   or inline JSON) — never a client-named file path. *)
let parse_faults = function
  | None -> Ok Tl_fault.Schedule.empty
  | Some s ->
    if String.length s > 0 && s.[0] = '{' then (
      match Json.parse s with
      | j -> Tl_fault.Schedule.of_json j
      | exception Json.Parse_error msg -> Error ("faults: " ^ msg))
    else Tl_fault.Schedule.of_spec s

let validate t (r : P.request) =
  let ( let* ) = Result.bind in
  let n = P.spec_n r.spec in
  let* job = job_of r in
  let* () =
    match (r.spec, job) with
    | P.Family { family; _ }, _ when not (List.mem family Gen.families) ->
      Error (Printf.sprintf "unknown family %S" family)
    | _ when n > t.cfg.max_n ->
      Error
        (Printf.sprintf "instance size %d exceeds the admission limit %d" n
           t.cfg.max_n)
    | _, Chaos -> Result.map ignore (parse_faults r.faults)
    | _ -> Ok ()
  in
  let* mode = P.resolve_knobs ~engine:r.engine ~shards:r.shards ~pool:r.pool ~n in
  Ok (job, mode)

(* ---------- execution ---------- *)

(* The measured engine rounds of a request: every engine run inside the
   request span is one "engine:<label>" descendant carrying its rounds. *)
let rec engine_rounds span =
  let own =
    if String.starts_with ~prefix:"engine:" (Span.name span) then
      Option.value ~default:0 (List.assoc_opt "rounds" (Span.counters span))
    else 0
  in
  List.fold_left (fun acc c -> acc + engine_rounds c) own (Span.children span)

(* A job's result; [exec] stamps the engine rounds, cache flag and span. *)
let solved ~digest ~rounds ~ledger ~valid =
  { P.digest; total_rounds = rounds; ledger; valid; engine_rounds = 0;
    cache_hit = false; span = None }

(* Flooding to a fixed point from node 0 — the repo's engine-kernel
   workhorse, served straight off the cached semi-graph: warm requests
   hit Topology.compile_cached (and Plan.build_cached in shard mode). *)
let flood inst =
  let topo = Topology.compile_cached (Lazy.force inst.sg) in
  let n = Graph.n_nodes inst.graph in
  let o =
    Engine.run_until_stable ~label:"serve:flood" ~topo
      ~init:(fun v -> v = 0)
      ~step:(fun ~round:_ ~node:_ s ~neighbors ->
        s || List.exists (fun (_, _, su) -> su) neighbors)
      ~equal:Bool.equal ~max_rounds:(n + 1) ()
  in
  let cost = Round_cost.create () in
  Round_cost.charge cost "flood" o.Engine.rounds;
  solved
    ~digest:(P.digest_array (fun b -> if b then 1 else 0) o.Engine.states)
    ~rounds:o.Engine.rounds ~ledger:(Round_cost.phases cost) ~valid:true

(* A chaos run builds its own presence-masked views over the instance
   graph (crashes shrink them in place), so it must never touch the
   cached [inst.sg] — warm non-chaos requests keep their snapshot. *)
let chaos (r : P.request) inst =
  let schedule = Result.fold ~ok:Fun.id ~error:failwith (parse_faults r.faults) in
  let problem =
    match r.problem with
    | "flood" -> Tl_fault.Chaos.Flood { source = 0 }
    | _ -> Tl_fault.Chaos.Mis { ids = inst.ids }
  in
  let rep = Tl_fault.Chaos.run ~graph:inst.graph ~problem ~schedule () in
  Span.add_counter "fault:crashes" rep.Tl_fault.Chaos.crashes;
  Span.add_counter "fault:recoveries" rep.Tl_fault.Chaos.recoveries;
  Span.add_counter "fault:drops" rep.Tl_fault.Chaos.drops;
  Span.add_counter "fault:repairs" rep.Tl_fault.Chaos.repairs;
  Span.add_counter "fault:relabeled" rep.Tl_fault.Chaos.relabeled;
  solved
    ~digest:(Printf.sprintf "%016Lx" rep.Tl_fault.Chaos.digest)
    ~rounds:rep.Tl_fault.Chaos.rounds
    ~ledger:
      [
        ("chaos", rep.Tl_fault.Chaos.rounds);
        ("repair", rep.Tl_fault.Chaos.repairs);
      ]
    ~valid:rep.Tl_fault.Chaos.valid

let dispatch (r : P.request) job inst =
  match job with
  | Chaos -> chaos r inst
  | Flood -> flood inst
  | Row row -> (
    let a = match r.spec with P.Family { a; _ } -> a | P.Edges _ -> 1 in
    match Pipeline.solve row ?k:r.k ~graph:inst.graph ~a ~ids:inst.ids () with
    | Ok (Pipeline.Solved rep) ->
      solved ~digest:(P.digest_labeling ~graph:inst.graph rep.labeling)
        ~rounds:rep.total_rounds ~ledger:(Round_cost.phases rep.cost)
        ~valid:rep.valid
    | Error msg -> failwith msg)

let error_message = function
  | Failure msg -> msg
  | Invalid_argument msg -> msg
  | e -> Printexc.to_string e

(* Raised by exec when a post-build admission check fails; answered as
   a bad_request, not a generic failure. *)
exception Inadmissible of string

(* Execute one validated request under its knobs, inside a per-request
   span whose report (phases, round charges, engine child spans) goes
   back to the client on demand. *)
let exec t (r : P.request) ~job ~mode =
  let inst, cache_hit = instance t r.spec in
  (* grid/planar/caterpillar build close to — not exactly — the spec's
     n, so the shard bound admitted against the declared n must be
     re-checked against the graph that was actually built *)
  (match mode with
  | (Engine.Shard c | Engine.Proc c) when c > Graph.n_nodes inst.graph ->
    raise
      (Inadmissible
         (Printf.sprintf
            "%s count %d exceeds the built instance size %d (the spec's n = \
             %d is approximate for this family)"
            (match mode with Engine.Shard _ -> "shard" | _ -> "proc")
            c (Graph.n_nodes inst.graph) (P.spec_n r.spec)))
  | _ -> ());
  let s, span =
    Span.run "serve:request" (fun () ->
        Span.set_attr "problem" r.problem;
        Span.set_attr "method" r.method_;
        Span.set_attr "engine" (Engine.mode_to_string mode);
        Span.set_attr "pool" (string_of_int r.pool);
        Span.set_attr "spec" (P.spec_key r.spec);
        Span.add_counter "serve:cache_hit" (if cache_hit then 1 else 0);
        Span.add_counter "serve:cache_miss" (if cache_hit then 0 else 1);
        Engine.with_knobs ~mode ~workers:r.pool (fun () -> dispatch r job inst))
  in
  {
    s with
    P.engine_rounds = engine_rounds span;
    cache_hit;
    span = (if r.want_span then Some (Report.to_json span) else None);
  }

let knobs_of (r : P.request) =
  Printf.sprintf "%s/%s engine=%s shards=%d pool=%d" r.problem r.method_
    r.engine r.shards r.pool

let record_request (r : P.request) ~outcome ~latency_s =
  Metrics.Recorder.record
    {
      Metrics.Recorder.ts = now ();
      kind = "request";
      key = P.spec_key r.spec;
      detail = knobs_of r;
      outcome;
      latency_s;
    }

(* Error accounting: count, flight-record, and dump the recorder's
   recent past to stderr — a failed request carries its own context out
   of the daemon instead of leaving "it was slow" unanswerable. *)
let fail (r : P.request) ~t0 ~kind msg =
  Metrics.incr m_errors 1;
  record_request r
    ~outcome:("error:" ^ P.error_kind_to_string kind)
    ~latency_s:(now () -. t0);
  Metrics.Recorder.dump ~limit:4 stderr;
  { P.rid = r.id; outcome = P.Error (kind, msg) }

(* Validate and execute an already-admitted job (the request was
   validated at admission, so a validation error here is impossible in
   practice — still handled, for safety). Never raises. *)
let exec_admitted t (r : P.request) =
  let t0 = now () in
  match validate t r with
  | Error msg -> fail r ~t0 ~kind:P.Bad_request msg
  | Ok (job, mode) -> (
    match exec t r ~job ~mode with
    | solved ->
      let dt = now () -. t0 in
      Metrics.incr m_served 1;
      (* the aggregate histogram counts exactly the served requests
         (the metrics-smoke invariant); the labeled one splits the
         distribution per (kernel, engine) *)
      Metrics.observe h_latency dt;
      Metrics.observe
        (Metrics.histogram
           ~labels:
             [
               ("problem", r.problem);
               ("engine", Engine.mode_to_string mode);
             ]
           "serve_request_seconds")
        dt;
      record_request r ~outcome:"ok" ~latency_s:dt;
      { P.rid = r.id; outcome = P.Solved solved }
    | exception Inadmissible msg -> fail r ~t0 ~kind:P.Bad_request msg
    | exception e -> fail r ~t0 ~kind:P.Failed (error_message e))

let handle_request t (r : P.request) =
  Metrics.incr m_received 1;
  exec_admitted t r

(* ---------- the admission / batching / drain cycle ---------- *)

let control_response t id = function
  | P.Ping -> { P.rid = id; outcome = P.Pong }
  | P.Stats -> { P.rid = id; outcome = P.Stats_report (stats t) }
  | P.Metrics ->
    {
      P.rid = id;
      outcome = P.Metrics_report (Metrics.snapshot_to_json (Metrics.snapshot ()));
    }
  | P.Tail ->
    {
      P.rid = id;
      outcome =
        P.Tail_report
          (List.map Metrics.Recorder.event_to_json (Metrics.Recorder.tail ()));
    }
  | P.Shutdown ->
    t.shutdown <- true;
    { P.rid = id; outcome = P.Pong }

(* One cycle over a burst of framed input lines; a line the framer
   refused as too long is answered as bad_request. *)
let cycle t ~max_line lines =
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let slots : P.response option array = Array.make n None in
  let controls = ref [] in
  (* admission *)
  Array.iteri
    (fun i item ->
      match
        match item with
        | Json.Ndjson.Line line -> Json.parse line
        | Json.Ndjson.Too_long ->
          raise
            (Json.Parse_error
               (Printf.sprintf "request line exceeds %d bytes" max_line))
      with
      | exception Json.Parse_error msg ->
        slots.(i) <-
          Some { P.rid = ""; outcome = P.Error (P.Bad_request, msg) }
      | j -> (
        match P.incoming_of_json j with
        | Error msg ->
          let rid =
            Option.value ~default:""
              (Option.bind (Json.member "id" j) Json.to_str)
          in
          slots.(i) <- Some { P.rid; outcome = P.Error (P.Bad_request, msg) }
        | Ok (P.Control (id, c)) -> controls := (i, id, c) :: !controls
        | Ok (P.Request r) -> (
          Metrics.incr m_received 1;
          match validate t r with
          | Error msg ->
            Metrics.incr m_errors 1;
            slots.(i) <-
              Some { P.rid = r.id; outcome = P.Error (P.Bad_request, msg) }
          | Ok _mode ->
            if not (Jobq.admit t.queue (i, r)) then begin
              Metrics.incr m_rejected 1;
              slots.(i) <-
                Some
                  {
                    P.rid = r.id;
                    outcome =
                      P.Error
                        ( P.Rejected,
                          Printf.sprintf "queue full (depth %d)"
                            (Jobq.depth t.queue) );
                  }
            end)))
    lines;
  (* drain, batching same-topology jobs back to back *)
  Metrics.set_gauge g_jobq (Jobq.length t.queue);
  let batch = Jobq.drain t.queue in
  if batch <> [] then begin
    let len = List.length batch in
    Metrics.incr m_batches 1;
    t.max_batch <- max t.max_batch len;
    Metrics.gauge_max g_max_batch len;
    Metrics.observe h_batch (float_of_int len)
  end;
  let by_key = Hashtbl.create 16 in
  List.iter
    (fun (i, r) ->
      let key = P.spec_key r.P.spec in
      Hashtbl.replace by_key key
        ((i, r) :: Option.value ~default:[] (Hashtbl.find_opt by_key key)))
    batch;
  let done_keys = Hashtbl.create 16 in
  List.iter
    (fun (_, r) ->
      let key = P.spec_key r.P.spec in
      if not (Hashtbl.mem done_keys key) then begin
        Hashtbl.add done_keys key ();
        let group = List.rev (Hashtbl.find by_key key) in
        List.iter (fun (i, r) -> slots.(i) <- Some (exec_admitted t r)) group
      end)
    batch;
  Metrics.set_gauge g_jobq (Jobq.length t.queue);
  (* controls observe the cycle's post-batch state *)
  List.iter
    (fun (i, id, c) -> slots.(i) <- Some (control_response t id c))
    (List.rev !controls);
  Array.to_list slots
  |> List.filter_map (Option.map (fun r -> Json.to_line (P.response_to_json r)))

let handle_lines t lines =
  cycle t ~max_line:max_int (List.map (fun l -> Json.Ndjson.Line l) lines)

(* ---------- IO loops ---------- *)

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

(* The longest request line a connection may send: the admission limit
   bounds a request's instance, and 64 bytes per node covers an explicit
   edge list of a sparse graph ("[u,v]," at seven digits a side is 18
   bytes per edge) on top of 64 KiB for everything else. *)
let max_line_bytes cfg = 65536 + (64 * cfg.max_n)

(* Socket I/O rides the process backend's transport loops: reads restart
   on EINTR and park in select on EAGAIN, writes survive partial
   delivery — one hardened implementation for daemon, client and worker
   channels alike. Lines are framed by Json.Ndjson as each chunk
   arrives, so a partial line never holds more than the bound: an
   over-long line is answered with one bad_request, skipped up to its
   newline, and the connection keeps serving. *)
let run_fd t fd_in fd_out =
  let chunk = Bytes.create 65536 in
  let max_line = max_line_bytes t.cfg in
  let reader = Json.Ndjson.reader ~max_line () in
  let eof = ref false in
  let burst = ref [] in
  let rec take () =
    Option.iter
      (fun item ->
        burst := item :: !burst;
        take ())
      (Json.Ndjson.next_line reader)
  in
  let read_once () =
    let n = Tl_proc.Transport.read_some fd_in chunk 0 (Bytes.length chunk) in
    if n = 0 then begin
      eof := true;
      (* a final unterminated line at EOF is still a line *)
      if Json.Ndjson.pending reader <> "" then Json.Ndjson.feed reader "\n"
    end
    else Json.Ndjson.feed reader (Bytes.sub_string chunk 0 n);
    take ()
  in
  let readable_now () =
    match restart_on_eintr (fun () -> Unix.select [ fd_in ] [] [] 0.0) with
    | [ _ ], _, _ -> true
    | _ -> false
  in
  while not (!eof || t.shutdown) do
    (* block for input, then greedily take everything already available
       — that burst is one admission/batching cycle *)
    ignore (restart_on_eintr (fun () -> Unix.select [ fd_in ] [] [] (-1.0)));
    read_once ();
    while (not !eof) && readable_now () do
      read_once ()
    done;
    let lines = List.rev !burst in
    burst := [];
    if lines <> [] then
      List.iter
        (fun resp -> Tl_proc.Transport.write_string fd_out resp)
        (cycle t ~max_line lines)
  done

let serve_stdio t = run_fd t Unix.stdin Unix.stdout

(* Only replace what is provably a stale socket file: probing with a
   connect distinguishes an abandoned socket (ECONNREFUSED) from a live
   daemon, which must not have its socket unlinked out from under it. *)
let claim_socket_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      Fun.protect
        ~finally:(fun () ->
          try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> true
          | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
    in
    if live then
      failwith
        (Printf.sprintf
           "socket %s is in use by a running daemon (shut it down or pick \
            another --socket path)"
           path)
    else Unix.unlink path
  | _ ->
    failwith
      (Printf.sprintf
         "refusing to replace %s: it exists and is not a socket" path)

let listen_unix t ~path =
  claim_socket_path path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 16;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      while not t.shutdown do
        let client, _ = restart_on_eintr (fun () -> Unix.accept sock) in
        (* a dying client must not kill the daemon *)
        (try run_fd t client client
         with Unix.Unix_error _ | Sys_error _ -> ());
        try Unix.close client with Unix.Unix_error _ -> ()
      done)
