module Graph = Tl_graph.Graph
module Semi_graph = Tl_graph.Semi_graph
module Engine = Tl_engine.Engine
module Topology = Tl_engine.Topology
module Span = Tl_obs.Span
module Metrics = Tl_obs.Metrics
module Json = Tl_obs.Json

type problem = Flood of { source : int } | Mis of { ids : int array }

let problem_name = function Flood _ -> "flood" | Mis _ -> "mis"

type report = {
  problem : string;
  mode : string;
  n : int;
  epochs : int;
  retries : int;
  rounds : int;
  horizon : int;
  crashes : int;
  recoveries : int;
  drops : int;
  kills : int;
  repairs : int;
  relabeled : int;
  repair_region : int;
  repair_s : float;
  valid : bool;
  survivors : int;
  digest : int64;
  log : (int * Injector.applied) list;
  labels : int array;
}

(* FNV-1a over (node, label) pairs of the surviving nodes *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_int h x =
  let h = ref h and x = ref x in
  for _ = 0 to 7 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (!x land 0xff))) fnv_prime;
    x := !x asr 8
  done;
  !h

let digest_labels ~present ~labels =
  let h = ref fnv_offset in
  Array.iteri
    (fun v p -> if p then h := fnv_int (fnv_int !h v) labels.(v))
    present;
  !h

(* staleness: mid-run damage that continued rounds cannot undo *)

let stale_flood ~sg ~source ~labels =
  let n = Graph.n_nodes (Semi_graph.base sg) in
  let stale = ref false in
  if not (Semi_graph.node_present sg source) then
    for v = 0 to n - 1 do
      if Semi_graph.node_present sg v && labels.(v) = 1 then stale := true
    done
  else begin
    let dist = Semi_graph.underlying_distances sg source in
    for v = 0 to n - 1 do
      if Semi_graph.node_present sg v && labels.(v) = 1 && dist.(v) < 0 then
        stale := true
    done
  end;
  !stale

let stale_mis ~sg ~labels =
  List.exists
    (fun v ->
      let s = labels.(v) in
      if s <> 1 && s <> 2 then false
      else
        let has_in =
          List.exists
            (fun (u, _) -> labels.(u) = 1)
            (Semi_graph.rank2_neighbors sg v)
        in
        if s = 1 then has_in else not has_in)
    (Semi_graph.nodes sg)

let m_deaths = lazy (Metrics.counter "fault_deaths_total")
let m_recoveries = lazy (Metrics.counter "fault_recoveries_total")
let m_repairs = lazy (Metrics.counter "fault_repairs_total")
let m_relabeled = lazy (Metrics.counter "fault_relabeled_total")
let m_repair_hist = lazy (Metrics.histogram "fault_repair_seconds")

let run ?(sched = Engine.Active_set) ?max_rounds ~graph ~problem ~schedule () =
  let mode = !Engine.default_mode in
  let n = Graph.n_nodes graph in
  let max_rounds =
    match max_rounds with Some m -> m | None -> (4 * n) + 64
  in
  let init0 =
    match problem with
    | Flood { source } ->
      if source < 0 || source >= n then
        invalid_arg "Chaos.run: flood source out of range";
      Repair.flood_init ~source
    | Mis { ids } ->
      if Array.length ids <> n then
        invalid_arg "Chaos.run: ids length mismatch";
      Repair.mis_init
  in
  let inj = Injector.arm schedule ~n in
  Fun.protect ~finally:(fun () -> Injector.disarm inj) @@ fun () ->
  let present = Array.make n true in
  let sg = ref (Semi_graph.of_node_subset graph present) in
  let labels = Array.init n init0 in
  let base = ref 0 in
  let epochs = ref 0 in
  let retries = ref 0 in
  let rounds = ref 0 in
  let repairs = ref 0 in
  let relabeled = ref 0 in
  let repair_region = ref 0 in
  let repair_s = ref 0.0 in
  let run_epoch topo =
    match problem with
    | Flood _ ->
      Engine.run_until_stable ~sched ~label:"chaos" ~topo
        ~init:(fun v -> labels.(v))
        ~step:Repair.flood_step ~equal:Int.equal ~max_rounds ()
    | Mis { ids } ->
      Engine.run ~sched ~label:"chaos" ~topo
        ~init:(fun v -> labels.(v))
        ~step:(Repair.mis_step ~ids) ~halted:Repair.mis_halted ~max_rounds ()
  in
  let run_epoch_retrying topo =
    let rec attempt k =
      try run_epoch topo
      with Tl_proc.Wire.Proc_failure _ when k < 8 ->
        incr retries;
        attempt (k + 1)
    in
    attempt 0
  in
  let is_stale () =
    match problem with
    | Flood { source } -> stale_flood ~sg:!sg ~source ~labels
    | Mis _ -> stale_mis ~sg:!sg ~labels
  in
  let timed_repair ~suspects =
    let t0 = Unix.gettimeofday () in
    let st =
      match problem with
      | Flood { source } ->
        Repair.repair_flood ~sg:!sg ~source ~labels ~suspects
      | Mis { ids } -> Repair.repair_mis ~graph ~sg:!sg ~ids ~labels
    in
    let dt = Unix.gettimeofday () -. t0 in
    incr repairs;
    relabeled := !relabeled + st.Repair.relabeled;
    repair_region := !repair_region + st.Repair.region;
    repair_s := !repair_s +. dt;
    if Metrics.enabled () then begin
      Metrics.incr (Lazy.force m_repairs) 1;
      Metrics.incr (Lazy.force m_relabeled) st.Repair.relabeled;
      Metrics.observe (Lazy.force m_repair_hist) dt
    end;
    Span.with_span "fault:repair" (fun () ->
        Span.add_counter "relabeled" st.Repair.relabeled;
        Span.add_counter "region" st.Repair.region);
    st
  in
  let apply_events events =
    let suspects = ref [] in
    let any_recover = ref false in
    let deaths = ref 0 in
    let recovered = ref 0 in
    List.iter
      (fun ev ->
        match ev with
        | Schedule.Crash v ->
          if present.(v) then begin
            present.(v) <- false;
            Semi_graph.hide_node !sg v;
            incr deaths;
            Array.iter
              (fun u -> if present.(u) then suspects := u :: !suspects)
              (Graph.neighbors graph v)
          end
        | Schedule.Recover v ->
          if not present.(v) then begin
            present.(v) <- true;
            labels.(v) <- init0 v;
            any_recover := true;
            incr recovered;
            suspects := v :: !suspects
          end
        | Schedule.Drop _ | Schedule.Kill _ -> ())
      events;
    if !any_recover then sg := Semi_graph.of_node_subset graph present;
    if Metrics.enabled () then begin
      if !deaths > 0 then Metrics.incr (Lazy.force m_deaths) !deaths;
      if !recovered > 0 then Metrics.incr (Lazy.force m_recoveries) !recovered
    end;
    List.rev !suspects
  in
  let finished = ref false in
  Span.with_span "fault:chaos"
    ~attrs:
      [
        ("problem", problem_name problem);
        ("mode", Engine.mode_to_string mode);
      ]
  @@ fun () ->
  while not !finished do
    incr epochs;
    Injector.set_base inj !base;
    let topo = Topology.compile_cached !sg in
    let outcome = run_epoch_retrying topo in
    Array.iter
      (fun v -> labels.(v) <- outcome.Engine.states.(v))
      topo.Topology.present_nodes;
    base := !base + outcome.Engine.rounds;
    rounds := !rounds + outcome.Engine.rounds;
    match Injector.next_topo_round inj with
    | None -> finished := true
    | Some r ->
      (* converged before the event round: the schedule clock keeps
         ticking through no-op rounds *)
      if !base < r then base := r;
      let events = Injector.take_topo_due inj ~round:!base in
      let suspects = apply_events events in
      if is_stale () then begin
        let _ = timed_repair ~suspects in
        if is_stale () then
          failwith "Chaos.run: repair left stale labels behind"
      end
  done;
  (* final validity on the surviving graph; link drops can leave stale
     ghosts that only show up here — heal and re-check once *)
  let full_check () =
    match problem with
    | Flood { source } -> Repair.check_flood ~sg:!sg ~source ~labels
    | Mis { ids = _ } -> Repair.check_mis ~sg:!sg ~labels
  in
  let valid =
    if full_check () then true
    else begin
      let everyone =
        match problem with
        | Flood _ -> Semi_graph.nodes !sg
        | Mis _ -> []
      in
      let _ = timed_repair ~suspects:everyone in
      full_check ()
    end
  in
  let survivors = Semi_graph.n_present_nodes !sg in
  let crashes, recoveries, drops, kills = Injector.counts inj in
  {
    problem = problem_name problem;
    mode = Engine.mode_to_string mode;
    n;
    epochs = !epochs;
    retries = !retries;
    rounds = !rounds;
    horizon = !base;
    crashes;
    recoveries;
    drops;
    kills;
    repairs = !repairs;
    relabeled = !relabeled;
    repair_region = !repair_region;
    repair_s = !repair_s;
    valid;
    survivors;
    digest = digest_labels ~present ~labels;
    log = Injector.log inj;
    labels;
  }

let report_to_json r =
  Json.Obj
    [
      ("problem", Json.Str r.problem);
      ("mode", Json.Str r.mode);
      ("n", Json.Num (float_of_int r.n));
      ("epochs", Json.Num (float_of_int r.epochs));
      ("retries", Json.Num (float_of_int r.retries));
      ("rounds", Json.Num (float_of_int r.rounds));
      ("horizon", Json.Num (float_of_int r.horizon));
      ("crashes", Json.Num (float_of_int r.crashes));
      ("recoveries", Json.Num (float_of_int r.recoveries));
      ("drops", Json.Num (float_of_int r.drops));
      ("kills", Json.Num (float_of_int r.kills));
      ("repairs", Json.Num (float_of_int r.repairs));
      ("relabeled", Json.Num (float_of_int r.relabeled));
      ("repair_region", Json.Num (float_of_int r.repair_region));
      ("repair_s", Json.Num r.repair_s);
      ("valid", Json.Bool r.valid);
      ("survivors", Json.Num (float_of_int r.survivors));
      ("digest", Json.Str (Printf.sprintf "%016Lx" r.digest));
      ( "log",
        Json.Arr
          (List.map
             (fun (round, a) ->
               Json.Obj
                 [
                   ("round", Json.Num (float_of_int round));
                   ("event", Json.Str (Injector.applied_to_string a));
                 ])
             r.log) );
    ]
