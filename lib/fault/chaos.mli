(** Chaos runs: drive a workload under an armed fault schedule, repair
    the damage, and prove the surviving graph valid.

    A chaos run is an {e epoch loop}. Each epoch compiles the current
    surviving view ({!Tl_engine.Topology.compile_cached} — repeated
    epochs over an unchanged view reuse one snapshot) and runs the
    workload kernel in the chosen engine mode from the current labels.
    The armed {!Injector} gate interrupts the run at the round boundary
    before the next crash / recover event; the orchestrator then applies
    the topology surgery ([hide_node] for crashes — a generation bump
    that invalidates every cached artifact; a fresh
    [Semi_graph.of_node_subset] for recoveries, since views only
    shrink), repairs any staleness the surgery created, and loops. When
    a run converges {e before} the next scheduled event, the clock
    fast-forwards to the event's round — converged rounds are no-ops, so
    the schedule's absolute rounds stay meaningful.

    Staleness, not completeness, is what fault-time repair restores: a
    mid-run labeling is allowed to be unconverged (flooding still
    spreading, MIS nodes still undecided) but never {e wrong} (a
    reached flag outside the source's component, an MIS [out] without a
    witness). The full validity predicate of {!Repair} is asserted once,
    after the final epoch converges — with one last repair pass if link
    drops left stale ghosts behind.

    Proc-backend kills surface as [Tl_proc.Wire.Proc_failure]; the
    orchestrator catches them, counts a retry, and re-runs the epoch
    from its starting labels — the injector has already consumed the
    kill, so the retry completes. The socketpair topology cannot be
    rebuilt per-worker, so recovery granularity is the epoch, not the
    round.

    Everything is deterministic: same (graph, problem, schedule, mode) —
    identical applied log, repair counts and final labeling digest,
    across all engine modes. *)

module Graph = Tl_graph.Graph

type problem =
  | Flood of { source : int }
  | Mis of { ids : int array }  (** per-node comparison keys, length n *)

val problem_name : problem -> string

type report = {
  problem : string;
  mode : string;
  n : int;
  epochs : int;  (** engine runs (excluding proc retries) *)
  retries : int;  (** proc epochs re-run after a kill / timeout *)
  rounds : int;  (** executed rounds, summed over epochs *)
  horizon : int;  (** last absolute schedule round reached *)
  crashes : int;
  recoveries : int;
  drops : int;  (** link-drop events that actually suppressed traffic *)
  kills : int;
  repairs : int;  (** repair invocations that found damage *)
  relabeled : int;  (** total labels rewritten / reset by repairs *)
  repair_region : int;  (** total nodes of re-solved regions *)
  repair_s : float;  (** total wall-clock spent repairing *)
  valid : bool;  (** final full validity on the surviving graph *)
  survivors : int;  (** present nodes at the end *)
  digest : int64;  (** FNV-1a of (node, label) over survivors *)
  log : (int * Injector.applied) list;  (** applied events, firing order *)
  labels : int array;  (** final labeling, indexed by base node id *)
}

val run :
  ?sched:Tl_engine.Engine.scheduling ->
  ?max_rounds:int ->
  graph:Graph.t ->
  problem:problem ->
  schedule:Schedule.t ->
  unit ->
  report
(** Arm the schedule, drive the epoch loop, disarm (also on raise).
    Every epoch runs on {!Tl_engine.Engine.default_mode} (scope it with
    {!Tl_engine.Engine.with_knobs}); the report names that mode.
    [max_rounds] bounds each single epoch (default [4 * n + 64]).
    Raises [Invalid_argument] if an injector is already armed or the
    schedule names out-of-range ids, [Failure] if a fault-time repair
    fails to clear the staleness it targets. The final [valid] flag is
    reported, not raised on — callers (the CLI [chaos] command, the
    smoke test) decide the exit code. *)

val digest_labels : present:bool array -> labels:int array -> int64
(** The report's digest function, exposed for differential tests. *)

val report_to_json : report -> Tl_obs.Json.t
(** Everything except [labels] (the digest stands in for them). *)
