(** Deterministic high-performance execution engine for the LOCAL model.

    The one entry point for running a LOCAL algorithm (Definition 5):
    {!run}, {!run_until_stable} and {!run_rounds} over a compiled
    {!Topology} snapshot, on the stepper a call names with [?mode], else
    on {!default_mode}, which only {!with_knobs} sets. The steppers:

    - [Naive] — a faithful port of the original stepper: every present
      node re-steps every round, neighbor lists are gathered through
      {!Tl_graph.Semi_graph.rank2_neighbors}, and states are moved with
      two full array copies per round. Kept as the bit-exact reference
      for differential tests and as the benchmark baseline.
    - [Seq] — single-threaded over the CSR snapshot, double-buffered with
      an O(changed)-cost commit (no full copies) and, under
      [Active_set] scheduling, a frontier queue: only nodes whose 1-hop
      neighborhood changed in the previous round are re-stepped, so
      converged regions cost zero.
    - [Par p] — the [Seq] stepper with the per-round compute fanned out
      over [p] workers of the persistent domain {!Team} (spawned once
      per process, parked on a barrier between rounds) in fixed
      deterministic contiguous chunks of the active array. Reads go to
      the current buffer only and every active node is written by
      exactly one domain, so results are bit-identical to [Seq]
      regardless of [p], the {!par_grain} inline threshold, or thread
      interleaving.
    - [Shard s] — the sharded halo-exchange backend ({!Tl_shard.Shard}):
      the snapshot is partitioned into [s] contiguous shards with ghost
      (halo) copies of remote neighbors, and each round runs as
      {e local step → batched boundary exchange → barrier}. The
      implementation lives in the [tl_shard] library and registers
      itself through {!shard_backend}; running in [Shard] mode without
      that library linked raises [Failure]. Bit-identical to [Seq] under
      the same stationarity contract.
    - [Proc p] — the process-parallel distributed backend
      ([Tl_proc.Coordinator]): the same shard [Plan] geometry, but one
      Unix process per shard, halos exchanged over socketpairs in a
      length-prefixed binary wire format and termination decided by a
      [changed]-count allreduce over a collective tree. Registers
      through {!proc_backend}; running in [Proc] mode without [tl_proc]
      linked raises [Failure]. Bit-identical to [Seq] under the same
      stationarity contract.

    {2 Determinism guarantee}

    For a fixed topology, [init], [step] and ID assignment, all modes and
    schedulings produce bit-identical final states and round counts,
    {e provided} [step] is stationary: its output depends only on the
    node's state and its neighbors' states — not on [~round] — whenever
    those inputs are unchanged from the previous round. (Between rounds
    with different inputs, [step] may use [~round] freely; schedules that
    fire on specific round numbers independently of state, like Linial's
    palette schedule, must use [Full_scan].) Under [Active_set] a node
    with an unchanged closed neighborhood is not re-stepped; stationarity
    is exactly the condition making that skip unobservable.

    {2 One round driver}

    Every mode but [Naive] runs on {!Driver.loop}: the backend supplies
    its initial totals and one [round] function, and the driver supplies
    termination, the {!fault_gate}, the trace lifecycle and the
    failures. All modes raise [Failure] when [max_rounds] is exhausted;
    the driver additionally fails fast when the active set drains while
    unhalted nodes remain (a stationary machine can then never halt —
    the naive stepper would spin to [max_rounds] and raise the same
    way). [Naive] keeps its own loops as the
    independent reference the differential tests compare against.
    Traces go to the caller's [?trace] and to every
    {!Driver.subscribe}r, also when the run raises. *)

type mode = Naive | Seq | Par of int | Shard of int | Proc of int

type scheduling =
  | Active_set  (** re-step only nodes with a changed 1-hop neighborhood *)
  | Full_scan  (** re-step every present node every round *)

val mode_to_string : mode -> string
val sched_to_string : scheduling -> string

val mode_of_string : ?count:int -> string -> mode
(** Parses ["naive"], ["seq"], ["par:N"], ["shard:N"], ["proc:N"]
    (N >= 1), and a bare ["shard"] / ["proc"] as [count] shards /
    processes. Raises [Invalid_argument] with a message naming the
    offending input otherwise — including a bare ["shard"]/["proc"]
    without a [count >= 1], ["par:0"]/["shard:0"]/["proc:0"] (count must
    be >= 1), non-digit or out-of-range counts, and strings with
    surrounding whitespace (callers splitting config lines forget to
    trim; a silent accept here would mask that). *)

val par_grain : int ref
(** Minimum active-set size {e per chunk} for a [Par] round to fan out
    to the domain team: a round fans out only when
    [count > par_grain * p], otherwise it computes inline on the calling
    domain (the barrier handshake costs more than the step work unless
    every worker gets a sizable chunk). Chunk assignment is a pure
    function of the active count, so the grain never changes results —
    only which domain computes them. Default [2048]; tests pin it to
    [0] to force the team on. *)

val default_mode : mode ref
(** Mode used when a run does not specify one. [Seq] initially; set it
    through {!with_knobs}. *)

val with_knobs : ?mode:mode -> ?workers:int -> (unit -> 'a) -> 'a
(** [with_knobs ?mode ?workers f] runs [f] with {!default_mode} and
    {!Pool.default_workers} set to [mode] / [workers] (each unchanged
    when omitted) and restores both afterwards, also when [f] raises:
    the one scope for the process-wide engine knobs. *)

val fault_gate : (round:int -> bool) option ref
(** Fault-injection round gate, owned by [Tl_fault.Injector] (above this
    library in the DAG). The same ref as {!Driver.fault_gate}: the round
    driver consults it once per {e committed} round of every backend
    that runs on it — [Seq], [Par], [Shard], [Proc] and {!Flat} — and
    the [Naive] reference consults it too. [g ~round:r] fires after
    round [r]'s states are published. Returning [false] interrupts the
    run at that round boundary: the run returns the states exactly as
    committed, [rounds] counts only the executed rounds, and the usual
    [max_rounds] [Failure] is suppressed (an interrupted run is not a
    diverged run). The caller that armed the gate is expected to know it
    fired (the injector records the trip) and resume with a fresh run
    over the repaired topology. Disarmed ([None], the default) the gate
    costs one ref read per round and nothing per node. *)

val gate_open : round:int -> bool
(** {!Driver.gate_open}: [true] when no gate is armed or the armed gate
    allows continuing past committed round [round]. *)

type 'state outcome = { states : 'state array; rounds : int }

type 'state step_fn =
  round:int ->
  node:int ->
  'state ->
  neighbors:(int * int * 'state) list ->
  'state
(** [neighbors] lists [(neighbor, edge, neighbor_state)] over present
    rank-2 edges in ascending incident order. *)

(** {2 Backend hook}

    The [Shard] and [Proc] modes are implemented outside this library
    (in [tl_shard] and [tl_proc], which depend on [tl_engine]); each
    plugs in through one rank-2-polymorphic entry point. [count] is the
    shard or process count, [halted] is present exactly under
    [Until_halted], and the engine has already opened the run's trace
    ([trace]) — the backend only builds its state, hands a [round]
    function to {!Driver.loop} with that trace, and returns the states.
    [Tl_shard.Shard] and [Tl_proc.Coordinator] install themselves at
    module initialization, and {!Tl_local.Runtime} references both
    explicitly so every binary built on the runtime links them. *)

type backend = {
  run :
    'state.
    count:int ->
    sched:scheduling ->
    equal:('state -> 'state -> bool) ->
    halted:('state -> bool) option ->
    trace:Trace.t option ->
    topo:Topology.t ->
    init:(int -> 'state) ->
    step:'state step_fn ->
    Driver.termination ->
    'state outcome;
}

val shard_backend : backend option ref
(** Set by [Tl_shard.Shard] at load time. [Shard]-mode runs raise
    [Failure] while this is [None]. *)

val proc_backend : backend option ref
(** Set by [Tl_proc.Coordinator] at load time. [Proc]-mode runs raise
    [Failure] while this is [None]. *)

val run :
  ?mode:mode ->
  ?sched:scheduling ->
  ?equal:('state -> 'state -> bool) ->
  ?trace:Trace.t ->
  ?label:string ->
  ?compile_s:float ->
  ?compile_cached:bool ->
  topo:Topology.t ->
  init:(int -> 'state) ->
  step:'state step_fn ->
  halted:('state -> bool) ->
  max_rounds:int ->
  unit ->
  'state outcome
(** Initialize from [init] and step while some present node is unhalted:
    every executed round is counted, the halting check happens before
    the first round. [equal] (default structural equality) is used only
    for change detection — it never affects results under the
    stationarity contract, only which nodes are re-stepped and the
    [changed] trace counts. *)

val run_until_stable :
  ?mode:mode ->
  ?sched:scheduling ->
  ?trace:Trace.t ->
  ?label:string ->
  ?compile_s:float ->
  ?compile_cached:bool ->
  topo:Topology.t ->
  init:(int -> 'state) ->
  step:'state step_fn ->
  equal:('state -> 'state -> bool) ->
  max_rounds:int ->
  unit ->
  'state outcome
(** Like {!run}, but stops at a global fixed point (no state changed
    during a round); the detection round is not charged. *)

val run_rounds :
  ?mode:mode ->
  ?sched:scheduling ->
  ?equal:('state -> 'state -> bool) ->
  ?trace:Trace.t ->
  ?label:string ->
  ?compile_s:float ->
  ?compile_cached:bool ->
  topo:Topology.t ->
  init:(int -> 'state) ->
  step:'state step_fn ->
  rounds:int ->
  unit ->
  'state outcome
(** Execute exactly [rounds] synchronous rounds of a fixed a-priori
    schedule (no halting predicate). Round-number-driven schedules must
    pass [~sched:Full_scan]. *)
