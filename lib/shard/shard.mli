(** Sharded halo-exchange execution backend for the LOCAL engine.

    This module implements {!Tl_engine.Engine}'s [Shard s] mode: the
    compiled topology is partitioned by {!Plan} into [s] contiguous
    shards with ghost (halo) copies of remote neighbors, and every
    synchronous round runs as

    {e local step → batched boundary exchange → barrier}:

    + {b local step} — each shard re-steps its active owned nodes
      against its compact local arrays (states, sub-CSR, ghosts). When
      the domain pool ({!Tl_engine.Pool}) is wider than one worker the
      shards are fanned over it in fixed contiguous chunks; each shard
      writes only its own scratch, so the fan-out is race-free and
      timing-independent.
    + {b batched boundary exchange} — changed states are published
      shard-by-shard in ascending shard order; each shard then drains
      its preallocated flat route buffer, copying boundary states into
      the target shards' ghost slots and growing their active sets
      through the plan's halo rows. Buffers are (target, slot, source)
      int triples — no per-message allocation.
    + {b barrier} — only after every shard has exchanged do the active
      sets advance and the round counter tick; the next round observes a
      globally consistent frontier, exactly like the monolithic stepper.

    {2 Determinism}

    For any shard count and any pool width, labelings, round counts,
    per-round trace records ([active]/[changed]/[unhalted]) and failure
    behavior are bit-identical to [Seq] (and hence [Par p]) under the
    engine's stationarity contract. The argument: the compute phase
    reads only states committed in the previous round (ghosts are only
    written between barriers); the commit and exchange phases run in
    ascending shard order on the coordinating domain; and the per-shard
    active sets are an exact partition of the engine's global active
    set, because a changed node dirties its owned neighbors locally and
    its remote neighbors through halo rows — the same
    [{changed} ∪ N({changed})] frontier, split by ownership.

    {2 Observability}

    When a {!Tl_obs.Span} is ambient, every run attaches one child span
    per shard (["shard:<id>"]) carrying [shard:cut_edges],
    [shard:halo_words], [shard:imbalance] and [shard:exchange_rounds]
    counters, plus aggregate counters on the current span; they are
    emitted even when the run raises, and merge into the run report like
    any other span.

    {2 The round driver}

    The backend supplies one [round] (local step, commit, exchange,
    advance) and its totals to {!Tl_engine.Driver.loop}; termination,
    the fault gate, trace records and failures are the driver's, shared
    with every other backend.

    Linking [tl_shard] installs the backend into
    {!Tl_engine.Engine.shard_backend} (see {!register});
    {!Tl_local.Runtime} force-links it, so every runtime-based binary
    can run [--engine shard]. *)

val register : unit -> unit
(** No-op whose call forces this module's initialization, which installs
    the backend into {!Tl_engine.Engine.shard_backend}. Call it (or
    reference anything in this module) from code that wants [Shard] mode
    available without depending on [Tl_local.Runtime]. *)

val fault_drop_hook : (round:int -> src:int -> dst:int -> bool) option ref
(** Fault-injection link hook, owned by [Tl_fault.Injector]. While
    armed, the boundary exchange asks it once per halo message —
    [drop ~round ~src ~dst] returning [true] suppresses the delivery of
    one (src shard → dst shard) ghost update in committed round [round]
    (stale ghost value kept, pending set not grown). Exchange routes
    fire only on change, so a dropped message is lost until the owner
    next changes — the repair layer's job to heal. Disarmed ([None],
    the default) the exchange runs the original unchecked drain loop;
    the hook costs one ref match per round. [halo_words] counts only
    delivered messages. Shard runs are on the round driver, so an armed
    {!Tl_engine.Engine.fault_gate} interrupts them at round boundaries
    exactly like every other backend. *)

val emit_partition :
  prefix:string ->
  ?shape:int ->
  plan:Plan.t ->
  plan_hit:bool ->
  reported:(int -> bool) ->
  halo_words:(int -> int) ->
  exchange_rounds:(int -> int) ->
  latency_s:float ->
  unit ->
  unit
(** Partition and traffic observability for one run over [plan], shared
    by this backend ([~prefix:"shard"]) and the process backend
    ([~prefix:"proc"]). With an ambient span: root counters
    [<p>:<p>s] (the shard count), [<p>:shape] (when [shape] is given),
    [<p>:cut_edges], [<p>:imbalance], [<p>:plan_hit]/[<p>:plan_miss] and
    [<p>:halo_words] (the sum of [halo_words i]), then one child span
    ["<p>:<i>"] per shard [i] with [reported i], carrying [<p>:owned],
    [<p>:halo], [<p>:cut_edges], [<p>:halo_words], [<p>:imbalance] and
    [<p>:exchange_rounds]. With the metrics registry enabled: the
    [<p>_halo_words_total] and [<p>_runs_total] counters and one
    ["exchange"] flight-recorder event keyed ["<p>s:<count>"] with
    latency [latency_s]. *)
