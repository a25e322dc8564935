(** Process-wide metrics registry: counters, gauges, log-bucket latency
    histograms, and a bounded flight recorder of recent events.

    The registry answers the serving daemon's "what is the process doing
    right now" question live, per scrape, without stopping the world:

    - {e Counters} and {e histograms} are sharded into per-domain cells
      ([Atomic.t] slots indexed by [Domain.self () mod slots]) so the
      hot-path {!incr}/{!observe} is a single [Atomic.fetch_and_add] on
      a (usually) uncontended cell — lock-free, allocation-free, safe
      from any domain. Cells are merged only at {!snapshot} time, on the
      scraping domain.
    - Registration ({!counter} / {!gauge} / {!histogram}) is memoized by
      name under a mutex; hot paths hoist the handle, so the mutex is
      touched once per metric per process.
    - Histograms use one fixed log-spaced bucket layout (see
      {!bucket_le}): boundaries grow by [2^(1/4)] per bucket from 1 µs,
      so any quantile read off the buckets ({!quantile}) overestimates
      the true sample quantile by at most a factor [2^(1/4) ≈ 1.19]
      (≤ ~19% relative error; below 1 µs the error is absolute, 1 µs).
      The bench harness and the live scrape report p50/p99 from this
      same layout, so their numbers are comparable by construction.

    {2 Snapshot schema (tl_metrics = 1)}

    {!snapshot_to_json} renders one scrape as:
    {v
    { "tl_metrics": 1,
      "counters":   { "serve_served_total": 12, ... },
      "gauges":     { "serve_jobq_depth": 0, ... },
      "histograms": {
        "serve_request_seconds": {
          "count": 12, "sum": 0.0042,
          "buckets": [[1.19e-06, 3], [4.76e-06, 12]] } } }
    v}
    Histogram buckets are [[le, cumulative_count]] pairs over finite
    upper bounds, ascending, with zero-delta buckets elided; the
    implicit [+Inf] bucket's cumulative count is ["count"].
    {!snapshot_of_json} decodes the same schema (the CLI client renders
    Prometheus text from a daemon's JSON snapshot without sharing
    memory).

    {2 Engine bridge}

    [tl_obs] sits {e above} [tl_engine] in the library DAG, so the
    engine cannot call this module directly. {!enable} installs the
    hooks the engine exposes for exactly this purpose (a
    {!Tl_engine.Driver.subscribe} trace subscription,
    {!Tl_engine.Pool.tap}, {!Tl_engine.Team.tap}) and flips
    the global {!enabled} flag that guards the shard backend's direct
    instrumentation. Nothing is instrumented until some layer (the
    serving daemon, a bench) opts in — a one-shot CLI run pays zero. *)

type counter
type gauge
type histogram

(** {1 Registration} — memoized by name (and labels); safe from any
    domain, intended to be hoisted out of hot paths. *)

val counter : ?labels:(string * string) list -> string -> counter
val gauge : ?labels:(string * string) list -> string -> gauge
val histogram : ?labels:(string * string) list -> string -> histogram
(** [labels] extend the registry key to [name{k="v",...}] in the given
    order — the Prometheus convention; same name + same labels returns
    the same metric. Counter names should end in [_total], histogram
    names in [_seconds] (the exposition relies on convention only). *)

(** {1 Hot path} — lock-free, allocation-free, any domain. *)

val incr : counter -> int -> unit
val set_gauge : gauge -> int -> unit
val gauge_max : gauge -> int -> unit
(** Raise the gauge to at least the given value (CAS loop). *)

val observe : histogram -> float -> unit
(** Record one sample (seconds). Non-positive and NaN samples land in
    the lowest bucket; samples beyond the top finite boundary land in
    the implicit [+Inf] bucket. *)

(** {1 Reads} *)

val counter_value : counter -> int
val gauge_value : gauge -> int

(** {1 Bucket layout} — shared by every histogram. *)

val n_buckets : int

val bucket_le : int -> float
(** Upper bound of bucket [i]: [1e-6 * 2^(i/4)] for [i < n_buckets - 1],
    [infinity] for the last bucket. *)

val bucket_index : float -> int
(** Total on every float (NaN included) and monotone: the smallest [i]
    with [x <= bucket_le i]. Branch-free of allocation — a binary search
    over the boundary table. *)

(** {1 Snapshots} *)

type hsnap = {
  h_count : int;  (** total samples *)
  h_sum : float;  (** sum of samples, seconds *)
  h_buckets : (float * int) list;
      (** (finite le, cumulative count), ascending, zero-delta buckets
          elided; the [+Inf] cumulative count is [h_count] *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : (string * hsnap) list;
}
(** All three sections sorted by registry key. *)

val snapshot : unit -> snapshot
val histogram_snapshot : histogram -> hsnap

val merge_hsnap : hsnap -> hsnap -> hsnap
(** Pointwise sum — associative and commutative (the per-domain cell
    merge {!snapshot} performs, exposed for the property tests and for
    aggregating scrapes). *)

val quantile : hsnap -> float -> float
(** [quantile h q] for [q] in [(0, 1]]: the upper bound of the bucket
    holding the [ceil (q * count)]-th smallest sample — an
    overestimate by at most the bucket growth factor (~19%). [0.] on an
    empty histogram, [infinity] when the rank falls in the [+Inf]
    bucket. *)

val version : int
(** Snapshot schema version, [1]. *)

val snapshot_to_json : snapshot -> Json.t
val snapshot_of_json : Json.t -> (snapshot, string) result

val to_prometheus : snapshot -> string
(** Prometheus text exposition: [# TYPE] comments, one
    [name{labels} value] sample line per counter/gauge, and
    [_bucket]/[_sum]/[_count] series (with an explicit [+Inf] bucket)
    per histogram. *)

val reset : unit -> unit
(** Zero every registered metric and clear the flight recorder (the
    registry itself — names, handles — survives). Tests and the B10
    overhead bench only. *)

(** {1 Enabling and the engine bridge} *)

val enabled : unit -> bool
(** Cheap (one [Atomic.get]) — the guard for instrumentation sites that
    do extra work (wall-clocking shard exchanges, recording events). *)

val enable : unit -> unit
(** Flip {!enabled} on and install the engine-side hooks: a
    {!Tl_engine.Driver.subscribe} trace subscription (every engine run's
    finished trace feeds the [engine_*] counters and the run-time
    histogram; other subscribers, such as the CLI's [--trace], keep
    receiving it too) and
    {!Tl_engine.Pool.tap} (the [pool_maps_total] / [pool_tasks_total] /
    [pool_workers] metrics) and {!Tl_engine.Team.tap}
    ([pool_spawns_total] — domain spawns by the persistent team; under a
    warm server this plateaus at the team width, so a climbing value
    flags per-job domain churn). Idempotent; the pool and team taps are
    owned by this module while enabled. *)

val disable : unit -> unit
(** Uninstall the hooks (cancelling the trace subscription) and flip
    {!enabled} off. *)

(** {1 Flight recorder} *)

module Recorder : sig
  (** A bounded ring of the most recent request / exchange events — the
      "what just happened" complement to the registry's aggregates.
      Recording is mutex-guarded (events are per-request / per-run, not
      per-step, so the lock is off every hot path). *)

  type event = {
    ts : float;  (** [Unix.gettimeofday] at completion *)
    kind : string;  (** ["request"] or ["exchange"] *)
    key : string;  (** spec_key digest / run label *)
    detail : string;  (** knobs: problem, engine, shards, pool... *)
    outcome : string;  (** ["ok"] or ["error:<kind>"] *)
    latency_s : float;
  }

  val capacity : int
  (** Ring size, [512]: recording past capacity overwrites oldest. *)

  val record : event -> unit

  val tail : ?limit:int -> unit -> event list
  (** Most recent events, oldest first, at most [limit] (default: all
      retained). *)

  val clear : unit -> unit

  val event_to_json : event -> Json.t
  val event_of_json : Json.t -> event option

  val dump : ?limit:int -> out_channel -> unit
  (** Human-readable tail (one line per event) — the automatic dump the
      daemon emits on a failed request. *)
end
