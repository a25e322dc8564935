(** The tl_serve daemon: admission, batching, execution, IO loops.

    One server value owns a bounded {!Jobq} (the backpressure boundary)
    and a bounded instance cache (graph + ID assignment + lazily-built
    semi-graph per {!Protocol.spec_key}). Running statistics live in the
    process-wide {!Tl_obs.Metrics} registry (enabled by {!create}, which
    also bridges the engine/pool hooks): the [stats] control reports
    per-server deltas against the registry values captured at creation,
    the [metrics] control scrapes the whole registry as a
    [tl_metrics = 1] snapshot, and the [tail] control returns the flight
    recorder's recent request/exchange events (also dumped to stderr
    automatically when a request fails). The
    daemon is {e single-threaded by design}: requests are admitted and
    executed on one domain, and parallelism lives below, in the engine's
    domain pool and shard backend — exactly the knobs a request names.

    {2 Cycle semantics}

    The IO loops ({!run_fd}, {!listen_unix}) work in {e cycles}: block
    until input is available, greedily read every complete line already
    buffered, then hand the burst to {!handle_lines}. A cycle

    + parses each line; malformed JSON, an over-long line or an
      unknown/invalid request (problem, method, family or knobs) is
      answered immediately with a [bad_request] error;
    + admits valid requests to the job queue — a request arriving on a
      full queue is answered immediately with a structured [rejected]
      error (the backpressure contract: never a hang, never a drop);
    + drains the queue, {e batching} jobs by {!Protocol.spec_key}:
      groups run in first-seen order, members in admission order, so
      same-topology requests reuse one cached instance (and, through
      it, {!Tl_engine.Topology.compile_cached} snapshots and shard
      {!Tl_shard.Plan}s) back to back;
    + answers control messages ([ping]/[stats]/[shutdown] — evaluated
      after the cycle's jobs; [shutdown] acks with a pong and stops the
      loop after the cycle);
    + emits every response in arrival order of its request.

    Results are bit-identical to direct one-shot runs for every
    (engine, shards, pool) knob: execution scopes the engine defaults to
    the request and runs the very same pipelines, and cache reuse only
    skips instance construction, never changes inputs. *)

type config = {
  depth : int;  (** job-queue depth (backpressure threshold) *)
  cache_slots : int;  (** instance-cache capacity, [0] disables caching *)
  max_n : int;  (** admission guard: largest accepted instance size *)
}

val default_config : config
(** depth 64, cache_slots 32, max_n 2_000_000. *)

type t

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] on [depth < 1], [cache_slots < 0] or
    [max_n < 1]. *)

val config : t -> config
val shutdown_requested : t -> bool

val stats : t -> (string * int) list
(** Running counters: [received] (solve requests), [served], [rejected],
    [errors], [batches], [max_batch], [queue_depth], [serve:cache_hit],
    [serve:cache_miss], plus the process-wide engine cache counters
    [topo:cache_hit]/[topo:cache_miss] ({!Tl_engine.Topology.cache_stats})
    and [plan:cache_hit]/[plan:cache_miss] ({!Tl_shard.Plan.cache_stats}). *)

val handle_request : t -> Protocol.request -> Protocol.response
(** Validate and execute one request directly (no queue, no batching) —
    the pure execution path behind every served job, exposed for the
    differential tests and the load generator's in-process mode. Never
    raises: failures come back as [Error] outcomes. *)

val handle_lines : t -> string list -> string list
(** One full admission / batching / drain cycle over a burst of input
    lines, returning the newline-terminated response lines in arrival
    order. This is exactly what the IO loops execute per cycle. *)

val run_fd : t -> Unix.file_descr -> Unix.file_descr -> unit
(** Serve one connection: read ndjson requests from the first
    descriptor, write responses to the second, until EOF or a shutdown
    request. A final unterminated line at EOF is processed as a line. A
    line longer than [64 KiB + 64 bytes × max_n] is answered with one
    [bad_request] and skipped up to its newline; the connection keeps
    serving. Neither descriptor is closed. *)

val serve_stdio : t -> unit
(** [run_fd] over stdin/stdout — the pipe-friendly daemon mode. *)

val listen_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path], then accept and serve one
    connection at a time until some client sends [shutdown]. The socket
    file is removed on exit. A client error/disconnect never kills the
    daemon. An existing file at [path] is probed with a connect: only a
    provably stale socket (nothing accepting) is replaced — raises
    [Failure] if a live daemon answers there, or if the path holds a
    non-socket file. *)
