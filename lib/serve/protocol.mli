(** tl_serve wire protocol: ndjson requests and responses (schema v1).

    Every value on the wire is one JSON object per line
    ({!Tl_obs.Json.to_line} / {!Tl_obs.Json.Ndjson}) carrying a ["v"]
    schema-version field. A {e request} names a problem, a graph spec
    (generator family + seed, or an explicit edge list) and engine knobs;
    the matching {e response} echoes the request id and reports the
    labeling digest, the round ledger, the measured engine rounds and
    (optionally) a per-request tl_obs span report. {e Control} messages
    ([ping] / [stats] / [shutdown] / [metrics] / [tail]) bypass the job
    queue: [metrics] answers with a versioned {!Tl_obs.Metrics} registry
    snapshot ([tl_metrics = 1]) under a ["metrics"] member, [tail] with
    the flight recorder's recent events under a ["tail"] array.

    {2 Request schema}

    {v
    { "v": 1, "id": "r1",
      "problem": "mis",                  // mis|coloring|matching|edge-coloring|flood
      "method": "transform",             // transform|direct|baseline|chaos
      "graph": { "family": "random-tree", "n": 1000, "seed": 7,
                 "a": 1, "delta": 8 },      // family: Tl_graph.Gen.families
      // or: "graph": { "n": 4, "edges": [[0,1],[1,2],[2,3]], "seed": 1 }
      "engine": "seq",                   // naive|seq|par:N|shard[:S]|proc[:S]
      "shards": 4, "pool": 1,
      "k": null,                         // decomposition parameter override
      "span": true }                     // include the span report in the response
    v}

    {2 Response schema}

    {v
    { "v": 1, "id": "r1", "ok": true,
      "digest": "f01dab1ecafe4242",      // FNV-1a over the solution
      "rounds": 93,                      // accounted LOCAL rounds (ledger total)
      "valid": true,
      "engine_rounds": 181,              // measured engine executions
      "cache_hit": false,                // served from the instance cache
      "ledger": { "decompose": 6, ... },
      "span": { "tl_obs_report": 1, ... } }          // when requested
    { "v": 1, "id": "r2", "ok": false,
      "error": { "kind": "rejected", "msg": "queue full (depth 64)" } }
    v}

    Rejections ([kind = "rejected"]) are the backpressure story: a
    request that arrives while the job queue is full is answered
    immediately with a structured error, never dropped or blocked on. *)

val version : int
(** Wire schema version, [1]. Requests carrying a different ["v"] are
    answered with a [bad_request] error naming both versions. *)

(** {1 Requests} *)

type graph_spec =
  | Family of { family : string; n : int; seed : int; a : int; delta : int }
  | Edges of { n : int; edges : (int * int) list; seed : int }
      (** [seed] feeds the ID assignment only. *)

val spec_key : graph_spec -> string
(** Canonical batching / instance-cache key: equal specs produce equal
    keys, distinct specs distinct keys. [Family] specs key on every
    field verbatim; [Edges] specs key on [n], [seed], the edge count
    and a 64-bit FNV-1a digest folded over {e every} endpoint (lists
    differing anywhere — including past the bounded prefix
    [Hashtbl.hash] would inspect — key apart). *)

val spec_n : graph_spec -> int

type request = {
  id : string;
  problem : string;
  method_ : string;
  spec : graph_spec;
  k : int option;
  engine : string;
  shards : int;
  pool : int;
  want_span : bool;
  faults : string option;
      (** fault-schedule spec ({!Tl_fault.Schedule.of_arg} grammar,
          without the file-path form — the daemon never opens
          client-named paths); only honored by [chaos]-method
          requests. *)
}

val default_spec : graph_spec
(** [Family {family = "random-tree"; n = 1000; seed = 1; a = 1; delta = 8}]
    — the CLI's defaults. *)

val request : ?id:string -> ?problem:string -> ?method_:string ->
  ?spec:graph_spec -> ?k:int -> ?engine:string -> ?shards:int ->
  ?pool:int -> ?want_span:bool -> ?faults:string -> unit -> request
(** Request with the same defaults as the CLI's [solve]
    ([mis]/[transform]/[seq], shards 4, pool 1, span included, no
    faults). *)

type control = Ping | Stats | Shutdown | Metrics | Tail

type incoming = Request of request | Control of string * control
(** One parsed input line; the [string] is the echoed id. *)

val incoming_of_json : Tl_obs.Json.t -> (incoming, string) result
val request_to_json : request -> Tl_obs.Json.t
val control_to_json : ?id:string -> control -> Tl_obs.Json.t

(** {1 Responses} *)

type error_kind = Rejected | Bad_request | Failed

val error_kind_to_string : error_kind -> string

type solved = {
  digest : string;
  total_rounds : int;  (** accounted LOCAL rounds, the ledger total *)
  ledger : (string * int) list;
  valid : bool;
  engine_rounds : int;  (** measured executions over all engine runs *)
  cache_hit : bool;  (** instance served from the serve-layer cache *)
  span : Tl_obs.Json.t option;
}

type outcome =
  | Solved of solved
  | Pong
  | Stats_report of (string * int) list
  | Metrics_report of Tl_obs.Json.t
      (** the daemon's [tl_metrics = 1] snapshot, verbatim (decode with
          {!Tl_obs.Metrics.snapshot_of_json}) *)
  | Tail_report of Tl_obs.Json.t list
      (** flight-recorder events, oldest first (decode each with
          {!Tl_obs.Metrics.Recorder.event_of_json}) *)
  | Error of error_kind * string

type response = { rid : string; outcome : outcome }

val response_to_json : response -> Tl_obs.Json.t
val response_of_json : Tl_obs.Json.t -> (response, string) result
(** Client-side decoding (the CLI client mode, the smoke client, the
    differential tests). *)

(** {1 Solution digests}

    FNV-1a (64-bit) over the per-element structural hashes of a
    solution, rendered as 16 hex digits. Deterministic across processes
    for a fixed OCaml version — the serving differential property
    compares daemon digests against one-shot digests computed in another
    process. *)

val digest_array : ('a -> int) -> 'a array -> string

val digest_labeling : graph:Tl_graph.Graph.t -> 'l Tl_problems.Labeling.t -> string
(** Digest over the labels of every half-edge id in order. *)

(** {1 Knob validation} *)

val resolve_knobs :
  engine:string -> shards:int -> pool:int -> n:int ->
  (Tl_engine.Engine.mode, string) result
(** Validate an (engine, shards, pool) combination against an instance
    of [n] nodes and resolve the engine string to a mode (a bare
    ["shard"] / ["proc"] takes [shards]). Errors — friendly, one-line —
    cover: unknown engine strings, [shards < 1], a shard or process
    count above [n], [pool] outside [1, 64], [n < 1], and shard / proc
    mode requested while that backend is not linked. The one knob
    resolver: the daemon's admission and the CLI's [solve] / [chaos]. *)
