(** Instrumentation for engine runs: per-round event records, aggregate
    metrics and JSON export.

    A trace is a mutable collector handed to (or created by) an engine
    run. Every executed round appends one {!round_record}; the engine
    stamps the run's metadata (mode, scheduling, instance size) and the
    compile / total wall-clock when it finishes.

    {2 JSON schema}

    {!to_json} serializes one run as:
    {v
    { "label": "cole_vishkin.color3", "mode": "seq", "scheduling": "active-set",
      "layout": "boxed",
      "n_base": 100000, "n_present": 100000,
      "compile_s": 0.0021, "compile_cached": false, "total_s": 0.1432,
      "metrics": { "rounds": 17, "steps": 634211, "naive_steps": 1700000,
                   "step_savings": 0.627, "max_active": 100000 },
      "rounds_detail": [
        { "round": 1, "active": 100000, "changed": 99872,
          "unhalted": 100000, "wall_s": 0.0061 }, ... ] }
    v}
    [unhalted] is present only for runs with a halting predicate: for
    {!Engine.run_until_stable} / {!Engine.run_rounds} the field is
    omitted entirely (in-memory records keep [-1] for untracked).
    Likewise [changed] is omitted when untracked (the naive stepper does
    no change detection). [step_savings] is [1 - steps/naive_steps] where
    [naive_steps] is what a full re-step of every present node each round
    would have executed. *)

type round_record = {
  round : int;  (** 1-based round index *)
  active : int;  (** nodes scheduled (= step calls executed) *)
  changed : int;  (** nodes whose state changed this round *)
  unhalted : int;  (** unhalted nodes after the round; [-1] if untracked *)
  wall_s : float;  (** wall-clock of the round (compute + commit) *)
}

type metrics = {
  rounds : int;
  steps : int;  (** total step calls across all rounds *)
  naive_steps : int;  (** [rounds * n_present]: full-scan equivalent *)
  max_active : int;
  compile_s : float;
  total_s : float;
}

type t

val create : ?label:string -> unit -> t
(** Fresh empty collector. The label tags the run in JSON output and
    summaries (e.g. the wrapping API entry point or a kernel name). *)

val label : t -> string

val mode : t -> string
(** Stepper mode as stamped by {!set_meta} (["?"] before the run). *)

val scheduling : t -> string

val layout : t -> string
(** State representation of the run: ["boxed"] (the default — states are
    ordinary OCaml values) or ["flat"] (int-slab states, {!Flat}).
    Serialized as ["layout"]. *)

val n_base : t -> int
val n_present : t -> int

(** {1 Engine-side recording} *)

val set_meta :
  t -> mode:string -> scheduling:string -> n_base:int -> n_present:int -> unit

val set_layout : t -> string -> unit
val set_compile_s : t -> float -> unit

val set_compile_cached : t -> bool -> unit
(** Whether the run's topology came out of the
    {!Topology.compile_cached} cache ([compile_s] is then the lookup
    cost, not a compile). Serialized as ["compile_cached"]. *)

val compile_cached : t -> bool

val record : t -> round_record -> unit
val finish : t -> total_s:float -> unit

(** {1 Consumption} *)

val records : t -> round_record list
(** Rounds in execution order. *)

val metrics : t -> metrics

val to_json : t -> string
(** One run as a JSON object (schema above). *)

val list_to_json : t list -> string
(** Several runs as a JSON array, in the given order. *)

val write_json : file:string -> t list -> unit

val pp_summary : Format.formatter -> t -> unit
(** One-line human summary: label, mode, rounds, steps, savings, time. *)
