(** Hierarchical phase spans: the run-wide observability substrate.

    A span is a named, wall-clocked node in a tree that mirrors the phase
    structure of a run — compile, decompose, base algorithm, gather/star
    phases, validation. Every span carries:

    - {b elapsed wall-clock} (monotonic in the sense that negative deltas
      are clamped to zero);
    - {b attrs} — string key/value metadata (problem, family, engine mode);
    - {b counters} — accumulating named integers (iterations, violations,
      engine steps);
    - {b rounds} — per-phase LOCAL round charges, the paper's own metric,
      bridged automatically from {!Tl_local.Round_cost.charge}.

    {2 Ambient context}

    Spans form an implicit stack per process. {!run} installs a root and
    makes it current; {!with_span} opens a child of the current span for
    the duration of a callback. When {e no} span is ambient, {!with_span}
    and every recording operation ({!set_attr}, {!add_counter},
    {!add_rounds}, {!add_trace}) are no-ops with negligible cost, so
    instrumented library code pays nothing unless a collector opted in
    (the CLI's [--profile] / [--report], a test, a bench harness).

    The stack is per-process, not per-domain: only the coordinating
    domain may touch spans (the engine's [Par] stepper never records
    spans from worker domains).

    {2 The two cost-stream bridges}

    - {!Tl_local.Round_cost.charge} forwards every charge to the current
      span via {!add_rounds}: phase ledgers and span trees always agree.
    - Engine runs attach their {!Tl_engine.Trace} as a {e child} span
      named ["engine:<label>"] carrying the measured rounds/steps as
      counters and [total_s] as elapsed time (see {!add_trace}). While
      some span is ambient ({!run}, {!install_root}), one
      {!Tl_engine.Driver.subscribe}r does this for every engine run of
      every backend; it unsubscribes when the root is finished, so runs
      outside any span stay untraced. Trace rounds are {e measured
      executions}, not the paper's accounted LOCAL rounds, so they live
      in counters and never pollute {!rounds_total}. *)

type t

(** {1 Creating and scoping spans} *)

val create : ?attrs:(string * string) list -> string -> t
(** Detached unfinished root span, clock started. Not installed as
    ambient; see {!install_root} / {!run}. *)

val run : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a * t
(** [run name f] creates a root span, makes it the ambient current span,
    runs [f], finishes the span (also on raise) and returns [f]'s result
    with the finished span. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] opens a child of the current span around [f]
    (finished even if [f] raises). Without an ambient span it just runs
    [f]. *)

val install_root : t -> unit
(** Make a {!create}d span the ambient root imperatively — for collectors
    whose scope cannot be a callback (the CLI finishes and writes the
    report from [at_exit], surviving [exit 1] on a failed validity
    check). Raises [Invalid_argument] if some span is already ambient. *)

val finish : t -> unit
(** Stamp the elapsed time and close the span, recursively closing any
    still-open children (they get the same stamp instant) and removing
    the span — with any stacked descendants — from the ambient stack if
    it is installed. Idempotent: the first finish wins the stamp. *)

val active : unit -> bool
(** Whether some span is ambient. *)

val current : unit -> t option

(** {1 Recording on the current span} — all no-ops when none is ambient. *)

val set_attr : string -> string -> unit
(** Set/overwrite an attribute. *)

val add_counter : string -> int -> unit
(** Accumulate into a named counter (created at first use, first-use
    order preserved). *)

val add_rounds : phase:string -> int -> unit
(** Accumulate LOCAL round charges under a phase name. Called by
    {!Tl_local.Round_cost.charge} on every ledger charge. *)

val add_trace : Tl_engine.Trace.t -> unit
(** Attach a finished engine run as a child span ["engine:<label>"]:
    attrs [mode], [scheduling], [compile_s]; counters [rounds], [steps],
    [naive_steps], [max_active], [n_present]; elapsed = the trace's
    [total_s]. *)

(** {1 Accessors} (for report rendering and tests) *)

val name : t -> string
val elapsed_s : t -> float
(** Elapsed seconds; for a still-open span, the time since it started. *)

val attrs : t -> (string * string) list
(** In first-set order. *)

val counters : t -> (string * int) list
val rounds : t -> (string * int) list

val rounds_self : t -> int
(** Sum of this span's own round charges. *)

val rounds_total : t -> int
(** {!rounds_self} plus all descendants'. *)

val children : t -> t list
(** In creation order. *)
