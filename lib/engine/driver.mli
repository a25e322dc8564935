(** The round driver: the one termination loop every non-reference
    backend runs on.

    A backend ({!Engine}'s [Seq]/[Par] core, {!Flat}, the shard backend,
    the process coordinator) supplies only its initial totals and a
    [round] function that executes one synchronous round and writes the
    new totals into a preallocated {!stats} record. The driver supplies
    everything else, once:

    - termination ({!termination}), including the stall shortcut when
      the active set drains;
    - the fault gate ({!fault_gate}) and the interruption it causes;
    - the [max_rounds] failures, byte-identical across backends;
    - the trace lifecycle ({!traced}: create, stamp, one record per
      executed round, finish, delivery to the {!subscribe}rs), with the
      wall clock read only when a trace is attached.

    The loop allocates nothing per round when no trace is attached, so
    a closure-free backend (the flat path) stays allocation-free.

    The [Naive] stepper in {!Engine} does not run on the driver: it is
    the independent reference the differential batteries compare the
    driver against. *)

type termination =
  | Until_halted of int
      (** [max_rounds]: run while some present node is unhalted; the
          halting check happens before the first round *)
  | Until_stable of int
      (** [max_rounds]: run to a global fixed point; the detection round
          (no change) executes and is traced but is not counted *)
  | Fixed of int
      (** exactly this many rounds of an a-priori schedule; rounds with
          an empty active set are no-ops (stationarity) and are skipped
          but still counted *)

type stats = {
  mutable active : int;  (** nodes the next round will step *)
  mutable changed : int;  (** nodes the last round changed *)
  mutable unhalted : int;
      (** unhalted present nodes; read under [Until_halted] only *)
}
(** Backend totals. Before the first round [active] and [unhalted] hold
    the initial values; a backend's [round] overwrites all three. *)

val stats : active:int -> unhalted:int -> stats

val loop :
  Trace.t option -> termination -> stats -> (int -> stats -> unit) -> int
(** [loop tr term st round] runs [round r st] for the rounds [term]
    prescribes ([r] is the 1-based round index the step function sees)
    and returns the round count to report. After each executed round it
    records one {!Trace.round_record} into [tr] and consults the fault
    gate; a closed gate ends the run at that round boundary with the
    rounds executed so far and no failure.

    Raises [Failure "Engine.run: max_rounds=N exceeded"] when
    [Until_halted] runs out of rounds — or stalls: the active set is
    empty while unhalted nodes remain, so under stationarity none can
    ever halt — and [Failure "Engine.run_until_stable: max_rounds=N
    exceeded"] when [Until_stable] runs out of rounds. *)

(** {1 Fault gate} *)

val fault_gate : (round:int -> bool) option ref
(** Owned by [Tl_fault.Injector]; see {!Engine.fault_gate}. *)

val gate_open : round:int -> bool
(** [true] when no gate is armed or the armed gate allows continuing
    past committed round [round]. *)

(** {1 Trace lifecycle} *)

type subscription

val subscribe : (Trace.t -> unit) -> subscription
(** Deliver every finished engine trace to this function, after the
    subscribers already present. Any subscriber makes every run traced
    (an internal trace is created when the caller passes none). *)

val unsubscribe : subscription -> unit
(** Idempotent. *)

val traced :
  ?trace:Trace.t ->
  label:string ->
  mode:string ->
  scheduling:string ->
  ?layout:string ->
  ?compile_s:float ->
  ?compile_cached:bool ->
  Topology.t ->
  (Trace.t option -> 'a) ->
  'a
(** [traced ~label ~mode ~scheduling topo f] runs [f tr]. [tr] is
    [trace] when given, else a fresh trace labelled [label] when some
    subscriber is present, else [None]. A present trace is stamped with
    the run's metadata (and [layout] / [compile_s] / [compile_cached]
    when given) before [f] runs; afterwards — also when [f] raises — it
    is finished with the total wall-clock and delivered once to every
    subscriber, in subscription order. *)
