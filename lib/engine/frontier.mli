(** The active set of an active-set stepper: the nodes the next round
    re-steps, built while a round commits.

    Every stepper that schedules by change — the engine's Seq/Par core,
    {!Flat}, each shard of the shard backend and each worker of the
    process backend — keeps one: a round steps [active.(0 ..
    n_active-1)], its commit {!mark}s every changed node and the
    neighbors that must see the change, and {!advance} swaps the marked
    set in. Membership is a bitmap, so a node is marked at most once
    per round. Node order never affects computed states, only memory
    locality: a sparse set keeps its marking order, a dense one (at
    least an eighth of [dense]) is rebuilt ascending from the bitmap.
    Neither operation allocates. *)

type t = private {
  mutable active : int array;  (** the current set, [0 .. n_active) *)
  mutable n_active : int;
  mutable next : int array;  (** the set being marked *)
  mutable n_next : int;
  dirty : bool array;  (** membership in [next], indexed by node *)
  dense : int;
}

val create : active:int array -> universe:int -> dense:int -> t
(** A frontier whose current set is all of [active] (taken, not copied),
    over nodes [0 .. universe-1]; [dense] is the node count the dense
    rebuild threshold is relative to. *)

val mark : t -> int -> unit
(** Add a node to the next set (no-op when already marked). *)

val advance : t -> unit
(** Make the marked set current and start an empty next set. *)
