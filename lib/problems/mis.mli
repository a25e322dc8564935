(** Maximal independent set in the node-edge-checkability formalism.

    Encoding (derived, as the paper suggests in Section 5, from the round
    elimination literature): a node in the MIS outputs [M] on all its
    half-edges; a node not in the MIS outputs exactly one [P] — a pointer
    that must land on an [M] half-edge, certifying maximality — and [O]
    everywhere else. Edge constraints: [{M,M}] is forbidden (independence),
    [{P,P}] and [{P,O}] are forbidden (pointers must hit MIS nodes), so
    [E² = {{M,P}, {M,O}, {O,O}}]. Rank-1 edges may carry [M] or [O] but
    {e not} [P]: this is what makes the edge-list variant [Π×] always
    completable (Theorem 12's hypothesis) — a boundary label never forces
    the unseen endpoint {e into} the MIS, it can only exclude it. *)

type label = M | P | O

val problem : label Nec.t

val decode : Tl_graph.Graph.t -> label Labeling.t -> bool array
(** [in_mis] per node: all half-edges labeled [M] (vacuously true for
    isolated nodes). *)

val write :
  Tl_graph.Semi_graph.t -> bool array -> label Labeling.t -> unit
(** The one writer of this encoding, for whole graphs and semi-graph
    views alike: [write sg in_mis l] labels exactly the present half-edges
    of [sg] — [M] everywhere at a node with [in_mis], otherwise one [P]
    towards the first (incident-order) present MIS neighbour across a
    rank-2 edge and [O] on the rest. Rank-1 rule: a rank-1 edge carries
    [M] at an MIS node and [O] otherwise, never [P]. [in_mis] is indexed
    by base node and read only at present nodes. Raises
    [Invalid_argument] if a half-edge is already labeled. *)

val encode : Tl_graph.Graph.t -> bool array -> label Labeling.t
(** Encode a maximal independent set as a valid labeling (1-round
    transformation of Section 5): {!write} on the whole graph. Raises
    [Invalid_argument] if the set is not a maximal independent set. *)

val solve_edge_list :
  Tl_graph.Graph.t -> label Labeling.t -> nodes:int list -> unit
(** The [Π×] completion used by Theorem 12's Algorithm 2: processes [nodes]
    sequentially (in the given, adversarial, order); each node reads the
    labels already present on the opposite half-edges of its incident edges
    and labels {e all} of its own half-edges — [M] everywhere if no
    opposite [M] is visible, otherwise one [P] towards a visible [M] and
    [O] elsewhere. All half-edges of [nodes] must be unlabeled. *)

val solve_sequential : Tl_graph.Graph.t -> label Labeling.t
(** Greedy solution from scratch (all nodes, ascending) — a referee
    solver for tests. *)
