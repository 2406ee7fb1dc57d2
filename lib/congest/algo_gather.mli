(** The universal topology-gathering algorithm.

    The paper notes that {e any} problem can be solved in [O(n²)] rounds in
    CONGEST: nodes flood a description of the whole graph (at most
    [O(n²)] facts of [O(log n)] bits each over every edge), then solve
    locally.  This module implements that algorithm generically: every node
    floods (weight and edge) facts with per-edge pipelining, reconstructs
    the graph when it has all facts, and applies a local [solve] function.

    Running it with an exact MaxIS [solve] through the Theorem 5 simulation
    is the repository's end-to-end reproduction of the reduction: the
    resulting protocol decides promise pairwise disjointness, and its
    measured blackboard cost is [rounds × |cut| × O(log n)] — which is why
    the round lower bound follows from the communication lower bound.

    Knowledge assumptions: nodes know [n] (standard) and the total number
    of edges [m] (computable with a preliminary convergecast; we grant it
    directly and document the substitution in DESIGN.md). *)

val gather : m:int -> solve:(Wgraph.Graph.t -> 'out) -> 'out Program.t
(** [gather ~m ~solve]: every node halts once it knows all [n] weights and
    all [m] edges and has forwarded every fact to every neighbor; its
    output is [solve g] on the reconstructed graph.  Weights must fit in
    [2·⌈log n⌉] bits.  Completes in [O(m + D)] rounds on connected
    graphs. *)

val exact_maxis : m:int -> int Program.t
(** [gather] composed with the exact solver: output is OPT, the
    maximum-weight independent set value of the whole network. *)

val gather_flat :
  m:int -> solve:(Wgraph.Graph.t -> 'out) -> 'out Fastpath.t
(** Flat port of {!gather} for {!Runtime.run_flat}: facts travel as
    packed ints under the same [1 + 3·⌈log n⌉] bit charge, and per-round
    message counts, round counts and outputs are identical to the
    list-mode program (learning order is the only thing that may differ,
    and nothing observable depends on it).  The fact log itself still
    allocates — the flat executor's zero-allocation guarantee covers
    delivery, not program state. *)

val exact_maxis_flat : m:int -> int Fastpath.t
(** {!gather_flat} composed with the exact solver. *)
