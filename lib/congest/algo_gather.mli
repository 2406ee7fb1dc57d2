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
    directly and document the substitution in DESIGN.md).

    The algorithm is written once, as the flat program {!gather_flat};
    {!gather} is its list-mode form ({!Fastpath.to_program}). *)

val gather_flat :
  m:int -> solve:(Wgraph.Graph.t -> 'out) -> 'out Fastpath.t
(** [gather_flat ~m ~solve]: every node halts once it knows all [n]
    weights and all [m] edges and has forwarded every fact to every
    neighbor; its output is [solve g] on the reconstructed graph.
    Completes in [O(m + D)] rounds on connected graphs.  A fact is one
    packed int charged [1 + 3·⌈log n⌉] bits.  The fact log allocates —
    the flat executor's zero-allocation guarantee covers delivery, not
    program state.

    Weights must fit in [2·⌈log n⌉] bits: spawning a node whose weight
    does not raises [Invalid_argument], so every executor fails at spawn,
    before round 0, even on a graph with no edges. *)

val exact_maxis_flat : m:int -> int Fastpath.t
(** {!gather_flat} composed with the exact solver: output is OPT, the
    maximum-weight independent set value of the whole network. *)

val gather : m:int -> solve:(Wgraph.Graph.t -> 'out) -> 'out Program.t
(** The list-mode form of {!gather_flat}, for fault plans, Broadcast mode
    and {!Runtime.run}.  Raises [Invalid_argument] at spawn when a weight
    needs more than [2·⌈log n⌉] bits. *)

val exact_maxis : m:int -> int Program.t
(** The list-mode form of {!exact_maxis_flat}. *)
