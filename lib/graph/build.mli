(** Structured graph builders.

    The paper's gadgets are assembled from three motifs: cliques ([E(C)] in
    the paper's notation), "all edges except the natural perfect matching"
    between two equal-size cliques (the inter-copy code connections of
    Figure 2), and complete bipartite connections (Remark 1's biclique
    between blown-up weight-ℓ nodes).  These helpers operate in place on an
    existing {!Graph.t} so the gadget assemblers can allocate one graph and
    wire regions of it. *)

val make_clique : Graph.t -> int list -> unit
(** [make_clique g nodes] adds all edges between distinct listed nodes. *)

val make_clique_array : Graph.t -> int array -> unit

val connect_complement_of_matching : Graph.t -> int array -> int array -> unit
(** [connect_complement_of_matching g xs ys] adds every edge between [xs]
    and [ys] {e except} the natural perfect matching [xs.(r) — ys.(r)]:
    exactly the inter-copy connection of Figure 2.  Raises
    [Invalid_argument] when lengths differ. *)

val path : int -> Graph.t
(** [path n]: nodes [0..n-1] in a path. *)

val cycle : int -> Graph.t

val complete : int -> Graph.t
(** [complete n] is the clique [K_n] with unit weights. *)

val complete_bipartite : int -> int -> Graph.t
(** [complete_bipartite a b] is [K_{a,b}] with the left part numbered
    [0..a-1]. *)

val star : int -> Graph.t
(** [star n]: node [0] joined to [1..n-1]. *)

val erdos_renyi : Stdx.Prng.t -> int -> float -> Graph.t
(** [erdos_renyi rng n p]: each of the [n(n-1)/2] edges present
    independently with probability [p]. *)

val random_weights : Stdx.Prng.t -> Graph.t -> int -> unit
(** [random_weights rng g wmax] assigns each node a uniform weight in
    [1..wmax]. *)
