(** Graph metrics: distances, diameter, connectivity, degree profiles.

    The paper notes its hard instances have constant diameter; the metrics
    here let tests and the bench harness confirm that on the constructed
    families, and give the CONGEST simulator its round-count sanity checks
    (BFS must finish in [diameter] rounds). *)

val bfs_distances : Graph.t -> int -> int array
(** Unweighted distances from a source; unreachable nodes get [-1]. *)

val diameter : Graph.t -> int
(** Max eccentricity (max distance from a node) over all nodes
    (all-pairs BFS, [O(n·m)]).  Returns
    [-1] when disconnected, [0] for graphs with [<= 1] node. *)

val is_connected : Graph.t -> bool

val connected_components : Graph.t -> int array * int
(** Component id per node, and the number of components. *)

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs, ascending by degree. *)

val density : Graph.t -> float
(** [m / (n choose 2)]; [0] for [n <= 1]. *)
