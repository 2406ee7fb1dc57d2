(** Vertex-weighted undirected graphs over dense adjacency bitsets.

    This is the graph type shared by the whole repository: the lower-bound
    gadget families of the paper are built as values of this type, the
    exact/approximate independent-set solvers consume it, and the CONGEST
    simulator derives its network topology from it.

    Nodes are integers [0 .. n-1].  Weights are positive integers exactly as
    in the paper (node weights are [1] or [ℓ]).  Self-loops are rejected.
    The representation is an adjacency-matrix of bitsets: dense graphs (the
    gadgets are mostly unions of cliques) cost [n²/62] words, and
    neighborhood intersection — the inner loop of the solver — is word
    parallel. *)

type t

(** {1 Construction} *)

val create : ?default_weight:int -> int -> t
(** [create n] is the edgeless graph on [n] nodes, all weights
    [default_weight] (default [1]).  Raises [Invalid_argument] when [n < 0]
    or the weight is [< 0]. *)

val copy : t -> t

val add_edge : t -> int -> int -> unit
(** [add_edge g u v] inserts the undirected edge [{u,v}].  Idempotent.
    Raises [Invalid_argument] on out-of-range nodes or when [u = v]. *)

val remove_edge : t -> int -> int -> unit

(** {1 Accessors} *)

val n : t -> int
(** Number of nodes. *)

val has_edge : t -> int -> int -> bool
val neighbors : t -> int -> Stdx.Bitset.t
(** The adjacency row of a node.  The returned bitset is the internal one:
    treat it as read-only. *)

val degree : t -> int -> int
val max_degree : t -> int
val edge_count : t -> int

val weight : t -> int -> int
val set_weight : t -> int -> int -> unit
(** Raises [Invalid_argument] on negative weights. *)

val total_weight : t -> int
(** Sum of all node weights. *)

val set_weight_of : t -> Stdx.Bitset.t -> int
(** [set_weight_of g s] is [Σ_{v ∈ s} w(v)] — the paper's [w(U)]. *)

val label : t -> int -> string
val set_label : t -> int -> string -> unit
(** Human-readable node names, used by the DOT/figure exporters; default is
    the node index. *)

(** {1 Iteration} *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each undirected edge visited once, with [u < v]. *)

val edges : t -> (int * int) list

val iter_nodes : (int -> unit) -> t -> unit

(** {1 Derived graphs} *)

val induced : t -> Stdx.Bitset.t -> t * int array
(** [induced g s] is the subgraph induced by [s] together with the array
    mapping new node indices to original ones.  Weights and labels are
    carried over. *)

val disjoint_union : t -> t -> t * int
(** [disjoint_union g h] is the union with [h]'s nodes shifted by [n g];
    returns the shift. *)

val complement : t -> t
(** Same nodes and weights; edge set complemented. *)

(** {1 Comparison and formatting} *)

val equal : t -> t -> bool
(** Same size, weights and edge sets (labels ignored). *)

val pp : Format.formatter -> t -> unit
(** One-line summary: nodes, edges, total weight, max degree. *)
