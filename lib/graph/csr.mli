(** Compressed-sparse-row graphs: the large-n twin of {!Graph}.

    {!Graph.t} stores adjacency as an n×n bitset matrix — word-parallel
    intersections for the branch-and-bound solver, but Θ(n²/62) words of
    memory and Θ(n) per row scan, which tops out around 10³–10⁴ nodes.
    This module stores the same vertex-weighted undirected graphs in CSR
    form: one offsets array of length [n+1] and one neighbors array of
    length [2m], each row sorted ascending.  Memory is O(n + m) and a
    row scan is O(degree), so the CONGEST runtime and the gadget
    builders reach n in the 10⁵–10⁶ range (see docs/PERF.md).

    A CSR graph is immutable once built: construct through {!Builder}
    (or convert with {!of_graph}) and share freely.  Conversion both
    ways is total and exact — [to_graph (of_graph g)] equals [g] up to
    labels, and every accessor agrees with its {!Graph} counterpart;
    [test/test_csr.ml] pins that equivalence property-by-property.

    Node labels are materialized lazily: a fresh CSR graph answers
    {!label} with the node index without allocating n strings. *)

type t

(** {1 Construction} *)

module Builder : sig
  type graph := t

  type t
  (** A mutable edge accumulator.  Node count and weights are fixed at
      creation; edges arrive in any order, duplicates are deduplicated
      and self-loops rejected exactly as in {!Graph.add_edge}. *)

  val create : ?default_weight:int -> int -> t
  (** [create n] starts an edgeless builder on [n] nodes, all weights
      [default_weight] (default [1]).  Raises [Invalid_argument] when
      [n < 0] or the weight is [< 0]. *)

  val add_edge : t -> int -> int -> unit
  (** Queue the undirected edge [{u,v}].  Idempotent at {!finish} time.
      Raises [Invalid_argument] on out-of-range nodes or when [u = v]. *)

  val set_weight : t -> int -> int -> unit
  (** Raises [Invalid_argument] on negative weights. *)

  val set_label : t -> int -> string -> unit

  val finish : t -> graph
  (** Freeze into a CSR graph: count degrees, prefix-sum offsets, lay
      every row out ascending by two counting passes (no comparison
      sort), drop duplicate edges.  O(n + m), with no temporary of size
      m beyond the adjacency array itself.  The builder may keep
      accumulating edges afterwards; a later [finish] produces a fresh
      snapshot. *)
end

val of_graph : Graph.t -> t
(** Exact conversion, weights and labels included.  O(n + m) thanks to
    the word-skipping bitset iteration. *)

val to_graph : t -> Graph.t
(** Exact inverse (allocates the n²-bit adjacency matrix — only sensible
    at small n). *)

(** {1 Accessors — the {!Graph} vocabulary} *)

val n : t -> int
val has_edge : t -> int -> int -> bool
(** Binary search in the row: O(log degree). *)

val degree : t -> int -> int
val max_degree : t -> int
val edge_count : t -> int

val weight : t -> int -> int
val total_weight : t -> int

val set_weight_of : t -> Stdx.Bitset.t -> int
(** [Σ_{v ∈ s} w(v)] over a bitset vertex set, as in
    {!Graph.set_weight_of}. *)

val label : t -> int -> string
(** The builder-assigned label, or the node index when none was set. *)

(** {1 Iteration} *)

val neighbors_array : t -> int -> int array
(** A fresh sorted array of the row. *)

val rows : t -> int array * int array
(** [(xadj, adj)], the graph's own storage, not a copy: row [v] is
    [adj.(xadj.(v)) .. adj.(xadj.(v+1) - 1)], ascending, and [xadj] has
    [n + 1] entries.  Read-only — writing either array corrupts the
    graph.  O(1); this is how CONGEST kernels read their neighbours
    in place. *)

val iter_edges : (int -> int -> unit) -> t -> unit
(** Each undirected edge once, with [u < v], ascending. *)

val iter_nodes : (int -> unit) -> t -> unit

val reweight : t -> (int -> int) -> t
(** [reweight g f] is a graph with weight [f v] at every node, sharing
    [g]'s structure arrays — O(n), no copy of the edge data.  This is how
    gadget instances re-weight the fixed construction. *)

(** {1 Comparison, sizing, formatting} *)

val equal : t -> t -> bool
(** Same size, weights and edge sets (labels ignored), matching
    {!Graph.equal}. *)

val resident_words : t -> int
(** Approximate heap words held by the structure (offsets + neighbors +
    weights + labels) — perfbench's [graph.resident_words] metric. *)

val pp : Format.formatter -> t -> unit
(** One-line summary in the {!Graph.pp} format. *)
