(** The base graph [H] of Section 4.1, and the node layout of its copies.

    [H = (V_H, E_H)] consists of:
    - a clique [A = {v₁, ..., v_k}] of [k = (ℓ+α)^α] nodes, and
    - the {e code gadget}: [ℓ+α] cliques [C₁, ..., C_{ℓ+α}], each of [q]
      nodes [σ_{(h,1)}, ..., σ_{(h,q)}] ([q = ℓ+α] when that is prime,
      otherwise the next prime — see DESIGN.md §4);
    - [v_m] is connected to every code node {e outside}
      [Code_m = {σ_{(h, C(m)_h)} | h}], the codeword's node set.

    The lower-bound constructions use [t] (or [2t]) disjoint copies of [H]
    laid out consecutively; all indexing here is relative to a copy
    [offset], so the same functions serve both families.

    Each family states its edges once, as an iterator
    [(int -> int -> unit) -> unit] built from {!iter_edges} and
    {!iter_code_links}, with one weight and one label function per node.
    {!graph_of_edges} feeds that source to a bitset {!Wgraph.Graph.t},
    {!csr_of_edges} to a {!Wgraph.Csr.Builder.t}; the two builders differ
    only in the container. *)

val copy_size : Params.t -> int
(** Number of nodes of one copy: [k + (ℓ+α)·q]. *)

val a_node : Params.t -> offset:int -> m:int -> int
(** The node [v_m] of the copy starting at [offset]; [m ∈ [0, k)]. *)

val sigma_node : Params.t -> offset:int -> h:int -> r:int -> int
(** The node [σ_{(h,r)}]; [h ∈ [0, ℓ+α)], [r ∈ [0, q)]. *)

val code_clique : Params.t -> offset:int -> h:int -> int array
(** All [q] nodes of the clique [C_h]. *)

val code_nodes : Params.t -> offset:int -> m:int -> int array
(** [Code_m]: the [ℓ+α] code nodes selected by the codeword [C(m)], one
    per position. *)

val all_code_nodes : Params.t -> offset:int -> int array
(** The whole code gadget of the copy. *)

val a_nodes : Params.t -> offset:int -> int array
(** The whole clique [A] of the copy. *)

val node_kind : Params.t -> offset:int -> int -> [ `A of int | `Sigma of int * int ]
(** Inverse of the layout within one copy: which role does a node play?
    Raises [Invalid_argument] if the node is outside the copy. *)

val iter_edges : Params.t -> offset:int -> (int -> int -> unit) -> unit
(** [iter_edges p ~offset f] calls [f] once per edge of the copy of [H] at
    [offset]: the [A] clique, the code cliques [C_h], and
    [v_m ↔ Code \ Code_m] (for each position, every symbol but the
    codeword's own). *)

val iter_code_links :
  Params.t -> offset:int -> offset':int -> (int -> int -> unit) -> unit
(** The inter-copy connections of both families (Figure 2): for every
    position [h], each edge between [C_h] of the copy at [offset] and
    [C_h] of the copy at [offset'] except the natural perfect matching
    [σ_{(h,r)} ↔ σ_{(h,r)}]. *)

val label : Params.t -> copy_name:string -> offset:int -> int -> string
(** The node's label, from {!node_kind}: ["v<copy_name>_<m>"] or
    ["s<copy_name>_(h,r)"], 1-based like the paper. *)

val graph_of_edges :
  n:int ->
  weight:(int -> int) ->
  label:(int -> string) ->
  ((int -> int -> unit) -> unit) ->
  Wgraph.Graph.t
(** A bitset graph on [n] nodes with the given edge source, weights and
    labels. *)

val csr_of_edges :
  n:int -> weight:(int -> int) -> ((int -> int -> unit) -> unit) -> Wgraph.Csr.t
(** The same source through {!Wgraph.Csr.Builder}, without the n²-bit
    adjacency matrix and in time linear in the edge count.  It sets no
    labels: at n ≥ 10⁵ the per-node strings would cost more than the
    edges, so every node keeps its index as its label. *)

val graph : Params.t -> Wgraph.Graph.t
(** One labelled copy of [H] at offset 0 with unit weights (Figure 1);
    labels carry no copy name. *)
