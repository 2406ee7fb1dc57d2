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
    [offset], so the same functions serve both families. *)

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

val build_csr_into : Params.t -> Wgraph.Csr.Builder.t -> offset:int -> unit
(** CSR twin of [build_into], for large-n sweeps: identical edge set,
    built directly (the codeword's own code nodes are skipped rather than
    connected and removed).  It sets no node labels: they would dominate
    build cost at n ≥ 10⁵, so every node keeps its index as its label.
    test/test_csr.ml pins [Csr.equal] (which ignores labels) against
    [Csr.of_graph] of the bitset construction. *)

val build_into : Params.t -> Wgraph.Graph.t -> offset:int -> copy_name:string -> unit
(** Wire one copy of [H] into the graph at [offset]: the [A] clique, the
    code-gadget cliques, and the [v_m ↔ Code \ Code_m] edges; also sets
    node labels ["v^<copy>_<m>"] and ["s^<copy>_(h,r)"] (1-based like the
    paper). *)
