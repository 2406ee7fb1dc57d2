(** The linear lower-bound family (Section 4): [t] copies of [H] with
    inter-copy code connections, weighted by the input strings.

    The fixed construction [G] contains copies [H¹, ..., Hᵗ]; for every
    pair [i ≠ j] and every position [h], the cliques [Cⁱ_h] and [Cʲ_h] are
    joined by all edges {e except} the natural perfect matching.  Given
    [x̄ ∈ ({0,1}^k)ᵗ], the instance [G_x̄] sets [w(vⁱ_m) = ℓ] when
    [xⁱ_m = 1] and [1] otherwise; all code nodes have weight 1.

    Gap (Claims 3 and 5): uniquely intersecting inputs admit an
    independent set of weight [t(2ℓ+α)]; pairwise-disjoint inputs admit at
    most [(t+1)ℓ + αt²].  As [t] grows the ratio approaches 1/2 — Lemma 2,
    and with Corollary 1, Theorem 1's [Ω(n/log³n)] for
    (1/2+ε)-approximation. *)

val copy_offset : Params.t -> int -> int
(** Start of copy [i ∈ [0, t)] in the node numbering. *)

val n_nodes : Params.t -> int
(** [t · (k + (ℓ+α)q)]. *)

val fixed : Params.t -> Wgraph.Graph.t * int array
(** The fixed construction [G] (unit weights) and the player partition
    [node ↦ i]. *)

val instance : Params.t -> Commcx.Inputs.t -> Family.instance
(** [G_x̄]: the fixed graph re-weighted by the inputs.  Raises
    [Invalid_argument] if the inputs don't match the parameters ([t]
    strings of length [k]). *)

val fixed_csr : Params.t -> Wgraph.Csr.t * int array
(** CSR twin of {!fixed}: identical edge set and partition, built through
    {!Base_graph.build_csr_into} without the n²-bit adjacency matrix, so
    Theorem-1 sweeps reach n in the 10⁵–10⁶ range.  No node labels
    (they would dominate build cost at scale).  Construction is
    linear in the edge count ({!Wgraph.Csr.Builder.finish} sorts no
    row).  test/test_csr.ml pins
    [Csr.equal (fst (fixed_csr p)) (Csr.of_graph (fst (fixed p)))]. *)

val instance_csr :
  Params.t ->
  Commcx.Inputs.t ->
  Wgraph.Csr.t * int array
(** CSR twin of {!instance}: the fixed CSR construction re-weighted (by
    structure-sharing {!Wgraph.Csr.reweight}) according to the input
    strings.  Same [Invalid_argument] conditions as {!instance}. *)

val property1_set : Params.t -> m:int -> Stdx.Bitset.t
(** The set [(∪ᵢ Codeⁱ_m) ∪ {vⁱ_m | i}] of Property 1 — independent in
    [G] for every [m]. *)

val expected_cut_size : Params.t -> int
(** [C(t,2) · (ℓ+α) · q · (q−1)]: the inter-copy connection count, which
    is the entire cut — [Θ(t² log² k)] in the paper's regime. *)

val high_weight : Params.t -> int
(** Claim 3's bound [t(2ℓ+α)]. *)

val low_weight : Params.t -> int
(** Claim 5's bound [(t+1)ℓ + αt²]. *)

val formal_gap_valid : Params.t -> bool
(** Whether [low_weight < high_weight], i.e. [ℓ > αt].  (The paper's
    regime [ℓ ≈ log k ≫ α·t] always satisfies it; tiny figure-sized
    parameters may not, in which case only the one-sided claims — not the
    gap predicate — apply.) *)

val predicate : Params.t -> Predicate.t
(** Raises [Invalid_argument] when the formal gap is not valid. *)

val spec : Params.t -> Family.spec
(** The full Definition-4 package: [build = instance], [f] = promise
    pairwise disjointness, [P] = the gap predicate above. *)
