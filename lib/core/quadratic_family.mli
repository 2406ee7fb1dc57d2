(** The quadratic lower-bound family (Section 5): two copies of the linear
    construction, with input-dependent edges {e inside} each player's
    region.

    The fixed graph [F] is [G¹ ∪ G²] (so [2t] copies of [H] in total);
    player [i] owns [Vⁱ = V^{(i,1)} ∪ V^{(i,2)}].  All [A] nodes have fixed
    weight [ℓ]; code nodes weight 1.  The input strings have length [k²],
    indexed by pairs [(m₁, m₂)]; player [i] adds the edge
    [{v^{(i,1)}_{m₁}, v^{(i,2)}_{m₂}}] iff [xⁱ_{(m₁,m₂)} = 0] — absence of
    the edge encodes a 1-bit.  Because the strings are [k² = Θ(n²)] bits
    long while the cut stays [Θ(log² n)], Corollary 1 yields the
    near-quadratic bound of Theorem 2.

    Gap (Claims 6 and 7): uniquely intersecting ⇒ OPT ≥ [4tℓ + 2αt];
    pairwise disjoint ⇒ OPT ≤ [3(t+1)ℓ + 3αt³]; ratio → 3/4. *)

val copy_offset : Params.t -> player:int -> side:int -> int
(** Start of copy [(i, b)]; [side ∈ {0, 1}] selects [G¹]/[G²]. *)

val n_nodes : Params.t -> int
(** [2t · (k + (ℓ+α)q)]. *)

val string_length : Params.t -> int
(** [k²]. *)

val pair_index : Params.t -> m1:int -> m2:int -> int
(** Position of the bit [x_{(m₁,m₂)}] in the length-[k²] string. *)

val fixed : Params.t -> Wgraph.Graph.t * int array
(** [F] with its fixed weights and labels ["v^(i,b)_<m>"] and
    ["s^(i,b)_(h,r)"], and the player partition. *)

val instance : Params.t -> Commcx.Inputs.t -> Family.instance
(** [F_x̄]: [F] plus the input edges.  Raises [Invalid_argument] on
    mismatched inputs ([t] strings of length [k²]). *)

val fixed_csr : Params.t -> Wgraph.Csr.t * int array
(** {!fixed} through {!Wgraph.Csr.Builder}: the same edge source, weights
    and partition, without the n²-bit adjacency matrix, so Theorem-2
    sweeps reach the same n range as the linear family in time linear in
    the edge count.  No node labels. *)

val instance_csr :
  Params.t ->
  Commcx.Inputs.t ->
  Wgraph.Csr.t * int array
(** {!instance} through {!Wgraph.Csr.Builder}: the input A–A edges join
    the fixed edges before the builder is frozen.  Same
    [Invalid_argument] conditions as {!instance}, named for
    [instance_csr]. *)

val expected_cut_size : Params.t -> int
(** [2 · C(t,2) · (ℓ+α) · q(q−1)] — both copies' inter-player code
    connections; the input edges are internal to players and contribute
    nothing. *)

val high_weight : Params.t -> int
(** Claim 6's bound [4tℓ + 2αt]. *)

val low_weight : Params.t -> int
(** Claim 7's bound [3(t+1)ℓ + 3αt³]. *)

val formal_gap_valid : Params.t -> bool
(** Whether [low_weight < high_weight] — true only deep in the paper's
    asymptotic regime ([ℓ ≫ αt³]); the empirical gap (measured OPTs) is
    visible far earlier, which is what the benches report. *)

val predicate : Params.t -> Predicate.t
(** Raises [Invalid_argument] when the formal gap is not valid. *)

val spec : Params.t -> Family.spec
