(** The prior state of the art this paper improves: Bachrach, Censor-Hillel,
    Dory, Efron, Leitersdorf & Paz [PODC 2019], plus the exact-MaxIS bound
    of Censor-Hillel, Khoury & Paz [DISC 2017].

    These are the baselines of the reproduction: the paper's contribution
    is a strictly better (ratio, rounds) frontier, and the `baseline` bench
    table prints both frontiers side by side at matched [n].  We reproduce
    the prior results as formulas (their constructions are superseded by
    the very families of Section 4, which for [t = 2] are "simplified
    versions" of [4] — Lemma 1 is this repository's constructive two-party
    baseline). *)

type entry = {
  source : string;
  ratio : float;  (** approximation ratio the bound defeats: (ratio + ε) *)
  rounds : n:float -> float;  (** the Ω(·) round bound, constant 1 *)
  description : string;
}

val bachrach_linear : entry
(** (5/6 + ε)-approx needs Ω(n / log⁶ n). *)

val bachrach_quadratic : entry
(** (7/8 + ε)-approx needs Ω(n² / log⁷ n). *)

val this_paper_linear : entry
(** (1/2 + ε)-approx needs Ω(n / log³ n) — Theorem 1. *)

val this_paper_quadratic : entry
(** (3/4 + ε)-approx needs Ω(n² / log³ n) — Theorem 2. *)

val all : entry list
(** All five, prior work first: the exact-MaxIS bound of Censor-Hillel,
    Khoury & Paz (Ω(n² / log² n), listed only here), then the four
    above. *)

val improvement_factor : old_bound:entry -> new_bound:entry -> n:float -> float
(** Ratio of the new round bound to the old at a given [n] (> 1 means the
    new bound is stronger). *)
