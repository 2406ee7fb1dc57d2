(** Small numeric helpers shared across the repository.

    Integer logarithms appear everywhere in the paper: message sizes are
    [O(log n)] bits, the code parameters are [ℓ = log k − log k / log log k],
    and the lower bounds divide by powers of [log n]. *)

val log2 : float -> float
(** Base-2 logarithm. *)

val ceil_log2 : int -> int
(** [ceil_log2 n] is the number of bits needed to write numbers in
    [0, n) — i.e. [⌈log₂ n⌉], with [ceil_log2 0 = 0] and [ceil_log2 1 = 0].
    Raises [Invalid_argument] on negative input. *)

val floor_log2 : int -> int
(** [⌊log₂ n⌋]; raises [Invalid_argument] when [n <= 0]. *)

val pow : int -> int -> int
(** [pow b e] is [b^e] by fast exponentiation on [int]s (no overflow
    checking).  Raises [Invalid_argument] on negative exponent. *)

val isqrt : int -> int
(** Integer square root: largest [r] with [r*r <= n]. *)

val divide_round_up : int -> int -> int
(** [divide_round_up a b = ⌈a/b⌉] for positive [b]. *)
