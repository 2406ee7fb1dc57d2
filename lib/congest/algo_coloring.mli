(** Randomized (Δ+1)-coloring in CONGEST.

    The classic trial-and-lock scheme: in every 2-round phase each
    uncolored node proposes a uniformly random color from its remaining
    palette ([{0..deg(v)}] minus colors locked by neighbors) and locks it
    if no uncolored neighbor proposed the same color simultaneously.  Each
    trial succeeds with probability at least a constant, so all nodes lock
    within [O(log n)] phases with high probability.

    Messages carry one color ([≤ ⌈log(Δ+2)⌉ ≤ ⌈log n⌉+1] bits) plus a
    1-bit lock flag.  Together with Luby MIS and the greedy MIS this
    rounds out the symmetry-breaking trio of the CONGEST substrate. *)

val color_flat : int Fastpath.t
(** Output: the node's final color in [0 .. deg(v)]; adjacent nodes always
    receive distinct colors.  All nodes halt with probability 1. *)

val color : int Program.t
(** The list-mode form of the kernel ({!Fastpath.to_program}). *)
