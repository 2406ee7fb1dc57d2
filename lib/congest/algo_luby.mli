(** Luby's randomized maximal independent set in CONGEST.

    The classic [O(log n)]-phase algorithm: in each 3-round phase, every
    still-undecided node draws a random priority; local maxima join the
    independent set, and their neighbors drop out.  Messages are at most
    [2·⌈log n⌉]-bit priorities — comfortably inside the CONGEST budget.

    This is a {e maximal} (not maximum) independent set algorithm: it is
    one of the fast upper-bound algorithms the paper's introduction
    contrasts with the hardness results, and the benches run it on the hard
    instances to show how far below OPT such algorithms land. *)

val mis : bool Program.t
(** Output: [Some true] if the node entered the independent set,
    [Some false] if a neighbor did.  All nodes halt with probability 1;
    the expected number of phases is [O(log n)].  The list-mode form
    ({!Fastpath.to_program}) of {!Fastpath.luby_mis}. *)
