(** Randomized distributed maximal matching in CONGEST.

    A proposal protocol in 3-round phases: every unmatched node flips a
    coin; heads makes it a {e proposer} this phase, tails an {e acceptor}.
    Proposers pick a uniformly random still-unmatched neighbor and propose;
    acceptors accept the smallest-id proposal they received, forming a
    matched pair; matched nodes announce themselves and leave.  Any edge
    between two unmatched nodes survives a phase unmatched with probability
    bounded away from 1, so the matching is maximal after [O(log n)]
    phases in expectation (Israeli–Itai style).

    Messages are 3-bit tags — well under the CONGEST budget. *)

val maximal_matching_flat : int Fastpath.t
(** Output: [Some partner] for matched nodes, [None] for nodes left
    unmatched (their neighborhoods are fully matched).  All nodes halt
    with probability 1; the announced pairs always form a maximal
    matching. *)

val maximal_matching : int Program.t
(** The list-mode form of the kernel ({!Fastpath.to_program}). *)
