(** Distributed greedy maximal independent set by weight.

    The deterministic sibling of Luby's algorithm: the per-phase priority
    is the node's (static) weight, so heavy nodes win locally — the
    distributed analogue of the sequential max-weight-first greedy.  On the
    paper's hard instances this is exactly the kind of fast algorithm whose
    approximation the lower bounds show cannot be improved cheaply: it
    terminates in [O(n)] rounds (typically far fewer) but can land a
    constant factor below OPT. *)

val mis : bool Program.t
(** Output: [Some true] iff the node joined the independent set.  The
    list-mode form ({!Fastpath.to_program}) of {!Fastpath.greedy_mis}. *)
