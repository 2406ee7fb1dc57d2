(** DIMACS-style serialization of weighted graphs.

    The standard exchange format for independent-set/clique benchmarks:
    downstream users can export the paper's hard instances and feed them
    to any off-the-shelf MaxIS/MWIS solver.  We write the classic
    undirected format

    {v
    c <comment lines>
    p edge <n> <m>
    n <node-1-based> <weight>      (one per node with weight <> 1)
    e <u-1-based> <v-1-based>      (one per edge)
    v}

    plus optional [c partition <node> <part>] comment lines carrying the
    player partition, which {!parse} recovers. *)

val to_string : ?comment:string -> ?partition:int array -> Graph.t -> string

val write_file : string -> ?comment:string -> ?partition:int array -> Graph.t -> unit

val parse : string -> Graph.t * int array option
(** Inverse of {!to_string}.  Raises [Failure] with a line-numbered message
    ([Dimacs.parse: line N: ...]) on malformed input: a non-integer
    field, an unknown record, a duplicate or negative [p] line, a node
    number outside [1, n] (in [n], [e] or [c partition] records), a
    negative weight or a self-loop.  Unknown comment lines are ignored;
    node weights default to 1. *)

val read_file : string -> Graph.t * int array option
