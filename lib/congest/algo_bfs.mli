(** Distributed BFS: single-source distances.

    The root announces distance 0; a node adopting distance [d] announces
    [d+1].  After [rounds >= eccentricity(root)+1] rounds every reachable
    node knows its distance.  One id-sized message per edge per round. *)

val distances : root:int -> rounds:int -> int Program.t
(** Output: the node's BFS distance from [root], or [None] if it never
    heard from the wave (disconnected or too few rounds).  The list-mode
    form ({!Fastpath.to_program}) of {!Fastpath.bfs_distances}. *)
