(** Greedy approximation heuristics for maximum-weight independent set.

    The paper's upper-bound landscape (Section 1) offers only
    Δ-approximations in CONGEST; these sequential heuristics play that role
    in the benches — they are the "achievable in practice" curves that the
    lower-bound gap tables are contrasted with.  All return independent
    sets (checked by {!Verify.solution_ok}). *)

type heuristic = {
  name : string;
  run : Wgraph.Graph.t -> Stdx.Bitset.t;
}

val max_weight_first : heuristic
(** Repeatedly take the heaviest remaining node and delete its
    neighborhood — the weighted analogue of the classic greedy MIS. *)

val min_degree_first : heuristic
(** Repeatedly take a remaining node of minimum residual degree (ties by
    weight).  Achieves Δ+1-ish behaviour on unweighted graphs. *)

val all : heuristic list
(** The two above, then weight/degree: repeatedly take the node
    maximizing [w(v) / (deg(v)+1)] — the greedy that realizes the
    Caro–Wei bound [Σ w(v)/(deg(v)+1)] in expectation. *)

val run : heuristic -> Wgraph.Graph.t -> int * Stdx.Bitset.t
(** [(weight, set)]. *)
