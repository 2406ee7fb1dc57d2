(** Exact maximum-weight independent set.

    This solver turns the paper's case analyses (Claims 1–7) into machine
    checks: for every constructed instance we compute [OPT] exactly and
    compare it against the closed-form predictions.

    The algorithm is branch and bound over bitset candidate sets with a
    greedy clique-cover upper bound — well suited to the gadget graphs,
    which are unions of cliques plus sparse connections, so the clique
    cover is nearly exact and pruning is aggressive.  Instances up to a few
    hundred nodes (all instances in the test and bench suites) solve in
    milliseconds to seconds. *)

type solution = {
  weight : int;  (** OPT — the paper's maximum independent set value *)
  set : Stdx.Bitset.t;  (** a witness achieving it *)
  nodes_explored : int;  (** branch-and-bound tree size, for the benches *)
}

val solve : Wgraph.Graph.t -> solution
(** Raises nothing; on the empty graph returns weight 0. *)

(** {1 Budgeted solving}

    The branch-and-bound tree of a pathological instance can blow up
    without warning; a sweep must degrade, not die.  The budgeted entry
    points thread an {!Exec.Budget} cooperatively through the search
    (the node cap is compared at every explored node; the clock and the
    cancellation token every [every] nodes) and, on exhaustion, return a
    {e certified interval} instead of raising: the incumbent — a valid
    independent set — certifies [lb], and root relaxations (the greedy
    clique cover, plus vertex-cover duality on full-graph solves)
    certify [ub], so [lb <= OPT <= ub] always holds.

    With [Exec.Budget.unlimited] (the default) the budgeted functions
    are bit-identical to their unbudgeted counterparts: same weight,
    same witness, same node count. *)

type exhausted = {
  lb : int;  (** weight of the best incumbent found — a valid IS *)
  ub : int;  (** certified relaxation bound, [>= lb] *)
  witness : Stdx.Bitset.t;  (** the incumbent achieving [lb] *)
  nodes_explored : int;
  reason : Exec.Budget.reason;
}

type outcome = Complete of solution | Exhausted of exhausted

val interval : outcome -> int * int
(** [(lb, ub)]; collapses to [(weight, weight)] on [Complete]. *)

val solve_budgeted : ?budget:Exec.Budget.t -> Wgraph.Graph.t -> outcome

val solve_induced_budgeted :
  ?budget:Exec.Budget.t -> Wgraph.Graph.t -> Stdx.Bitset.t -> outcome

val solve_induced : Wgraph.Graph.t -> Stdx.Bitset.t -> solution
(** Maximum-weight independent set of the subgraph induced by the given
    node set, expressed in the original graph's node numbering.  This is
    what the "Limitations" protocol runs on each player's region [Vⁱ]. *)

val opt : Wgraph.Graph.t -> int
(** [opt g = (solve g).weight]. *)

val max_nodes : int
(** Safety limit on instance size (default 4000); [solve] raises
    [Invalid_argument] beyond it rather than running forever. *)
