module Bitset = Stdx.Bitset
module Graph = Wgraph.Graph

type solution = { weight : int; set : Bitset.t; nodes_explored : int }

let max_nodes = 4000

(* Greedy clique-cover upper bound: partition the candidate set into
   cliques; an independent set holds at most one node per clique, so the sum
   of per-clique maximum weights bounds OPT on the candidates.  On the
   paper's gadgets (disjoint unions of cliques plus sparse inter-clique
   edges) this is nearly tight, which is what makes the search fast.

   We scan candidates in decreasing-weight order and put each node into the
   first clique class whose members are all adjacent to it.  Each class
   keeps, instead of its members, the set of nodes adjacent to every
   member: a node fits the class iff it is in that set (one [Bitset.mem]),
   and joining intersects the set with the node's neighbourhood.  The sets
   come from a per-solve pool ([cover]) and are overwritten on reuse, so a
   branch-and-bound node allocates nothing here. *)
type cover = {
  mutable common : Bitset.t array;  (** class c: nodes adjacent to all of c *)
  heaviest : int array;  (** class c: its heaviest member's weight *)
}

let cover_create n = { common = [||]; heaviest = Array.make (max 1 n) 0 }

let clique_cover_bound g order cover cands =
  let nclasses = ref 0 in
  let bound = ref 0 in
  for i = 0 to Array.length order - 1 do
    let v = order.(i) in
    if Bitset.mem cands v then begin
      let c = ref 0 in
      while !c < !nclasses && not (Bitset.mem cover.common.(!c) v) do
        incr c
      done;
      let c = !c in
      let nbrs = Graph.neighbors g v in
      if c = !nclasses then begin
        if c = Array.length cover.common then
          cover.common <-
            Array.init (max 8 (2 * c)) (fun j ->
                if j < c then cover.common.(j) else Bitset.create (Graph.n g));
        Bitset.clear cover.common.(c);
        Bitset.union_in_place cover.common.(c) nbrs;
        cover.heaviest.(c) <- 0;
        incr nclasses
      end
      else Bitset.inter_in_place cover.common.(c) nbrs;
      let w = Graph.weight g v in
      if w > cover.heaviest.(c) then begin
        bound := !bound + w - cover.heaviest.(c);
        cover.heaviest.(c) <- w
      end
    end
  done;
  !bound

type exhausted = {
  lb : int;
  ub : int;
  witness : Bitset.t;
  nodes_explored : int;
  reason : Exec.Budget.reason;
}

type outcome = Complete of solution | Exhausted of exhausted

let interval = function
  | Complete s -> (s.weight, s.weight)
  | Exhausted e -> (e.lb, e.ub)

exception Out_of_budget of Exec.Budget.reason

(* Solver metrics (docs/OBSERVABILITY.md).  Node/prune/leaf counts are
   tallied in plain local refs inside the search and flushed in one
   atomic add per solve, so the branch loop's per-node cost is untouched;
   the shared cells make solves running concurrently on a pool (the
   daemon's batches, [Verification.claim_checks]) sum correctly. *)
let m_solves = Obs.Metrics.counter "solver_solves_total"

let m_nodes = Obs.Metrics.counter "solver_nodes_total"

let m_prunes =
  Obs.Metrics.counter ~labels:[ ("bound", "clique_cover") ] "solver_prunes_total"

let m_leaves = Obs.Metrics.counter "solver_leaves_total"

let m_exhausted reason =
  Obs.Metrics.counter
    ~labels:[ ("reason", Exec.Budget.reason_to_string reason) ]
    "solver_budget_exhausted_total"

let branch_order g =
  (* Static order: decreasing weight, ties by decreasing degree — good both
     for the clique cover and for branching. *)
  let order = Array.init (Graph.n g) Fun.id in
  Array.sort
    (fun a b ->
      let c = compare (Graph.weight g b) (Graph.weight g a) in
      if c <> 0 then c else compare (Graph.degree g b) (Graph.degree g a))
    order;
  order

(* The budgeted core.  Under [Budget.unlimited] the check is a single
   physical-equality test and can never trip, so the exploration —
   including [nodes_explored] and the returned witness — is
   instruction-for-instruction the historical unbudgeted solver.  On
   exhaustion the incumbent certifies the lower end of the interval and
   a fresh root clique-cover bound certifies the upper end. *)
let solve_on ~budget g cands0 =
  let n = Graph.n g in
  if n > max_nodes then
    invalid_arg
      (Printf.sprintf "Mis.Exact.solve: %d nodes exceeds max_nodes=%d" n
         max_nodes);
  let order = branch_order g in
  let cover = cover_create n in
  let best_weight = ref 0 in
  let best_set = ref (Bitset.create n) in
  let current = Bitset.create n in
  let explored = ref 0 in
  let leaves = ref 0 in
  let pruned = ref 0 in
  let flush_metrics () =
    Obs.Metrics.inc m_solves;
    Obs.Metrics.add m_nodes !explored;
    Obs.Metrics.add m_leaves !leaves;
    Obs.Metrics.add m_prunes !pruned
  in
  let rec branch cands cur_weight =
    incr explored;
    (match Exec.Budget.check budget ~nodes:!explored with
    | Some reason -> raise (Out_of_budget reason)
    | None -> ());
    if Bitset.is_empty cands then begin
      incr leaves;
      if cur_weight > !best_weight then begin
        best_weight := cur_weight;
        best_set := Bitset.copy current
      end
    end
    else if cur_weight + clique_cover_bound g order cover cands > !best_weight
    then begin
      (* Branch on the heaviest candidate. *)
      let v =
        let rec find i =
          if Bitset.mem cands order.(i) then order.(i) else find (i + 1)
        in
        find 0
      in
      (* Include v. *)
      let without_nv = Bitset.diff cands (Graph.neighbors g v) in
      Bitset.remove without_nv v;
      Bitset.add current v;
      branch without_nv (cur_weight + Graph.weight g v);
      Bitset.remove current v;
      (* Exclude v. *)
      let without_v = Bitset.copy cands in
      Bitset.remove without_v v;
      branch without_v cur_weight
    end
    else incr pruned
  in
  match branch (Bitset.copy cands0) 0 with
  | () ->
      flush_metrics ();
      Complete { weight = !best_weight; set = !best_set; nodes_explored = !explored }
  | exception Out_of_budget reason ->
      flush_metrics ();
      Obs.Metrics.inc (m_exhausted reason);
      let ub =
        max !best_weight (clique_cover_bound g order cover cands0)
      in
      Exhausted
        {
          lb = !best_weight;
          ub;
          witness = !best_set;
          nodes_explored = !explored;
          reason;
        }

let complete_exn = function
  | Complete s -> s
  | Exhausted _ ->
      (* Unreachable: an unlimited budget can never trip. *)
      assert false

(* On full-graph solves a second, independent relaxation (vertex-cover
   duality) can undercut the clique cover; certify with the tighter of
   the two.  [max lb] keeps the interval well-formed by construction. *)
let refine_full_graph_ub g = function
  | Complete _ as c -> c
  | Exhausted e -> Exhausted { e with ub = max e.lb (min e.ub (Bounds.vc_dual_upper g)) }

let solve_budgeted ?(budget = Exec.Budget.unlimited) g =
  refine_full_graph_ub g (solve_on ~budget g (Bitset.full (Graph.n g)))

let solve_induced_budgeted ?(budget = Exec.Budget.unlimited) g cands =
  solve_on ~budget g cands

let solve g =
  complete_exn (solve_on ~budget:Exec.Budget.unlimited g (Bitset.full (Graph.n g)))

let solve_induced g cands =
  complete_exn (solve_on ~budget:Exec.Budget.unlimited g cands)

let opt g = (solve g).weight
