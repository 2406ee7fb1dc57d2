module Inputs = Commcx.Inputs
module Bitset = Stdx.Bitset
module Graph = Wgraph.Graph

type check = {
  name : string;
  holds : bool;
  opt : int;
  bound : int;
  kind : [ `Lower | `Upper ];
}

type unresolved = {
  u_name : string;
  u_kind : [ `Lower | `Upper ];
  u_bound : int;
  lb : int;
  ub : int;
  reason : Exec.Budget.reason;
}

type outcome = Decided of check | Unresolved of unresolved

let finish name kind opt bound =
  let holds = match kind with `Lower -> opt >= bound | `Upper -> opt <= bound in
  { name; holds; opt; bound; kind }

let require_players p x n name =
  if p.Params.players <> n || Inputs.t_players x <> n then
    invalid_arg (name ^ ": wrong number of players")

(* ------------------------------------------------------------------ *)
(* Shared evaluation.

   Every claim is (name, kind, bound, instance); the instance is solved
   exactly or under a budget.  A budgeted solve that exhausts may still
   decide the claim when the certified interval clears the bound from
   either side — only a bound strictly inside (lb, ub] for `Lower (or
   [lb, ub) for `Upper) is genuinely unresolved.  For an
   interval-decided claim [opt] reports the interval end that decided
   it, not the (unknown) true optimum. *)

type instance_ = Whole of Graph.t | Induced of Graph.t * Bitset.t

let solve_exact = function
  | Whole g -> Mis.Exact.opt g
  | Induced (g, cands) -> (Mis.Exact.solve_induced g cands).Mis.Exact.weight

let solve_under budget = function
  | Whole g -> Mis.Exact.solve_budgeted ~budget g
  | Induced (g, cands) -> Mis.Exact.solve_induced_budgeted ~budget g cands

let eval (name, kind, bound, inst) = finish name kind (solve_exact inst) bound

let eval_budgeted budget (name, kind, bound, inst) =
  match solve_under budget inst with
  | Mis.Exact.Complete s -> Decided (finish name kind s.Mis.Exact.weight bound)
  | Mis.Exact.Exhausted e -> (
      let lb = e.Mis.Exact.lb and ub = e.Mis.Exact.ub in
      match kind with
      | `Lower when lb >= bound -> Decided (finish name kind lb bound)
      | `Lower when ub < bound -> Decided (finish name kind ub bound)
      | `Upper when ub <= bound -> Decided (finish name kind ub bound)
      | `Upper when lb > bound -> Decided (finish name kind lb bound)
      | _ ->
          Unresolved
            {
              u_name = name;
              u_kind = kind;
              u_bound = bound;
              lb;
              ub;
              reason = e.Mis.Exact.reason;
            })

(* ------------------------------------------------------------------ *)
(* Claim specs *)

let linear_whole p x = Whole (Linear_family.instance p x).Family.graph

let quadratic_whole p x = Whole (Quadratic_family.instance p x).Family.graph

let claim1_spec p x =
  require_players p x 2 "Claims.claim1";
  if Inputs.pairwise_disjoint x then
    invalid_arg "Claims.claim1: strings must intersect";
  ("Claim 1", `Lower, (4 * Params.ell p) + (2 * Params.alpha p), linear_whole p x)

let claim2_spec p x =
  require_players p x 2 "Claims.claim2";
  if not (Inputs.pairwise_disjoint x) then
    invalid_arg "Claims.claim2: strings must be disjoint";
  ( "Claim 2",
    `Upper,
    (3 * Params.ell p) + (2 * Params.alpha p) + 1,
    linear_whole p x )

let claim3_spec p x =
  (match Inputs.uniquely_intersecting x with
  | Some _ -> ()
  | None -> invalid_arg "Claims.claim3: strings must share an index");
  ("Claim 3", `Lower, Linear_family.high_weight p, linear_whole p x)

let claim5_spec p x =
  if not (Inputs.pairwise_disjoint x) then
    invalid_arg "Claims.claim5: strings must be pairwise disjoint";
  ("Claim 5", `Upper, Linear_family.low_weight p, linear_whole p x)

let check_distinct_tuple name p ms =
  let t = p.Params.players in
  if Array.length ms <> t then invalid_arg (name ^ ": need t indices");
  let sorted = Array.copy ms in
  Array.sort compare sorted;
  for i = 0 to t - 2 do
    if sorted.(i) = sorted.(i + 1) then
      invalid_arg (name ^ ": indices must be distinct")
  done

let claim4_spec p ~ms =
  check_distinct_tuple "Claims.claim4" p ms;
  let t = p.Params.players in
  let g, _ = Linear_family.fixed p in
  (* Candidates: exactly the union of the forced codewords' node sets —
     the set Claim 4 counts over.  All weights are 1 in the fixed graph,
     so the exact MIS weight is the cardinality. *)
  let candidates = Bitset.create (Graph.n g) in
  Array.iteri
    (fun i m ->
      Array.iter
        (fun v -> Bitset.add candidates v)
        (Base_graph.code_nodes p ~offset:(Linear_family.copy_offset p i) ~m))
    ms;
  ( "Claim 4",
    `Upper,
    Params.ell p + (Params.alpha p * t * t),
    Induced (g, candidates) )

let corollary2_spec p ~ms =
  let t = p.Params.players in
  check_distinct_tuple "Claims.corollary2" p ms;
  let g, _ = Linear_family.fixed p in
  (* Force each v^i_{m_i} heavy and into the set: give it weight ℓ, and
     restrict the candidate set to the forced nodes plus non-neighbors. *)
  let forced =
    Array.mapi
      (fun i m ->
        Base_graph.a_node p ~offset:(Linear_family.copy_offset p i) ~m)
      ms
  in
  Array.iter (fun v -> Graph.set_weight g v (Params.ell p)) forced;
  let candidates = Bitset.full (Graph.n g) in
  Array.iter
    (fun v -> Bitset.diff_in_place candidates (Graph.neighbors g v))
    forced;
  (* The forced nodes are pairwise non-adjacent (distinct copies), so they
     all survive in [candidates]; any independent set within [candidates]
     containing them is an independent set of G containing them. *)
  (* [candidates] is exactly {forced} ∪ ∪ᵢ Codeⁱ_{mᵢ}: every other A node
     is clique-adjacent to a forced node and every other code node is
     adjacent to its copy's forced node.  The forced nodes conflict with
     nothing in [candidates], so the induced optimum always contains them
     and equals the best "I ⊇ {vⁱ_{mᵢ}}" completion the corollary bounds. *)
  ( "Corollary 2",
    `Upper,
    ((t + 1) * Params.ell p) + (Params.alpha p * t * t),
    Induced (g, candidates) )

let claim6_spec p x =
  (match Inputs.uniquely_intersecting x with
  | Some _ -> ()
  | None -> invalid_arg "Claims.claim6: strings must share an index");
  ("Claim 6", `Lower, Quadratic_family.high_weight p, quadratic_whole p x)

let claim7_spec p x =
  if not (Inputs.pairwise_disjoint x) then
    invalid_arg "Claims.claim7: strings must be pairwise disjoint";
  ("Claim 7", `Upper, Quadratic_family.low_weight p, quadratic_whole p x)

(* ------------------------------------------------------------------ *)
(* Public checkers *)

let claim1 p x = eval (claim1_spec p x)
let claim2 p x = eval (claim2_spec p x)
let claim3 p x = eval (claim3_spec p x)
let claim5 p x = eval (claim5_spec p x)
let claim4 p ~ms = eval (claim4_spec p ~ms)
let corollary2 p ~ms = eval (corollary2_spec p ~ms)
let claim6 p x = eval (claim6_spec p x)
let claim7 p x = eval (claim7_spec p x)

let claim1_budgeted ~budget p x = eval_budgeted budget (claim1_spec p x)
let claim2_budgeted ~budget p x = eval_budgeted budget (claim2_spec p x)
let claim3_budgeted ~budget p x = eval_budgeted budget (claim3_spec p x)
let claim5_budgeted ~budget p x = eval_budgeted budget (claim5_spec p x)
let claim4_budgeted ~budget p ~ms = eval_budgeted budget (claim4_spec p ~ms)

let corollary2_budgeted ~budget p ~ms =
  eval_budgeted budget (corollary2_spec p ~ms)

let claim6_budgeted ~budget p x = eval_budgeted budget (claim6_spec p x)
let claim7_budgeted ~budget p x = eval_budgeted budget (claim7_spec p x)

let pp ppf c =
  Format.fprintf ppf "%s: opt=%d %s bound=%d [%s]" c.name c.opt
    (match c.kind with `Lower -> ">=" | `Upper -> "<=")
    c.bound
    (if c.holds then "holds" else "VIOLATED")
