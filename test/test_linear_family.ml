(* Tests for the linear family (Section 4): fixed construction G, weighted
   instances G_x, cut structure, Definition 4 conditions, and the gap. *)

module P = Maxis_core.Params
module BG = Maxis_core.Base_graph
module LF = Maxis_core.Linear_family
module Family = Maxis_core.Family
module Predicate = Maxis_core.Predicate
module Inputs = Commcx.Inputs
module Graph = Wgraph.Graph
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Gap-valid parameters: ell > alpha * t. *)
let p3 = P.make ~alpha:1 ~ell:4 ~players:3
let fig2 = P.figure_params ~players:2

let rand_inputs seed p ~intersecting =
  let rng = Prng.create seed in
  Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players ~intersecting

(* ------------------------------------------------------------------ *)
(* Fixed construction *)

let test_fixed_census_figure_t2 () =
  (* Two copies of the Figure-1 H (12 nodes, 30 edges each) plus
     inter-copy connections: positions * q * (q-1) = 3*3*2 = 18. *)
  let g, part = LF.fixed fig2 in
  check_int "n" 24 (Graph.n g);
  check_int "m" (30 + 30 + 18) (Graph.edge_count g);
  check_int "cut" 18 (Wgraph.Cut.size g part);
  check_int "expected cut" 18 (LF.expected_cut_size fig2);
  Alcotest.(check (array int)) "part sizes" [| 12; 12 |] (Wgraph.Cut.part_sizes part)

let test_fixed_unit_weights () =
  let g, _ = LF.fixed p3 in
  check_int "total weight = n" (Graph.n g) (Graph.total_weight g)

let test_intercopy_connections_shape () =
  (* Figure 2: sigma^i_(h,r) adjacent to all of C^j_h except sigma^j_(h,r). *)
  let p = fig2 in
  let g, _ = LF.fixed p in
  let off0 = LF.copy_offset p 0 and off1 = LF.copy_offset p 1 in
  for h = 0 to P.positions p - 1 do
    for r = 0 to P.q p - 1 do
      for r' = 0 to P.q p - 1 do
        let u = BG.sigma_node p ~offset:off0 ~h ~r in
        let v = BG.sigma_node p ~offset:off1 ~h ~r:r' in
        check
          (Printf.sprintf "h=%d r=%d r'=%d" h r r')
          (r <> r') (Graph.has_edge g u v)
      done
    done
  done

let test_no_edges_between_different_positions () =
  (* C^i_h and C^j_h' are not connected for h <> h'. *)
  let p = fig2 in
  let g, _ = LF.fixed p in
  let u = BG.sigma_node p ~offset:(LF.copy_offset p 0) ~h:0 ~r:1 in
  let v = BG.sigma_node p ~offset:(LF.copy_offset p 1) ~h:1 ~r:2 in
  check "no cross-position edge" false (Graph.has_edge g u v)

let test_no_edges_between_a_cliques () =
  (* No edges between A^i and A^j, nor between A^i and Code^j. *)
  let p = p3 in
  let g, _ = LF.fixed p in
  for i = 0 to 2 do
    for j = 0 to 2 do
      if i <> j then begin
        let vi = BG.a_node p ~offset:(LF.copy_offset p i) ~m:0 in
        let vj = BG.a_node p ~offset:(LF.copy_offset p j) ~m:1 in
        check "A-A" false (Graph.has_edge g vi vj);
        let sj = BG.sigma_node p ~offset:(LF.copy_offset p j) ~h:0 ~r:0 in
        check "A-Code" false (Graph.has_edge g vi sj)
      end
    done
  done

let test_cut_is_only_intercopy_code () =
  (* Every cut edge joins two code nodes at the same position h. *)
  let p = p3 in
  let g, part = LF.fixed p in
  List.iter
    (fun (u, v) ->
      let off_u = LF.copy_offset p part.(u) and off_v = LF.copy_offset p part.(v) in
      match (BG.node_kind p ~offset:off_u u, BG.node_kind p ~offset:off_v v) with
      | `Sigma (hu, _), `Sigma (hv, _) -> check_int "same position" hu hv
      | _ -> Alcotest.fail "cut edge touches an A node")
    (Wgraph.Cut.edges g part)

let test_cut_size_formula_across_t () =
  List.iter
    (fun t ->
      let p = P.make ~alpha:1 ~ell:3 ~players:t in
      let g, part = LF.fixed p in
      check_int
        (Printf.sprintf "cut t=%d" t)
        (LF.expected_cut_size p)
        (Wgraph.Cut.size g part))
    [ 2; 3; 4; 5 ]

let test_constant_diameter () =
  (* The paper notes the hard instances have constant diameter. *)
  List.iter
    (fun t ->
      let p = P.make ~alpha:1 ~ell:3 ~players:t in
      let g, _ = LF.fixed p in
      let d = Wgraph.Metrics.diameter g in
      check (Printf.sprintf "diameter t=%d is %d" t d) true (d >= 1 && d <= 4))
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Weighted instances *)

let test_instance_weights () =
  let p = p3 in
  let x =
    Inputs.of_bit_lists ~k:(P.k p) [ [ 0; 2 ]; [ 1 ]; [] ]
  in
  let inst = LF.instance p x in
  let g = inst.Family.graph in
  let weight_of i m = Graph.weight g (BG.a_node p ~offset:(LF.copy_offset p i) ~m) in
  check_int "x^1_0 = 1 -> ell" (P.ell p) (weight_of 0 0);
  check_int "x^1_1 = 0 -> 1" 1 (weight_of 0 1);
  check_int "x^1_2 = 1 -> ell" (P.ell p) (weight_of 0 2);
  check_int "x^2_1 = 1 -> ell" (P.ell p) (weight_of 1 1);
  check_int "x^3 all zero" 1 (weight_of 2 0);
  (* code nodes always weigh 1 *)
  check_int "code weight" 1
    (Graph.weight g (BG.sigma_node p ~offset:(LF.copy_offset p 1) ~h:0 ~r:0))

let test_instance_edges_equal_fixed () =
  (* The weighting never changes the edge set. *)
  let p = p3 in
  let fixed_g, _ = LF.fixed p in
  let x = rand_inputs 5 p ~intersecting:true in
  let inst = LF.instance p x in
  check_int "same edges" (Graph.edge_count fixed_g) (Graph.edge_count inst.Family.graph);
  let same = ref true in
  Graph.iter_edges
    (fun u v -> if not (Graph.has_edge inst.Family.graph u v) then same := false)
    fixed_g;
  check "edge sets equal" true !same

let test_instance_input_validation () =
  let p = p3 in
  Alcotest.check_raises "wrong k"
    (Invalid_argument "Linear_family.instance: wrong string length") (fun () ->
      ignore (LF.instance p (Inputs.of_bit_lists ~k:4 [ []; []; [] ])));
  Alcotest.check_raises "wrong t"
    (Invalid_argument "Linear_family.instance: wrong number of players") (fun () ->
      ignore (LF.instance p (Inputs.of_bit_lists ~k:(P.k p) [ []; [] ])))

let test_instance_csr_input_validation () =
  let p = p3 in
  Alcotest.check_raises "wrong k"
    (Invalid_argument "Linear_family.instance_csr: wrong string length")
    (fun () ->
      ignore (LF.instance_csr p (Inputs.of_bit_lists ~k:4 [ []; []; [] ])));
  Alcotest.check_raises "wrong t"
    (Invalid_argument "Linear_family.instance_csr: wrong number of players")
    (fun () ->
      ignore (LF.instance_csr p (Inputs.of_bit_lists ~k:(P.k p) [ []; [] ])))

(* ------------------------------------------------------------------ *)
(* Property-1 set and the gap *)

let test_property1_set_weight () =
  (* On an instance where everyone holds m, the Property-1 set weighs
     exactly t(2ell+alpha). *)
  let p = p3 in
  let m = 2 in
  let x = Inputs.of_bit_lists ~k:(P.k p) [ [ m ]; [ m ]; [ m ] ] in
  let inst = LF.instance p x in
  let s = LF.property1_set p ~m in
  check "independent" true (Wgraph.Check.is_independent inst.Family.graph s);
  check_int "weight" (LF.high_weight p) (Graph.set_weight_of inst.Family.graph s)

let test_gap_thresholds () =
  let p = p3 in
  (* t=3, ell=4, alpha=1: high = 3*(8+1) = 27, low = 4*4 + 9 = 25 *)
  check_int "high" 27 (LF.high_weight p);
  check_int "low" 25 (LF.low_weight p);
  check "gap valid" true (LF.formal_gap_valid p);
  let pred = LF.predicate p in
  Alcotest.(check (float 1e-6)) "gamma" (25.0 /. 27.0) (Predicate.gamma pred)

let test_gap_invalid_at_figure_params () =
  (* ell=2, alpha=1, t=3: alpha*t = 3 > ell -> no formal gap. *)
  let p = P.figure_params ~players:3 in
  check "invalid" false (LF.formal_gap_valid p)

let test_condition2_exhaustive_singletons () =
  (* All-singleton inputs with t=2, ell=4 (gap valid: 4 > 2): x^1 = {a},
     x^2 = {b}; intersecting iff a = b.  Exhaustive over k^2 pairs. *)
  let p = P.make ~alpha:1 ~ell:4 ~players:2 in
  let spec = LF.spec p in
  for a = 0 to P.k p - 1 do
    for b = 0 to P.k p - 1 do
      let x = Inputs.of_bit_lists ~k:(P.k p) [ [ a ]; [ b ] ] in
      let r = Family.check_condition2 spec x in
      check (Printf.sprintf "a=%d b=%d" a b) true r.Family.ok;
      Alcotest.(check bool) "expected matches disjointness" (a <> b) r.Family.expected
    done
  done

let test_condition1_locality () =
  let p = p3 in
  let spec = LF.spec p in
  let base = [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let x1 = Inputs.of_bit_lists ~k:(P.k p) base in
  let x2 = Inputs.of_bit_lists ~k:(P.k p) [ [ 0 ]; [ 1; 3; 4 ]; [ 2 ] ] in
  let r = Family.check_condition1 spec x1 x2 ~player:1 in
  check "local" true r.Family.ok;
  Alcotest.(check (list int)) "no foreign weights" [] r.Family.foreign_weight_diffs;
  (* Varying two players at once is rejected. *)
  let x3 = Inputs.of_bit_lists ~k:(P.k p) [ [ 3 ]; [ 1; 3 ]; [ 2 ] ] in
  Alcotest.check_raises "two players varied"
    (Invalid_argument "Family.check_condition1: inputs differ outside the varied player")
    (fun () -> ignore (Family.check_condition1 spec x1 x3 ~player:1))

let test_condition2_rejects_wrong_shape () =
  (* The family's own input check names a bad shape. *)
  Alcotest.check_raises "wrong k"
    (Invalid_argument "Linear_family.instance: wrong string length") (fun () ->
      ignore
        (Family.check_condition2 (LF.spec p3)
           (Inputs.of_bit_lists ~k:4 [ []; []; [] ])))

let test_claim3_exact_tightness () =
  (* The Property-1 set realizes exactly the Claim-3 bound, and on sparse
     intersecting instances OPT equals it (nothing better exists). *)
  let p = p3 in
  let m = 0 in
  let x = Inputs.of_bit_lists ~k:(P.k p) [ [ m ]; [ m ]; [ m ] ] in
  let inst = LF.instance p x in
  check_int "OPT = t(2l+a)" (LF.high_weight p) (Mis.Exact.opt inst.Family.graph)

let test_condition1_catches_leaky_family () =
  (* Negative control: a family where player 2's string changes player 1's
     weights must be flagged by the checker — otherwise the checker proves
     nothing. *)
  let p = p3 in
  let leaky_build x =
    let inst = LF.instance p x in
    (* Leak: if player 1 holds bit 0, bump a node owned by player 0. *)
    if Inputs.bit x ~player:1 0 then
      Graph.set_weight inst.Family.graph
        (Maxis_core.Base_graph.a_node p ~offset:(LF.copy_offset p 0) ~m:0)
        99;
    inst
  in
  let spec = { (LF.spec p) with Family.build = leaky_build } in
  let x1 = Inputs.of_bit_lists ~k:(P.k p) [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let x2 = Inputs.of_bit_lists ~k:(P.k p) [ [ 1 ]; [ 0 ]; [ 3 ] ] in
  let r = Family.check_condition1 spec x1 x2 ~player:1 in
  check "leak detected" false r.Family.ok;
  check "the leaked node is listed" true
    (List.mem
       (Maxis_core.Base_graph.a_node p ~offset:(LF.copy_offset p 0) ~m:0)
       r.Family.foreign_weight_diffs)

let test_condition1_catches_leaky_edges () =
  (* Same idea with a foreign edge: player 1's bit toggles an edge inside
     player 0's region. *)
  let p = p3 in
  let leaky_build x =
    let inst = LF.instance p x in
    if Inputs.bit x ~player:1 0 then
      Graph.remove_edge inst.Family.graph
        (Maxis_core.Base_graph.a_node p ~offset:(LF.copy_offset p 0) ~m:0)
        (Maxis_core.Base_graph.a_node p ~offset:(LF.copy_offset p 0) ~m:1);
    inst
  in
  let spec = { (LF.spec p) with Family.build = leaky_build } in
  let x1 = Inputs.of_bit_lists ~k:(P.k p) [ [ 1 ]; [ 2 ]; [ 3 ] ] in
  let x2 = Inputs.of_bit_lists ~k:(P.k p) [ [ 1 ]; [ 0 ]; [ 3 ] ] in
  let r = Family.check_condition1 spec x1 x2 ~player:1 in
  check "edge leak detected" false r.Family.ok;
  check "edge listed" true (r.Family.foreign_edge_diffs <> [])

let prop_gap_over_random_promise_inputs =
  QCheck.Test.make ~name:"linear gap: verdict matches promise side" ~count:25
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let p = p3 in
      let x = rand_inputs seed p ~intersecting:inter in
      let inst = LF.instance p x in
      let opt = Mis.Exact.opt inst.Family.graph in
      if inter then opt >= LF.high_weight p else opt <= LF.low_weight p)

let prop_cut_independent_of_inputs =
  QCheck.Test.make ~name:"cut never depends on inputs" ~count:15
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let p = p3 in
      let x = rand_inputs seed p ~intersecting:inter in
      let inst = LF.instance p x in
      Family.cut_size inst = LF.expected_cut_size p)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "linear-family"
    [
      ( "fixed",
        [
          Alcotest.test_case "census t=2 figure" `Quick test_fixed_census_figure_t2;
          Alcotest.test_case "unit weights" `Quick test_fixed_unit_weights;
          Alcotest.test_case "inter-copy shape (Fig 2)" `Quick
            test_intercopy_connections_shape;
          Alcotest.test_case "no cross-position edges" `Quick
            test_no_edges_between_different_positions;
          Alcotest.test_case "no A-A / A-Code cross edges" `Quick
            test_no_edges_between_a_cliques;
          Alcotest.test_case "cut = inter-copy code edges" `Quick
            test_cut_is_only_intercopy_code;
          Alcotest.test_case "cut formula across t" `Quick test_cut_size_formula_across_t;
          Alcotest.test_case "constant diameter" `Quick test_constant_diameter;
        ] );
      ( "instances",
        [
          Alcotest.test_case "weights follow inputs" `Quick test_instance_weights;
          Alcotest.test_case "edges fixed" `Quick test_instance_edges_equal_fixed;
          Alcotest.test_case "validation" `Quick test_instance_input_validation;
          Alcotest.test_case "instance_csr validation" `Quick
            test_instance_csr_input_validation;
        ] );
      ( "gap",
        [
          Alcotest.test_case "property-1 set weight" `Quick test_property1_set_weight;
          Alcotest.test_case "thresholds" `Quick test_gap_thresholds;
          Alcotest.test_case "figure params have no formal gap" `Quick
            test_gap_invalid_at_figure_params;
          Alcotest.test_case "condition 2 exhaustive t=2" `Slow
            test_condition2_exhaustive_singletons;
          Alcotest.test_case "condition 1 locality" `Quick test_condition1_locality;
          Alcotest.test_case "condition 1 catches leaky weights" `Quick
            test_condition1_catches_leaky_family;
          Alcotest.test_case "condition 1 catches leaky edges" `Quick
            test_condition1_catches_leaky_edges;
          Alcotest.test_case "claim 3 tight" `Quick test_claim3_exact_tightness;
          Alcotest.test_case "condition 2 rejects a wrong shape" `Quick
            test_condition2_rejects_wrong_shape;
        ] );
      qsuite "gap-props"
        [ prop_gap_over_random_promise_inputs; prop_cut_independent_of_inputs ];
    ]
