(* Tests for Params and the base graph H (Section 4.1), pinned against the
   paper's Figure 1 example (ell=2, alpha=1, k=3). *)

module P = Maxis_core.Params
module BG = Maxis_core.Base_graph
module Graph = Wgraph.Graph
module Bitset = Stdx.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let figure = P.figure_params ~players:2

(* ------------------------------------------------------------------ *)
(* Params *)

let test_params_figure () =
  check_int "k" 3 (P.k figure);
  check_int "ell" 2 (P.ell figure);
  check_int "alpha" 1 (P.alpha figure);
  check_int "positions" 3 (P.positions figure);
  check_int "q" 3 (P.q figure)

let test_params_validation () =
  Alcotest.check_raises "players" (Invalid_argument "Params.make: need at least 2 players")
    (fun () -> ignore (P.make ~alpha:1 ~ell:2 ~players:1))

let test_params_epsilon_linear () =
  (* eps = 1/3 -> t = 6 *)
  let p = P.for_epsilon_linear ~alpha:1 ~ell:8 ~epsilon:(1.0 /. 3.0) in
  check_int "t" 6 p.P.players;
  Alcotest.check_raises "eps too big"
    (Invalid_argument "Params.for_epsilon_linear: need 0 < epsilon < 1/2")
    (fun () -> ignore (P.for_epsilon_linear ~alpha:1 ~ell:2 ~epsilon:0.6))

let test_params_epsilon_quadratic () =
  (* eps = 1/8 -> t = ceil(6 - 1) = 5 *)
  let p = P.for_epsilon_quadratic ~alpha:1 ~ell:8 ~epsilon:0.125 in
  check_int "t" 5 p.P.players;
  Alcotest.check_raises "eps too big"
    (Invalid_argument "Params.for_epsilon_quadratic: need 0 < epsilon < 1/4")
    (fun () -> ignore (P.for_epsilon_quadratic ~alpha:1 ~ell:2 ~epsilon:0.3))

let test_codeword_access () =
  let w = P.codeword figure 0 in
  check_int "length" 3 (Array.length w);
  Array.iter (fun s -> check "symbol in range" true (s >= 0 && s < 3)) w

(* ------------------------------------------------------------------ *)
(* Node layout *)

let test_copy_size () =
  (* k + positions*q = 3 + 3*3 = 12 *)
  check_int "figure copy" 12 (BG.copy_size figure);
  let p2 = P.make ~alpha:1 ~ell:4 ~players:2 in
  (* k=5, positions=5, q=5 -> 5 + 25 = 30 *)
  check_int "ell=4 copy" 30 (BG.copy_size p2)

let test_node_indexing_roundtrip () =
  let p = figure in
  for m = 0 to P.k p - 1 do
    match BG.node_kind p ~offset:0 (BG.a_node p ~offset:0 ~m) with
    | `A m' -> check_int "a roundtrip" m m'
    | `Sigma _ -> Alcotest.fail "a node misclassified"
  done;
  for h = 0 to P.positions p - 1 do
    for r = 0 to P.q p - 1 do
      match BG.node_kind p ~offset:0 (BG.sigma_node p ~offset:0 ~h ~r) with
      | `Sigma (h', r') ->
          check_int "h roundtrip" h h';
          check_int "r roundtrip" r r'
      | `A _ -> Alcotest.fail "sigma node misclassified"
    done
  done

let test_node_indexing_with_offset () =
  let p = figure in
  let off = BG.copy_size p in
  check_int "a offset" (off + 1) (BG.a_node p ~offset:off ~m:1);
  check_int "sigma offset" (off + 3 + 3 + 2) (BG.sigma_node p ~offset:off ~h:1 ~r:2);
  Alcotest.check_raises "outside copy"
    (Invalid_argument "Base_graph.node_kind: node outside copy") (fun () ->
      ignore (BG.node_kind p ~offset:off 0))

let test_index_bounds () =
  Alcotest.check_raises "bad m" (Invalid_argument "Base_graph.a_node: bad m")
    (fun () -> ignore (BG.a_node figure ~offset:0 ~m:3));
  Alcotest.check_raises "bad h" (Invalid_argument "Base_graph.sigma_node: bad position")
    (fun () -> ignore (BG.sigma_node figure ~offset:0 ~h:3 ~r:0));
  Alcotest.check_raises "bad r" (Invalid_argument "Base_graph.sigma_node: bad symbol")
    (fun () -> ignore (BG.sigma_node figure ~offset:0 ~h:0 ~r:3))

let test_code_nodes_follow_codeword () =
  let p = figure in
  for m = 0 to P.k p - 1 do
    let w = P.codeword p m in
    let nodes = BG.code_nodes p ~offset:0 ~m in
    check_int "one per position" (P.positions p) (Array.length nodes);
    Array.iteri
      (fun h node ->
        check_int "matches codeword symbol" (BG.sigma_node p ~offset:0 ~h ~r:w.(h)) node)
      nodes
  done

(* ------------------------------------------------------------------ *)
(* The wired base graph H (Base_graph.graph, one labelled copy) *)

let test_h_census_figure () =
  (* Figure 1: A is K3; three 3-cliques; v_m connected to Code \ Code_m,
     i.e. each v_m has 3 + ... A-clique: deg 2 within A, plus 9 - 3 = 6
     code nodes -> degree 8.  Edges: E(A)=3, 3 cliques x 3 = 9,
     A-to-code: 3 nodes x 6 = 18.  Total 30. *)
  let g = BG.graph figure in
  check_int "n" 12 (Graph.n g);
  check_int "m" 30 (Graph.edge_count g);
  for m = 0 to 2 do
    check_int "v_m degree" 8 (Graph.degree g (BG.a_node figure ~offset:0 ~m))
  done

let test_h_a_is_clique () =
  let g = BG.graph figure in
  let a = Bitset.of_list (Graph.n g) (Array.to_list (BG.a_nodes figure ~offset:0)) in
  check "A clique" true (Wgraph.Check.is_clique g a)

let test_h_code_cliques () =
  let g = BG.graph figure in
  for h = 0 to 2 do
    let c =
      Bitset.of_list (Graph.n g)
        (Array.to_list (BG.code_clique figure ~offset:0 ~h))
    in
    check "C_h clique" true (Wgraph.Check.is_clique g c)
  done

let test_h_vm_vs_code () =
  (* v_m is adjacent to exactly the code nodes outside Code_m. *)
  let p = figure in
  let g = BG.graph p in
  for m = 0 to P.k p - 1 do
    let vm = BG.a_node p ~offset:0 ~m in
    let code_m =
      Bitset.of_list (Graph.n g) (Array.to_list (BG.code_nodes p ~offset:0 ~m))
    in
    Array.iter
      (fun u ->
        let expected = not (Bitset.mem code_m u) in
        check
          (Printf.sprintf "v_%d vs code node %d" m u)
          expected (Graph.has_edge g vm u))
      (BG.all_code_nodes p ~offset:0)
  done

let test_h_vm_code_m_independent () =
  (* {v_m} ∪ Code_m is independent inside H... wait: Code_m spans distinct
     cliques C_h (one node each) and v_m avoids them; but two code nodes of
     Code_m in different cliques are non-adjacent within H. *)
  let p = figure in
  let g = BG.graph p in
  for m = 0 to P.k p - 1 do
    let s = Bitset.create (Graph.n g) in
    Bitset.add s (BG.a_node p ~offset:0 ~m);
    Array.iter (fun u -> Bitset.add s u) (BG.code_nodes p ~offset:0 ~m);
    check "independent" true (Wgraph.Check.is_independent g s)
  done

let test_h_labels () =
  let g = BG.graph figure in
  Alcotest.(check string) "v label" "v_1" (Graph.label g 0);
  Alcotest.(check string) "sigma label" "s_(1,1)" (Graph.label g 3)

let test_h_maxis_value () =
  (* In one unweighted copy of H, OPT = 1 + (ell + alpha): take v_m and
     Code_m (1 + 3 nodes here), or one node per code clique (3) + best A
     compatible...; the exact value on the figure instance is 4. *)
  let g = BG.graph figure in
  check_int "OPT(H)" 4 (Mis.Exact.opt g)

let test_h_larger_params () =
  (* ell=3, alpha=2: positions=5, q=5, k=25, copy=25+25=50.  Structural
     invariants hold. *)
  let p = P.make ~alpha:2 ~ell:3 ~players:2 in
  let g = BG.graph p in
  check_int "n" 50 (Graph.n g);
  let a = Bitset.of_list 50 (Array.to_list (BG.a_nodes p ~offset:0)) in
  check "A clique" true (Wgraph.Check.is_clique g a);
  for m = 0 to P.k p - 1 do
    let s = Bitset.create 50 in
    Bitset.add s (BG.a_node p ~offset:0 ~m);
    Array.iter (fun u -> Bitset.add s u) (BG.code_nodes p ~offset:0 ~m);
    check "v_m + Code_m independent" true (Wgraph.Check.is_independent g s)
  done

let prop_h_structure_random_params =
  QCheck.Test.make ~name:"H invariants across parameters" ~count:12
    QCheck.(pair small_int small_int) (fun (e, a) ->
      let ell = 1 + (e mod 5) and alpha = 1 + (a mod 2) in
      let p = P.make ~alpha ~ell ~players:2 in
      let g = BG.graph p in
      Graph.n g = BG.copy_size p
      && Wgraph.Check.is_clique g
           (Bitset.of_list (Graph.n g) (Array.to_list (BG.a_nodes p ~offset:0)))
      && (let ok = ref true in
          for m = 0 to min 5 (P.k p - 1) do
            let s = Bitset.create (Graph.n g) in
            Bitset.add s (BG.a_node p ~offset:0 ~m);
            Array.iter (fun u -> Bitset.add s u) (BG.code_nodes p ~offset:0 ~m);
            if not (Wgraph.Check.is_independent g s) then ok := false
          done;
          !ok))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "base-graph"
    [
      ( "params",
        [
          Alcotest.test_case "figure" `Quick test_params_figure;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "epsilon linear" `Quick test_params_epsilon_linear;
          Alcotest.test_case "epsilon quadratic" `Quick test_params_epsilon_quadratic;
          Alcotest.test_case "codeword" `Quick test_codeword_access;
        ] );
      ( "layout",
        [
          Alcotest.test_case "copy size" `Quick test_copy_size;
          Alcotest.test_case "roundtrip" `Quick test_node_indexing_roundtrip;
          Alcotest.test_case "offsets" `Quick test_node_indexing_with_offset;
          Alcotest.test_case "bounds" `Quick test_index_bounds;
          Alcotest.test_case "code nodes" `Quick test_code_nodes_follow_codeword;
        ] );
      ( "H",
        [
          Alcotest.test_case "figure census" `Quick test_h_census_figure;
          Alcotest.test_case "A clique" `Quick test_h_a_is_clique;
          Alcotest.test_case "code cliques" `Quick test_h_code_cliques;
          Alcotest.test_case "v_m adjacency" `Quick test_h_vm_vs_code;
          Alcotest.test_case "v_m + Code_m independent" `Quick
            test_h_vm_code_m_independent;
          Alcotest.test_case "labels" `Quick test_h_labels;
          Alcotest.test_case "OPT(H) figure" `Quick test_h_maxis_value;
          Alcotest.test_case "larger params" `Quick test_h_larger_params;
        ] );
      qsuite "H-props" [ prop_h_structure_random_params ];
    ]
