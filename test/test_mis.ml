(* Tests for the MIS solvers: exact branch-and-bound vs brute force,
   greedy heuristics, bound sandwich, verifiers. *)

module Graph = Wgraph.Graph
module Build = Wgraph.Build
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Exact solver on known graphs *)

let test_exact_empty_graph () =
  let s = Mis.Exact.solve (Graph.create 0) in
  check_int "weight" 0 s.Mis.Exact.weight

let test_exact_edgeless () =
  let g = Graph.create 6 in
  Graph.set_weight g 3 5;
  let s = Mis.Exact.solve g in
  check_int "takes everything" 10 s.Mis.Exact.weight;
  check_int "all nodes" 6 (Bitset.cardinal s.Mis.Exact.set)

let test_exact_clique () =
  let g = Build.complete 7 in
  Graph.set_weight g 4 3;
  let s = Mis.Exact.solve g in
  check_int "heaviest node" 3 s.Mis.Exact.weight;
  check_int "one node" 1 (Bitset.cardinal s.Mis.Exact.set);
  check "it is node 4" true (Bitset.mem s.Mis.Exact.set 4)

let test_exact_path () =
  (* Path P5 unweighted: alpha = 3. *)
  check_int "P5" 3 (Mis.Exact.opt (Build.path 5));
  (* Weighted path 1-10-1: take the middle. *)
  let g = Build.path 3 in
  Graph.set_weight g 1 10;
  check_int "weighted middle" 10 (Mis.Exact.opt g)

let test_exact_cycle () =
  check_int "C5" 2 (Mis.Exact.opt (Build.cycle 5));
  check_int "C6" 3 (Mis.Exact.opt (Build.cycle 6))

let test_exact_bipartite () =
  let g = Build.complete_bipartite 3 5 in
  check_int "larger side" 5 (Mis.Exact.opt g)

let test_exact_star_weighted () =
  let g = Build.star 6 in
  Graph.set_weight g 0 100;
  check_int "heavy center beats leaves" 100 (Mis.Exact.opt g)

let test_exact_solution_verified () =
  let rng = Prng.create 21 in
  for _ = 1 to 10 do
    let g = Build.erdos_renyi rng 25 0.3 in
    Build.random_weights rng g 5;
    let s = Mis.Exact.solve g in
    check "verifier accepts" true
      (Mis.Verify.solution_ok g ~claimed_weight:s.Mis.Exact.weight s.Mis.Exact.set)
  done

let test_exact_too_large_rejected () =
  Alcotest.check_raises "max_nodes"
    (Invalid_argument
       (Printf.sprintf "Mis.Exact.solve: %d nodes exceeds max_nodes=%d" 4001
          Mis.Exact.max_nodes))
    (fun () -> ignore (Mis.Exact.solve (Graph.create 4001)))

let test_solve_induced () =
  let g = Build.path 5 in
  Graph.set_weight g 0 4;
  (* Induced on {0,1,2}: best is {0,2} = 5. *)
  let s = Mis.Exact.solve_induced g (Bitset.of_list 5 [ 0; 1; 2 ]) in
  check_int "induced weight" 5 s.Mis.Exact.weight;
  check "within candidates" true
    (Bitset.subset s.Mis.Exact.set (Bitset.of_list 5 [ 0; 1; 2 ]))

(* The search itself, pinned: OPT and the branch-and-bound tree size on
   a fixed set of instances.  A change to the bound's bookkeeping that
   keeps the same clique classes must pass this unedited; one that
   tightens the bound changes [nodes_explored] and must re-pin it
   deliberately. *)
let pinned_instances () =
  let promise_pair family p ~k seed =
    let rng = Prng.create seed in
    List.map
      (fun intersecting ->
        let x =
          Commcx.Inputs.gen_promise rng ~k ~t:p.Maxis_core.Params.players
            ~intersecting
        in
        (family p x).Maxis_core.Family.graph)
      [ true; false ]
  in
  let linear =
    List.concat_map
      (fun (ell, t) ->
        let p = Maxis_core.Params.make ~alpha:1 ~ell ~players:t in
        promise_pair Maxis_core.Linear_family.instance p
          ~k:(Maxis_core.Params.k p) (100 + (10 * ell) + t))
      [ (3, 2); (3, 3); (4, 2); (4, 3); (5, 2); (5, 3) ]
  in
  let quadratic =
    let p = Maxis_core.Params.figure_params ~players:2 in
    promise_pair Maxis_core.Quadratic_family.instance p
      ~k:(Maxis_core.Quadratic_family.string_length p) 7
  in
  let random =
    let rng = Prng.create 2027 in
    List.init 20 (fun i ->
        let p = 0.1 +. (0.04 *. float_of_int (i mod 10)) in
        let g = Build.erdos_renyi rng (30 + (2 * i)) p in
        Build.random_weights rng g 9;
        g)
  in
  linear @ quadratic @ random

(* Linear ℓ = 3..5 × t = 2, 3 (intersecting, then disjoint), the
   figure-parameter quadratic pair, then the 20 random graphs. *)
let pinned_search =
  [
    (14, 21); (12, 31); (21, 31); (17, 73); (18, 25); (15, 41);
    (27, 37); (21, 103); (22, 29); (18, 45); (33, 43); (25, 125);
    (20, 119); (18, 99);
    (96, 77); (71, 119); (80, 45); (63, 115); (62, 65);
    (59, 139); (64, 107); (61, 153); (49, 119); (52, 105);
    (124, 335); (101, 321); (95, 873); (91, 463); (82, 425);
    (76, 187); (71, 515); (73, 317); (60, 369); (53, 187);
  ]

let test_exact_search_pinned () =
  let got =
    List.map
      (fun g ->
        let s = Mis.Exact.solve g in
        (s.Mis.Exact.weight, s.Mis.Exact.nodes_explored))
      (pinned_instances ())
  in
  Alcotest.(check (list (pair int int)))
    "(weight, nodes_explored) per instance" pinned_search got

(* ------------------------------------------------------------------ *)
(* Brute force cross-check *)

let test_brute_matches_known () =
  check_int "C5" 2 (fst (Mis.Brute.solve (Build.cycle 5)));
  check_int "K4" 1 (fst (Mis.Brute.solve (Build.complete 4)));
  Alcotest.check_raises "too big" (Invalid_argument "Mis.Brute.solve: too many nodes")
    (fun () -> ignore (Mis.Brute.solve (Graph.create 25)))

let prop_exact_equals_brute =
  QCheck.Test.make ~name:"exact = brute force on random graphs" ~count:120
    QCheck.(triple small_int small_int small_int) (fun (seed, nn, wmax) ->
      let n = 1 + (nn mod 14) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.35 in
      Build.random_weights rng g (1 + (wmax mod 6));
      let exact = Mis.Exact.solve g in
      let brute_w, _ = Mis.Brute.solve g in
      exact.Mis.Exact.weight = brute_w
      && Mis.Verify.solution_ok g ~claimed_weight:exact.Mis.Exact.weight
           exact.Mis.Exact.set)

let prop_exact_dense_graphs =
  QCheck.Test.make ~name:"exact = brute on dense graphs" ~count:60
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng 12 0.7 in
      Build.random_weights rng g 8;
      Mis.Exact.opt g = fst (Mis.Brute.solve g))

(* ------------------------------------------------------------------ *)
(* Bron-Kerbosch differential oracle *)

let test_bk_known_graphs () =
  check_int "C5" 2 (fst (Mis.Bron_kerbosch.solve (Build.cycle 5)));
  check_int "K7" 1 (fst (Mis.Bron_kerbosch.solve (Build.complete 7)));
  check_int "edgeless" 6 (fst (Mis.Bron_kerbosch.solve (Graph.create 6)));
  check_int "P5" 3 (fst (Mis.Bron_kerbosch.solve (Build.path 5)));
  let g = Build.star 6 in
  Graph.set_weight g 0 100;
  check_int "heavy star" 100 (fst (Mis.Bron_kerbosch.solve g))

let test_bk_witness_valid () =
  let rng = Prng.create 41 in
  for _ = 1 to 10 do
    let g = Build.erdos_renyi rng 20 0.4 in
    Build.random_weights rng g 5;
    let w, s = Mis.Bron_kerbosch.solve g in
    check "independent" true (Wgraph.Check.is_independent g s);
    check_int "weight" w (Graph.set_weight_of g s)
  done

let prop_bk_equals_exact =
  QCheck.Test.make ~name:"Bron-Kerbosch = branch&bound (random graphs)"
    ~count:120 QCheck.(triple small_int small_int small_int)
    (fun (seed, nn, dd) ->
      let n = 1 + (nn mod 30) in
      let p = 0.15 +. (0.1 *. float_of_int (dd mod 7)) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n p in
      Build.random_weights rng g 6;
      fst (Mis.Bron_kerbosch.solve g) = Mis.Exact.opt g)

let test_bk_equals_exact_on_gadgets () =
  (* The differential check on the actual lower-bound instances. *)
  let p = Maxis_core.Params.make ~alpha:1 ~ell:4 ~players:2 in
  let rng = Prng.create 43 in
  List.iter
    (fun intersecting ->
      let x =
        Commcx.Inputs.gen_promise rng ~k:(Maxis_core.Params.k p) ~t:2
          ~intersecting
      in
      let inst = Maxis_core.Linear_family.instance p x in
      let g = inst.Maxis_core.Family.graph in
      check_int "agree on gadget" (Mis.Exact.opt g)
        (fst (Mis.Bron_kerbosch.solve g)))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Greedy heuristics *)

let test_greedy_produce_independent_sets () =
  let rng = Prng.create 31 in
  for _ = 1 to 10 do
    let g = Build.erdos_renyi rng 30 0.2 in
    Build.random_weights rng g 4;
    List.iter
      (fun h ->
        let w, s = Mis.Greedy.run h g in
        check (h.Mis.Greedy.name ^ " independent") true
          (Wgraph.Check.is_independent g s);
        check (h.Mis.Greedy.name ^ " maximal") true
          (Wgraph.Check.is_maximal_independent g s);
        check_int (h.Mis.Greedy.name ^ " weight") (Graph.set_weight_of g s) w)
      Mis.Greedy.all
  done

let test_greedy_below_exact () =
  let rng = Prng.create 37 in
  for _ = 1 to 10 do
    let g = Build.erdos_renyi rng 16 0.4 in
    Build.random_weights rng g 4;
    let opt = Mis.Exact.opt g in
    List.iter
      (fun h -> check "greedy <= opt" true (fst (Mis.Greedy.run h g) <= opt))
      Mis.Greedy.all
  done

let test_max_weight_first_on_star () =
  (* Heavy center: greedy must take it, not the leaves. *)
  let g = Build.star 5 in
  Graph.set_weight g 0 10;
  let w, _ = Mis.Greedy.run Mis.Greedy.max_weight_first g in
  check_int "center" 10 w

let test_min_degree_on_star () =
  (* Leaves have lower degree: min-degree greedy picks all 4. *)
  let g = Build.star 5 in
  let w, _ = Mis.Greedy.run Mis.Greedy.min_degree_first g in
  check_int "leaves" 4 w

(* ------------------------------------------------------------------ *)
(* Bounds *)

let test_bounds_on_known () =
  let g = Build.cycle 6 in
  check_int "clique cover C6 >= 3" 3 (Mis.Bounds.clique_cover_upper g);
  Alcotest.(check (float 1e-9)) "caro-wei C6" 2.0 (Mis.Bounds.caro_wei_lower g);
  check_int "greedy C6" 3 (Mis.Bounds.greedy_lower g)

let test_vc_dual_upper_known () =
  (* The vertex-cover dual bound is what certifies the ub of a budgeted
     solve's interval, so its soundness is safety-critical. *)
  let g = Build.cycle 6 in
  check "vc dual sound on C6" true (Mis.Bounds.vc_dual_upper g >= Mis.Exact.opt g);
  let k5 = Build.complete 5 in
  check "vc dual sound on K5" true
    (Mis.Bounds.vc_dual_upper k5 >= Mis.Exact.opt k5)

let prop_vc_dual_upper_sound =
  QCheck.Test.make ~name:"opt <= vc_dual_upper" ~count:80
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 12) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.35 in
      Build.random_weights rng g 5;
      Mis.Exact.opt g <= Mis.Bounds.vc_dual_upper g)

let prop_bound_sandwich =
  QCheck.Test.make ~name:"caro_wei <= greedy <= opt <= clique_cover" ~count:80
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 12) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.35 in
      Build.random_weights rng g 5;
      let cw, greedy, cover = Mis.Bounds.sandwich g in
      let opt = Mis.Exact.opt g in
      cw <= float_of_int greedy +. 1e-9
      && greedy <= opt && opt <= cover)

(* ------------------------------------------------------------------ *)
(* Verify *)

let test_verify_reports () =
  let g = Build.path 3 in
  let good = Bitset.of_list 3 [ 0; 2 ] in
  let r = Mis.Verify.solution g ~claimed_weight:2 good in
  check "ok" true r.Mis.Verify.ok;
  let bad_weight = Mis.Verify.solution g ~claimed_weight:3 good in
  check "weight mismatch flagged" false bad_weight.Mis.Verify.ok;
  check "independent though" true bad_weight.Mis.Verify.independent;
  check_int "actual" 2 bad_weight.Mis.Verify.actual_weight;
  let not_indep = Mis.Verify.solution g ~claimed_weight:2 (Bitset.of_list 3 [ 0; 1 ]) in
  check "dependence flagged" false not_indep.Mis.Verify.ok;
  Alcotest.(check (list (pair int int))) "violations" [ (0, 1) ]
    not_indep.Mis.Verify.violations

let test_approximation_ratio () =
  Alcotest.(check (float 1e-9)) "3/4" 0.75 (Mis.Verify.approximation_ratio ~opt:4 ~achieved:3);
  Alcotest.check_raises "opt 0" (Invalid_argument "Verify.approximation_ratio: opt must be > 0")
    (fun () -> ignore (Mis.Verify.approximation_ratio ~opt:0 ~achieved:0))

(* ------------------------------------------------------------------ *)
(* Gadget-shaped stress: unions of cliques (the solver's home turf) *)

let test_exact_on_union_of_cliques () =
  (* 4 cliques of 5 nodes with one heavy node each: OPT takes the heavy
     node of each clique. *)
  let g = Graph.create 20 in
  for c = 0 to 3 do
    Build.make_clique_array g (Array.init 5 (fun i -> (5 * c) + i));
    Graph.set_weight g (5 * c) 7
  done;
  let s = Mis.Exact.solve g in
  check_int "weight" 28 s.Mis.Exact.weight;
  check_int "four nodes" 4 (Bitset.cardinal s.Mis.Exact.set)

let test_exact_complement_of_matching_block () =
  (* Two q-cliques joined by complement of matching: an independent set can
     take one matched pair, weight 2. *)
  let q = 6 in
  let g = Graph.create (2 * q) in
  let xs = Array.init q Fun.id and ys = Array.init q (fun i -> q + i) in
  Build.make_clique_array g xs;
  Build.make_clique_array g ys;
  Build.connect_complement_of_matching g xs ys;
  check_int "matched pair" 2 (Mis.Exact.opt g)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "mis"
    [
      ( "exact",
        [
          Alcotest.test_case "empty" `Quick test_exact_empty_graph;
          Alcotest.test_case "edgeless" `Quick test_exact_edgeless;
          Alcotest.test_case "clique" `Quick test_exact_clique;
          Alcotest.test_case "path" `Quick test_exact_path;
          Alcotest.test_case "cycle" `Quick test_exact_cycle;
          Alcotest.test_case "bipartite" `Quick test_exact_bipartite;
          Alcotest.test_case "weighted star" `Quick test_exact_star_weighted;
          Alcotest.test_case "solutions verified" `Quick test_exact_solution_verified;
          Alcotest.test_case "size limit" `Quick test_exact_too_large_rejected;
          Alcotest.test_case "induced" `Quick test_solve_induced;
          Alcotest.test_case "union of cliques" `Quick test_exact_on_union_of_cliques;
          Alcotest.test_case "complement-of-matching block" `Quick
            test_exact_complement_of_matching_block;
          Alcotest.test_case "search pinned" `Quick test_exact_search_pinned;
        ] );
      ( "brute",
        [ Alcotest.test_case "known values" `Quick test_brute_matches_known ] );
      ( "bron-kerbosch",
        [
          Alcotest.test_case "known graphs" `Quick test_bk_known_graphs;
          Alcotest.test_case "witness valid" `Quick test_bk_witness_valid;
          Alcotest.test_case "agrees on gadgets" `Quick test_bk_equals_exact_on_gadgets;
        ] );
      qsuite "exact-props"
        [ prop_exact_equals_brute; prop_exact_dense_graphs; prop_bk_equals_exact ];
      ( "greedy",
        [
          Alcotest.test_case "independent + maximal" `Quick
            test_greedy_produce_independent_sets;
          Alcotest.test_case "below exact" `Quick test_greedy_below_exact;
          Alcotest.test_case "max-weight on star" `Quick test_max_weight_first_on_star;
          Alcotest.test_case "min-degree on star" `Quick test_min_degree_on_star;
        ] );
      ( "bounds",
        [
          Alcotest.test_case "known graphs" `Quick test_bounds_on_known;
          Alcotest.test_case "vc dual upper" `Quick test_vc_dual_upper_known;
        ] );
      qsuite "bounds-props" [ prop_bound_sandwich; prop_vc_dual_upper_sound ];
      ( "verify",
        [
          Alcotest.test_case "reports" `Quick test_verify_reports;
          Alcotest.test_case "ratio" `Quick test_approximation_ratio;
        ] );
    ]
