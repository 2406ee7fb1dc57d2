(* Tests for the ablations, the convergecast algorithm, and minimum-weight
   vertex cover — the extension modules beyond the paper's core. *)

module P = Maxis_core.Params
module A = Maxis_core.Ablations
module Graph = Wgraph.Graph
module Build = Wgraph.Build
module Runtime = Congest.Runtime
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Code ablation *)

let test_rs_analysis_clean () =
  let r = A.analyze A.Reed_solomon ~alpha:2 ~ell:6 in
  check "property2" true r.A.property2_holds;
  check "claim2" true r.A.claim2_holds;
  (* RS at these parameters: d = positions - alpha + 1 = 7 *)
  check_int "min distance" 7 r.A.min_pairwise_distance;
  check_int "matching = distance" 7 r.A.worst_matching

let test_repetition_breaks () =
  let r = A.analyze A.Repetition ~alpha:2 ~ell:6 in
  check "property2 fails" false r.A.property2_holds;
  check "claim2 overrun" false r.A.claim2_holds;
  check "distance below ell" true (r.A.min_pairwise_distance < 6);
  (* the family still has *some* gap, just a weaker one *)
  check "weaker gap ratio" true
    (r.A.gap_ratio > (A.analyze A.Reed_solomon ~alpha:2 ~ell:6).A.gap_ratio)

let test_repetition_marginal_at_small_ell () =
  (* At ell = 4 the overrun does not yet materialize (bound has +1 slack),
     but Property 2 already fails — the first crack. *)
  let r = A.analyze A.Repetition ~alpha:2 ~ell:4 in
  check "property2 fails" false r.A.property2_holds;
  check "claim2 still (marginally) holds" true r.A.claim2_holds

let test_params_with_code_same_layout () =
  let rs = A.params_with_code A.Reed_solomon ~alpha:2 ~ell:4 ~players:2 in
  let rep = A.params_with_code A.Repetition ~alpha:2 ~ell:4 ~players:2 in
  check_int "same k" (P.k rs) (P.k rep);
  check_int "same q" (P.q rs) (P.q rep);
  check_int "same n" (Maxis_core.Linear_family.n_nodes rs)
    (Maxis_core.Linear_family.n_nodes rep)

let test_matching_equals_distance () =
  (* In the fixed construction, the (Code^i_m1, Code^j_m2) matching equals
     the codeword Hamming distance exactly (edges exist only within a
     position). *)
  let p = P.make ~alpha:2 ~ell:3 ~players:2 in
  for m1 = 0 to 5 do
    for m2 = m1 + 1 to 6 do
      let d =
        Codes.Code_mapping.distance (P.codeword p m1) (P.codeword p m2)
      in
      let r = Maxis_core.Properties.property2 p ~i:0 ~j:1 ~m1 ~m2 in
      check_int "matching = distance" d r.Maxis_core.Properties.measured
    done
  done

let test_bandwidth_ablation_monotone () =
  let p = P.make ~alpha:1 ~ell:4 ~players:2 in
  let reports = A.bandwidth_report ~factors:[ 1; 2; 4 ] p ~intersecting:false ~seed:1 in
  check_int "three rows" 3 (List.length reports);
  let bounds =
    List.map (fun (_, (r : Maxis_core.Simulation.report)) -> r.Maxis_core.Simulation.bound_bits) reports
  in
  (match bounds with
  | [ a; b; c ] ->
      check "cap scales" true (a < b && b < c);
      check_int "linear scaling" (2 * a) b
  | _ -> Alcotest.fail "expected three bounds");
  List.iter
    (fun (_, (r : Maxis_core.Simulation.report)) ->
      check "within" true r.Maxis_core.Simulation.within_bound)
    reports

(* ------------------------------------------------------------------ *)
(* Convergecast *)

let value_width = 20

(* The aggregate needs value_width + 2 bits per message; on tiny test
   graphs ceil(log n) is 1-2 bits, so give the runtime a budget that fits
   (the mli documents the constraint). *)
let cv_config = { Runtime.default_config with Runtime.bandwidth_factor = 32 }

let run_sum ?(root = 0) g =
  let result =
    Runtime.run ~config:cv_config
      (Congest.Algo_convergecast.sum_of_weights ~root ~value_width)
      g
  in
  (result, result.Runtime.outputs.(root))

let test_convergecast_path () =
  let g = Build.path 7 in
  Graph.set_weight g 3 10;
  let result, total = run_sum g in
  check "halted" true result.Runtime.all_halted;
  Alcotest.(check (option int)) "sum" (Some (6 + 10)) total

let test_convergecast_star_and_clique () =
  let g = Build.star 9 in
  let _, total = run_sum g in
  Alcotest.(check (option int)) "star" (Some 9) total;
  let k = Build.complete 8 in
  Graph.set_weight k 5 3;
  let _, total = run_sum ~root:2 k in
  Alcotest.(check (option int)) "clique" (Some 10) total

let test_convergecast_single_node () =
  let g = Graph.create 1 in
  Graph.set_weight g 0 7;
  let _, total = run_sum g in
  Alcotest.(check (option int)) "lonely root" (Some 7) total

let test_convergecast_count () =
  let g = Build.cycle 11 in
  let result =
    Runtime.run ~config:cv_config
      (Congest.Algo_convergecast.count_nodes ~root:4 ~value_width)
      g
  in
  Alcotest.(check (option int)) "count" (Some 11) result.Runtime.outputs.(4)

let test_convergecast_rounds_linear_in_depth () =
  let g = Build.path 20 in
  let result, _ = run_sum g in
  (* wave down (19) + children settle (2) + values up (19) + slack *)
  check "O(D) rounds" true (result.Runtime.rounds_executed <= 45)

let test_convergecast_non_root_outputs_nothing () =
  let g = Build.path 4 in
  let result, _ = run_sum g in
  for v = 1 to 3 do
    check "silent" true (result.Runtime.outputs.(v) = None)
  done

let prop_convergecast_random_connected =
  QCheck.Test.make ~name:"convergecast sums weights on random graphs" ~count:25
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 15) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.4 in
      Build.random_weights rng g 5;
      (not (Wgraph.Metrics.is_connected g))
      ||
      let _, total = run_sum g in
      total = Some (Graph.total_weight g))

let test_convergecast_max_weight () =
  let g = Build.path 9 in
  Graph.set_weight g 6 42;
  let result =
    Runtime.run ~config:cv_config
      (Congest.Algo_convergecast.max_weight ~root:2 ~value_width)
      g
  in
  Alcotest.(check (option int)) "max" (Some 42) result.Runtime.outputs.(2)

let test_convergecast_aggregate_custom () =
  (* Bitwise-or of (1 << (id mod 8)) flags: the root learns which residues
     appear — a commutative, associative fold over the component. *)
  let g = Build.cycle 10 in
  let program =
    Congest.Algo_convergecast.aggregate ~name:"flag-or" ~root:0 ~value_width
      ~combine:( lor )
      ~contribution:(fun ~id ~weight:_ -> 1 lsl (id mod 8))
  in
  let result = Runtime.run ~config:cv_config program g in
  Alcotest.(check (option int)) "all 8 residues" (Some 255) result.Runtime.outputs.(0)

(* A subtree value wider than [value_width] fails at the node that would
   send it, naming the value and the width: on a unit-weight path rooted
   at 0, node 3's subtree holds 4 nodes, which needs 3 bits. *)
let test_convergecast_overwide_value () =
  let g = Build.path 7 in
  let raises what run =
    Alcotest.check_raises what
      (Invalid_argument "Algo_convergecast: value 4 does not fit in 2 bits")
      (fun () -> ignore (run ()))
  in
  raises "list form" (fun () ->
      Runtime.run ~config:cv_config
        (Congest.Algo_convergecast.sum_of_weights ~root:0 ~value_width:2)
        g);
  raises "kernel" (fun () ->
      Runtime.run_flat ~config:cv_config
        (Congest.Algo_convergecast.sum_of_weights_flat ~root:0 ~value_width:2)
        (Wgraph.Csr.of_graph g))

(* ------------------------------------------------------------------ *)
(* The (Δ+1)-approximation guarantee of the distributed weighted greedy —
   the upper bound the paper contrasts its lower bounds with. *)

let greedy_mis_weight g =
  let result = Runtime.run Congest.Algo_greedy_mis.mis g in
  let s = Bitset.create (Graph.n g) in
  Array.iteri
    (fun v o -> if o = Some true then Bitset.add s v)
    result.Runtime.outputs;
  Graph.set_weight_of g s

let test_greedy_delta_guarantee_random () =
  let rng = Prng.create 91 in
  for _ = 1 to 10 do
    let g = Build.erdos_renyi rng 18 0.3 in
    Build.random_weights rng g 6;
    let opt = Mis.Exact.opt g in
    let got = greedy_mis_weight g in
    let delta = Graph.max_degree g in
    check
      (Printf.sprintf "greedy %d >= opt %d / (delta %d + 1)" got opt delta)
      true
      (got * (delta + 1) >= opt)
  done

let test_greedy_delta_guarantee_hard_instance () =
  let p = P.make ~alpha:1 ~ell:4 ~players:3 in
  let rng = Prng.create 93 in
  let x = Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:3 ~intersecting:true in
  let inst = Maxis_core.Linear_family.instance p x in
  let g = inst.Maxis_core.Family.graph in
  let opt = Mis.Exact.opt g in
  let got = greedy_mis_weight g in
  check "guarantee" true (got * (Graph.max_degree g + 1) >= opt);
  check "never above OPT" true (got <= opt)
(* (On sparse intersecting instances heavy-first greedy can even hit OPT —
   the lower bound is about deciding the gap in the worst case, not about
   any particular instance being hard for any particular heuristic.) *)

(* ------------------------------------------------------------------ *)
(* Unweighted family as a first-class spec *)

let test_unweighted_spec_condition2 () =
  let p = P.make ~alpha:1 ~ell:4 ~players:2 in
  let spec = Maxis_core.Unweighted.spec_linear p in
  let rng = Prng.create 95 in
  List.iter
    (fun intersecting ->
      let x = Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:2 ~intersecting in
      let r = Maxis_core.Family.check_condition2 spec x in
      check "condition 2 on unweighted instances" true r.Maxis_core.Family.ok;
      (* instances really are unweighted *)
      let inst = spec.Maxis_core.Family.build x in
      check_int "all unit weights"
        (Graph.n inst.Maxis_core.Family.graph)
        (Graph.total_weight inst.Maxis_core.Family.graph))
    [ true; false ]

let test_unweighted_spec_simulation () =
  let p = P.make ~alpha:1 ~ell:4 ~players:2 in
  let spec = Maxis_core.Unweighted.spec_linear p in
  let rng = Prng.create 97 in
  let x = Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:2 ~intersecting:true in
  let inst = spec.Maxis_core.Family.build x in
  let d =
    Maxis_core.Simulation.decide_disjointness inst
      ~predicate:spec.Maxis_core.Family.predicate
  in
  Alcotest.(check (option bool)) "decides" (Some false) d.Maxis_core.Simulation.answer;
  check "within bound" true d.Maxis_core.Simulation.report.Maxis_core.Simulation.within_bound

(* ------------------------------------------------------------------ *)
(* Vertex cover *)

let test_vc_exact_known () =
  (* Star: cover = center (weight 1). *)
  let g = Build.star 6 in
  let w, cover = Mis.Vertex_cover.exact g in
  check_int "star cover weight" 1 w;
  check "valid" true (Mis.Vertex_cover.is_cover g cover);
  (* C5: cover size 3 *)
  check_int "C5" 3 (fst (Mis.Vertex_cover.exact (Build.cycle 5)));
  (* edgeless: empty cover... complement of all nodes *)
  check_int "edgeless" 0 (fst (Mis.Vertex_cover.exact (Graph.create 4)))

let test_vc_weighted () =
  (* Heavy center star: cover = the 5 leaves (weight 5) beats center 100. *)
  let g = Build.star 6 in
  Graph.set_weight g 0 100;
  let w, cover = Mis.Vertex_cover.exact g in
  check_int "leaves" 5 w;
  check "center out" false (Bitset.mem cover 0)

let test_vc_local_ratio_valid_and_2approx () =
  let rng = Prng.create 77 in
  for _ = 1 to 20 do
    let g = Build.erdos_renyi rng 16 0.3 in
    Build.random_weights rng g 6;
    let opt, _ = Mis.Vertex_cover.exact g in
    let approx, cover = Mis.Vertex_cover.local_ratio_2approx g in
    check "valid cover" true (Mis.Vertex_cover.is_cover g cover);
    check "at least opt" true (approx >= opt);
    check
      (Printf.sprintf "2-approx (%d <= 2*%d)" approx opt)
      true
      (approx <= 2 * opt)
  done

let test_vc_duality () =
  let rng = Prng.create 79 in
  for _ = 1 to 10 do
    let g = Build.erdos_renyi rng 14 0.4 in
    Build.random_weights rng g 4;
    check "duality" true (Mis.Vertex_cover.duality_check g)
  done

let prop_vc_matches_brute =
  QCheck.Test.make ~name:"MVC = total - brute-force MaxIS" ~count:60
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 12) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.35 in
      Build.random_weights rng g 4;
      let mvc, _ = Mis.Vertex_cover.exact g in
      mvc = Graph.total_weight g - fst (Mis.Brute.solve g))

let test_vc_on_hard_instance () =
  (* The MVC of a hard instance relates to its MaxIS through the same
     duality the paper's MVC discussion uses. *)
  let p = P.make ~alpha:1 ~ell:4 ~players:2 in
  let rng = Prng.create 81 in
  let x = Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:2 ~intersecting:true in
  let inst = Maxis_core.Linear_family.instance p x in
  let g = inst.Maxis_core.Family.graph in
  let mvc, cover = Mis.Vertex_cover.exact g in
  check "valid" true (Mis.Vertex_cover.is_cover g cover);
  check_int "duality" (Graph.total_weight g) (mvc + Mis.Exact.opt g)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "ablations-extensions"
    [
      ( "code-ablation",
        [
          Alcotest.test_case "RS clean" `Quick test_rs_analysis_clean;
          Alcotest.test_case "repetition breaks" `Quick test_repetition_breaks;
          Alcotest.test_case "marginal at small ell" `Quick
            test_repetition_marginal_at_small_ell;
          Alcotest.test_case "same layout" `Quick test_params_with_code_same_layout;
          Alcotest.test_case "matching = distance" `Quick test_matching_equals_distance;
          Alcotest.test_case "bandwidth ablation" `Quick test_bandwidth_ablation_monotone;
        ] );
      ( "convergecast",
        [
          Alcotest.test_case "path" `Quick test_convergecast_path;
          Alcotest.test_case "star/clique" `Quick test_convergecast_star_and_clique;
          Alcotest.test_case "single node" `Quick test_convergecast_single_node;
          Alcotest.test_case "count" `Quick test_convergecast_count;
          Alcotest.test_case "rounds O(D)" `Quick test_convergecast_rounds_linear_in_depth;
          Alcotest.test_case "non-root silent" `Quick test_convergecast_non_root_outputs_nothing;
        ] );
      ( "convergecast-extended",
        [
          Alcotest.test_case "max weight" `Quick test_convergecast_max_weight;
          Alcotest.test_case "custom monoid" `Quick test_convergecast_aggregate_custom;
          Alcotest.test_case "over-wide value" `Quick
            test_convergecast_overwide_value;
        ] );
      qsuite "convergecast-props" [ prop_convergecast_random_connected ];
      ( "delta-guarantee",
        [
          Alcotest.test_case "random graphs" `Quick test_greedy_delta_guarantee_random;
          Alcotest.test_case "hard instance" `Quick
            test_greedy_delta_guarantee_hard_instance;
        ] );
      ( "unweighted-spec",
        [
          Alcotest.test_case "condition 2" `Quick test_unweighted_spec_condition2;
          Alcotest.test_case "simulation" `Quick test_unweighted_spec_simulation;
        ] );
      ( "vertex-cover",
        [
          Alcotest.test_case "exact known" `Quick test_vc_exact_known;
          Alcotest.test_case "weighted" `Quick test_vc_weighted;
          Alcotest.test_case "local-ratio 2-approx" `Quick
            test_vc_local_ratio_valid_and_2approx;
          Alcotest.test_case "duality" `Quick test_vc_duality;
          Alcotest.test_case "hard instance" `Quick test_vc_on_hard_instance;
        ] );
      qsuite "vertex-cover-props" [ prop_vc_matches_brute ];
    ]
