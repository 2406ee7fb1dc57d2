(* Tests for the quadratic family (Section 5): the fixed graph F, input
   edges, cut structure, and the Claim 6/7 gap. *)

module P = Maxis_core.Params
module BG = Maxis_core.Base_graph
module QF = Maxis_core.Quadratic_family
module Family = Maxis_core.Family
module Inputs = Commcx.Inputs
module Graph = Wgraph.Graph
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fig2 = P.figure_params ~players:2
let p2 = P.make ~alpha:1 ~ell:3 ~players:2

let rand_inputs seed p ~intersecting =
  let rng = Prng.create seed in
  Inputs.gen_promise rng ~k:(QF.string_length p) ~t:p.P.players ~intersecting

(* ------------------------------------------------------------------ *)
(* Layout and fixed structure *)

let test_layout () =
  check_int "n = 2t copies" (2 * 2 * 12) (QF.n_nodes fig2);
  check_int "string length k^2" 9 (QF.string_length fig2);
  check_int "pair index" 5 (QF.pair_index fig2 ~m1:1 ~m2:2);
  Alcotest.check_raises "pair bounds" (Invalid_argument "Quadratic_family.pair_index")
    (fun () -> ignore (QF.pair_index fig2 ~m1:3 ~m2:0));
  Alcotest.check_raises "side bounds"
    (Invalid_argument "Quadratic_family.copy_offset: side") (fun () ->
      ignore (QF.copy_offset fig2 ~player:0 ~side:2))

let test_fixed_census_figure () =
  (* Figure 5 (t=2): 4 copies of H (30 edges each) + inter-player code
     connections on each side (18 each).  No input edges yet. *)
  let g, part = QF.fixed fig2 in
  check_int "n" 48 (Graph.n g);
  check_int "m" ((4 * 30) + (2 * 18)) (Graph.edge_count g);
  check_int "cut" 36 (Wgraph.Cut.size g part);
  check_int "expected cut" 36 (QF.expected_cut_size fig2);
  Alcotest.(check (array int)) "parts by player" [| 24; 24 |] (Wgraph.Cut.part_sizes part)

let test_fixed_weights_all_a_heavy () =
  (* Unlike the linear family, every A node weighs ell in F itself. *)
  let p = p2 in
  let g, _ = QF.fixed p in
  for i = 0 to 1 do
    for side = 0 to 1 do
      Array.iter
        (fun v -> check_int "A weight" (P.ell p) (Graph.weight g v))
        (BG.a_nodes p ~offset:(QF.copy_offset p ~player:i ~side))
    done
  done;
  check_int "code weight" 1
    (Graph.weight g (BG.sigma_node p ~offset:(QF.copy_offset p ~player:0 ~side:0) ~h:0 ~r:0))

let test_no_edges_across_sides_fixed () =
  (* In F (before inputs), G^1 and G^2 are disconnected from each other. *)
  let p = p2 in
  let g, _ = QF.fixed p in
  let u = BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:0) ~m:0 in
  let v = BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:1) ~m:0 in
  check "no A(i,1)-A(i,2) edge in F" false (Graph.has_edge g u v);
  let su = BG.sigma_node p ~offset:(QF.copy_offset p ~player:0 ~side:0) ~h:0 ~r:0 in
  let sv = BG.sigma_node p ~offset:(QF.copy_offset p ~player:1 ~side:1) ~h:0 ~r:1 in
  check "no cross-side code edge" false (Graph.has_edge g su sv)

let test_intercopy_within_side () =
  (* Within side b, players' code cliques are joined as in the linear
     construction. *)
  let p = p2 in
  let g, _ = QF.fixed p in
  for side = 0 to 1 do
    let u = BG.sigma_node p ~offset:(QF.copy_offset p ~player:0 ~side) ~h:1 ~r:0 in
    let v = BG.sigma_node p ~offset:(QF.copy_offset p ~player:1 ~side) ~h:1 ~r:1 in
    let twin = BG.sigma_node p ~offset:(QF.copy_offset p ~player:1 ~side) ~h:1 ~r:0 in
    check "non-matching connected" true (Graph.has_edge g u v);
    check "matching pair skipped" false (Graph.has_edge g u twin)
  done

(* ------------------------------------------------------------------ *)
(* Input edges (Figure 6) *)

let test_input_edges_semantics () =
  (* Figure 6's example: x^1 has bit (1,1) = 0 (paper's 1-based first bit)
     and everything else 1; x^2 all ones.  We encode 0-based: bit (0,0) of
     player 0 is 0, all others 1. *)
  let p = fig2 in
  let sl = QF.string_length p in
  let all_ones = List.init sl Fun.id in
  let x1_ones = List.filter (fun j -> j <> QF.pair_index p ~m1:0 ~m2:0) all_ones in
  let x = Inputs.of_bit_lists ~k:sl [ x1_ones; all_ones ] in
  let inst = QF.instance p x in
  let g = inst.Family.graph in
  let a1 m = BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:0) ~m in
  let a2 m = BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:1) ~m in
  (* Player 0: exactly one input edge, v^(1,1)_1 -- v^(1,2)_1. *)
  check "edge for 0-bit" true (Graph.has_edge g (a1 0) (a2 0));
  check "no edge for 1-bit" false (Graph.has_edge g (a1 0) (a2 1));
  check "no edge for 1-bit'" false (Graph.has_edge g (a1 2) (a2 2));
  (* Player 1: all ones -> no input edges at all. *)
  let b1 m = BG.a_node p ~offset:(QF.copy_offset p ~player:1 ~side:0) ~m in
  let b2 m = BG.a_node p ~offset:(QF.copy_offset p ~player:1 ~side:1) ~m in
  for m1 = 0 to 2 do
    for m2 = 0 to 2 do
      check "player 2 edgeless" false (Graph.has_edge g (b1 m1) (b2 m2))
    done
  done

let test_input_edges_count () =
  (* Number of input edges = number of 0-bits. *)
  let p = p2 in
  let x = rand_inputs 3 p ~intersecting:true in
  let inst = QF.instance p x in
  let fixed_g, _ = QF.fixed p in
  let zeros = ref 0 in
  for i = 0 to 1 do
    for j = 0 to QF.string_length p - 1 do
      if not (Inputs.bit x ~player:i j) then incr zeros
    done
  done;
  check_int "edges added"
    (Graph.edge_count fixed_g + !zeros)
    (Graph.edge_count inst.Family.graph)

let test_input_edges_are_internal () =
  (* Input edges never cross the player partition: the cut of an instance
     equals the fixed cut. *)
  let p = p2 in
  let x = rand_inputs 7 p ~intersecting:false in
  let inst = QF.instance p x in
  check_int "cut unchanged" (QF.expected_cut_size p) (Family.cut_size inst)

let test_instance_validation () =
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Quadratic_family.instance: wrong string length")
    (fun () -> ignore (QF.instance p2 (Inputs.of_bit_lists ~k:3 [ []; [] ])))

let test_instance_players_validation () =
  let x = Inputs.of_bit_lists ~k:(QF.string_length p2) [ []; []; [] ] in
  Alcotest.check_raises "wrong t"
    (Invalid_argument "Quadratic_family.instance: wrong number of players")
    (fun () -> ignore (QF.instance p2 x));
  Alcotest.check_raises "wrong t (csr)"
    (Invalid_argument "Quadratic_family.instance_csr: wrong number of players")
    (fun () -> ignore (QF.instance_csr p2 x));
  Alcotest.check_raises "wrong length (csr)"
    (Invalid_argument "Quadratic_family.instance_csr: wrong string length")
    (fun () -> ignore (QF.instance_csr p2 (Inputs.of_bit_lists ~k:3 [ []; [] ])))

(* ------------------------------------------------------------------ *)
(* Condition 1 (differential locality) *)

(* A spec built by hand: the predicate may be formally invalid at these
   params, but neither condition 1 nor an input-shape check involves it. *)
let hand_spec p =
  {
    Family.name = "quadratic-test";
    string_length = QF.string_length p;
    players = 2;
    build = QF.instance p;
    predicate = Maxis_core.Predicate.make ~name:"dummy" ~high:1000 ~low:0;
    func = Commcx.Functions.promise_pairwise_disjointness;
  }

let test_condition1_locality () =
  let p = p2 in
  let sl = QF.string_length p in
  let spec = hand_spec p in
  let x1 = Inputs.of_bit_lists ~k:sl [ [ 0; 1 ]; [ 2 ] ] in
  let x2 = Inputs.of_bit_lists ~k:sl [ [ 0; 1 ]; [ 2; 5; 7 ] ] in
  let r = Family.check_condition1 spec x1 x2 ~player:1 in
  check "edges change only inside V^2" true r.Family.ok

let test_condition2_rejects_wrong_players () =
  (* The family's own input check names a bad shape. *)
  let x = Inputs.of_bit_lists ~k:(QF.string_length p2) [ []; []; [] ] in
  Alcotest.check_raises "wrong t"
    (Invalid_argument "Quadratic_family.instance: wrong number of players")
    (fun () -> ignore (Family.check_condition2 (hand_spec p2) x))

(* ------------------------------------------------------------------ *)
(* The gap (Claims 6 and 7, empirically) *)

let test_claim6_witness_set () =
  (* On an intersecting instance with common pair (m1, m2), the union of
     both sides' Property-1 sets is independent and weighs 4t*ell + 2*alpha*t. *)
  let p = p2 in
  let m1 = 0 and m2 = 2 in
  let sl = QF.string_length p in
  let common = QF.pair_index p ~m1 ~m2 in
  let x = Inputs.of_bit_lists ~k:sl [ [ common ]; [ common ] ] in
  let inst = QF.instance p x in
  let g = inst.Family.graph in
  let s = Bitset.create (Graph.n g) in
  for i = 0 to 1 do
    let off1 = QF.copy_offset p ~player:i ~side:0 in
    let off2 = QF.copy_offset p ~player:i ~side:1 in
    Bitset.add s (BG.a_node p ~offset:off1 ~m:m1);
    Bitset.add s (BG.a_node p ~offset:off2 ~m:m2);
    Array.iter (fun v -> Bitset.add s v) (BG.code_nodes p ~offset:off1 ~m:m1);
    Array.iter (fun v -> Bitset.add s v) (BG.code_nodes p ~offset:off2 ~m:m2)
  done;
  check "independent" true (Wgraph.Check.is_independent g s);
  check_int "weight" (QF.high_weight p) (Graph.set_weight_of g s)

let prop_claim6_claim7_random =
  QCheck.Test.make ~name:"quadratic claims on random promise inputs" ~count:12
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let p = p2 in
      let x = rand_inputs seed p ~intersecting:inter in
      let inst = QF.instance p x in
      let opt = Mis.Exact.opt inst.Family.graph in
      if inter then opt >= QF.high_weight p else opt <= QF.low_weight p)

let test_empirical_gap_direction () =
  (* Measured OPT on disjoint instances sits strictly below intersecting
     instances even at parameters where the *formal* claim bounds don't
     separate — the empirical gap the benches sweep. *)
  let p = p2 in
  let rng = Prng.create 99 in
  let opt_of inter =
    let x =
      Inputs.gen_promise rng ~k:(QF.string_length p) ~t:2 ~intersecting:inter
    in
    Mis.Exact.opt (QF.instance p x).Family.graph
  in
  let hi = opt_of true and lo = opt_of false in
  check (Printf.sprintf "gap %d > %d" hi lo) true (hi > lo)

let test_formal_gap_validity_boundary () =
  check "small params invalid" false (QF.formal_gap_valid p2);
  (* t=4, ell = 200, alpha=1: low = 15*200 + 192 = 3192 < high = 3208. *)
  let big = P.make ~alpha:1 ~ell:200 ~players:4 in
  check "huge ell valid" true (QF.formal_gap_valid big);
  Alcotest.check_raises "predicate refuses invalid"
    (Invalid_argument
       "Quadratic_family.predicate: claim bounds do not separate at these \
        parameters (need ell >> alpha*t^3)")
    (fun () -> ignore (QF.predicate p2))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "quadratic-family"
    [
      ( "layout",
        [
          Alcotest.test_case "layout" `Quick test_layout;
          Alcotest.test_case "census (Fig 5)" `Quick test_fixed_census_figure;
          Alcotest.test_case "A nodes heavy" `Quick test_fixed_weights_all_a_heavy;
          Alcotest.test_case "sides disconnected in F" `Quick
            test_no_edges_across_sides_fixed;
          Alcotest.test_case "inter-copy within side" `Quick test_intercopy_within_side;
        ] );
      ( "input-edges",
        [
          Alcotest.test_case "semantics (Fig 6)" `Quick test_input_edges_semantics;
          Alcotest.test_case "count = zero bits" `Quick test_input_edges_count;
          Alcotest.test_case "internal to players" `Quick test_input_edges_are_internal;
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "players and csr validation" `Quick
            test_instance_players_validation;
          Alcotest.test_case "condition 1" `Quick test_condition1_locality;
          Alcotest.test_case "condition 2 rejects wrong players" `Quick
            test_condition2_rejects_wrong_players;
        ] );
      ( "gap",
        [
          Alcotest.test_case "claim 6 witness" `Quick test_claim6_witness_set;
          Alcotest.test_case "empirical gap" `Quick test_empirical_gap_direction;
          Alcotest.test_case "formal validity boundary" `Quick
            test_formal_gap_validity_boundary;
        ] );
      qsuite "gap-props" [ prop_claim6_claim7_random ];
    ]
