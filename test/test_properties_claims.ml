(* Machine checks of Properties 1-3 (Section 4.1) and Claims 1-7 /
   Corollary 2 — the paper's case analyses run as code. *)

module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module Properties = Maxis_core.Properties
module Claims = Maxis_core.Claims
module Inputs = Commcx.Inputs
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p2 = P.make ~alpha:1 ~ell:4 ~players:2
let p3 = P.make ~alpha:1 ~ell:4 ~players:3
let p4 = P.make ~alpha:1 ~ell:5 ~players:4

let assert_holds (r : Properties.result) =
  if not r.Properties.holds then
    Alcotest.failf "%s: measured=%d bound=%d (%s)" r.Properties.name
      r.Properties.measured r.Properties.bound r.Properties.detail

let assert_claim (c : Claims.check) =
  if not c.Claims.holds then
    Alcotest.failf "%s: opt=%d bound=%d" c.Claims.name c.Claims.opt c.Claims.bound

(* ------------------------------------------------------------------ *)
(* Property 1 *)

let test_property1_all_m_all_t () =
  List.iter
    (fun p ->
      List.iter assert_holds (Properties.check_all_property1 p))
    [ p2; p3; p4; P.figure_params ~players:2; P.figure_params ~players:3 ]

let test_property1_alpha2 () =
  let p = P.make ~alpha:2 ~ell:3 ~players:2 in
  List.iter assert_holds (Properties.check_all_property1 p)

(* ------------------------------------------------------------------ *)
(* Property 2 *)

let test_property2_exhaustive_small () =
  (* All (i, j, m1, m2) for the 2-player figure-adjacent params. *)
  let p = p2 in
  let k = P.k p in
  for m1 = 0 to k - 1 do
    for m2 = 0 to k - 1 do
      if m1 <> m2 then begin
        assert_holds (Properties.property2 p ~i:0 ~j:1 ~m1 ~m2);
        assert_holds (Properties.property2 p ~i:1 ~j:0 ~m1 ~m2)
      end
    done
  done

let test_property2_sampled_larger () =
  let rng = Prng.create 5 in
  List.iter assert_holds (Properties.check_sampled_property2 rng p4 ~samples:40)

let test_property2_requires_distinct () =
  Alcotest.check_raises "i = j" (Invalid_argument "Properties.property2: need i <> j")
    (fun () -> ignore (Properties.property2 p2 ~i:0 ~j:0 ~m1:0 ~m2:1));
  Alcotest.check_raises "m1 = m2" (Invalid_argument "Properties.property2: need m1 <> m2")
    (fun () -> ignore (Properties.property2 p2 ~i:0 ~j:1 ~m1:1 ~m2:1))

(* ------------------------------------------------------------------ *)
(* Property 3 *)

let test_property3_on_exact_solutions () =
  (* Run the exact solver on promise instances and check Property 3 on the
     optimal independent set it returns, for every (i, j, m1, m2). *)
  let p = p3 in
  let rng = Prng.create 9 in
  for trial = 0 to 3 do
    let x =
      Inputs.gen_promise rng ~k:(P.k p) ~t:3 ~intersecting:(trial mod 2 = 0)
    in
    let inst = LF.instance p x in
    let sol = Mis.Exact.solve inst.Maxis_core.Family.graph in
    let k = P.k p in
    for i = 0 to 2 do
      for j = 0 to 2 do
        if i <> j then
          for m1 = 0 to k - 1 do
            for m2 = 0 to k - 1 do
              if m1 <> m2 then
                assert_holds
                  (Properties.property3 p ~i ~j ~m1 ~m2 ~set:sol.Mis.Exact.set)
            done
          done
      done
    done
  done

let test_property3_on_greedy_sets () =
  (* Also check on greedy (maximal but suboptimal) independent sets. *)
  let p = p2 in
  let rng = Prng.create 11 in
  let x = Inputs.gen_promise rng ~k:(P.k p) ~t:2 ~intersecting:false in
  let inst = LF.instance p x in
  let g = inst.Maxis_core.Family.graph in
  List.iter
    (fun h ->
      let _, s = Mis.Greedy.run h g in
      for m1 = 0 to P.k p - 1 do
        for m2 = 0 to P.k p - 1 do
          if m1 <> m2 then
            assert_holds (Properties.property3 p ~i:0 ~j:1 ~m1 ~m2 ~set:s)
        done
      done)
    Mis.Greedy.all

(* ------------------------------------------------------------------ *)
(* Claims 1 and 2 (t = 2 warm-up, Lemma 1) *)

let singleton_inputs p a b =
  Inputs.of_bit_lists ~k:(P.k p) [ [ a ]; [ b ] ]

let test_claim1_exhaustive_singletons () =
  let p = p2 in
  for m = 0 to P.k p - 1 do
    assert_claim (Claims.claim1 p (singleton_inputs p m m))
  done

let test_claim2_exhaustive_singletons () =
  let p = p2 in
  for a = 0 to P.k p - 1 do
    for b = 0 to P.k p - 1 do
      if a <> b then assert_claim (Claims.claim2 p (singleton_inputs p a b))
    done
  done

let test_claim1_requires_intersection () =
  Alcotest.check_raises "disjoint input"
    (Invalid_argument "Claims.claim1: strings must intersect") (fun () ->
      ignore (Claims.claim1 p2 (singleton_inputs p2 0 1)))

let test_claim2_requires_disjoint () =
  Alcotest.check_raises "intersecting input"
    (Invalid_argument "Claims.claim2: strings must be disjoint") (fun () ->
      ignore (Claims.claim2 p2 (singleton_inputs p2 1 1)))

let test_claims12_dense_inputs () =
  (* Denser strings still satisfy the claims. *)
  let p = p2 in
  let rng = Prng.create 17 in
  for _ = 1 to 6 do
    let xi = Inputs.gen_uniquely_intersecting rng ~k:(P.k p) ~t:2 ~ones_per_player:2 in
    assert_claim (Claims.claim1 p xi);
    let xd = Inputs.gen_pairwise_disjoint rng ~k:(P.k p) ~t:2 ~ones_per_player:2 in
    assert_claim (Claims.claim2 p xd)
  done

(* ------------------------------------------------------------------ *)
(* Claims 3 and 5 (general t, Lemma 2) *)

let test_claim3_across_t () =
  List.iter
    (fun p ->
      let k = P.k p in
      let t = p.P.players in
      let m = k / 2 in
      let x = Inputs.of_bit_lists ~k (List.init t (fun _ -> [ m ])) in
      assert_claim (Claims.claim3 p x))
    [ p2; p3; p4 ]

let test_claim5_across_t () =
  let rng = Prng.create 23 in
  List.iter
    (fun p ->
      for _ = 1 to 4 do
        let x =
          Inputs.gen_pairwise_disjoint rng ~k:(P.k p) ~t:p.P.players
            ~ones_per_player:1
        in
        assert_claim (Claims.claim5 p x)
      done)
    [ p2; p3; p4 ]

let test_claim3_claim5_validation () =
  Alcotest.check_raises "claim3 needs common"
    (Invalid_argument "Claims.claim3: strings must share an index") (fun () ->
      ignore (Claims.claim3 p3 (Inputs.of_bit_lists ~k:(P.k p3) [ [ 0 ]; [ 1 ]; [ 2 ] ])));
  Alcotest.check_raises "claim5 needs disjoint"
    (Invalid_argument "Claims.claim5: strings must be pairwise disjoint")
    (fun () ->
      ignore (Claims.claim5 p3 (Inputs.of_bit_lists ~k:(P.k p3) [ [ 0 ]; [ 0 ]; [ 2 ] ])))

(* ------------------------------------------------------------------ *)
(* Corollary 2 *)

let test_claim4_various_tuples () =
  let p = p3 in
  List.iter
    (fun ms ->
      let c = Claims.claim4 p ~ms in
      assert_claim c;
      (* Claim 4 counts nodes: the measured quantity is also at least the
         positions count minus the pairwise matchings, i.e. positive. *)
      Alcotest.(check bool) "positive" true (c.Claims.opt > 0))
    [ [| 0; 1; 2 |]; [| 4; 2; 0 |]; [| 2; 3; 4 |] ];
  Alcotest.check_raises "distinct required"
    (Invalid_argument "Claims.claim4: indices must be distinct") (fun () ->
      ignore (Claims.claim4 p ~ms:[| 1; 1; 2 |]))

let test_claim4_relates_to_corollary2 () =
  (* Corollary 2 = t heavy nodes + Claim 4's code count: the measured
     values must satisfy corollary2.opt = t*ell + claim4.opt exactly
     (forcing the heavy nodes costs nothing extra). *)
  let p = p3 in
  let ms = [| 0; 2; 4 |] in
  let c4 = Claims.claim4 p ~ms in
  let c2 = Claims.corollary2 p ~ms in
  Alcotest.(check int) "decomposition"
    ((p.P.players * P.ell p) + c4.Claims.opt)
    c2.Claims.opt

let test_corollary2_various_tuples () =
  let p = p3 in
  List.iter
    (fun ms -> assert_claim (Claims.corollary2 p ~ms))
    [ [| 0; 1; 2 |]; [| 4; 2; 0 |]; [| 1; 3; 4 |] ];
  Alcotest.check_raises "distinct required"
    (Invalid_argument "Claims.corollary2: indices must be distinct") (fun () ->
      ignore (Claims.corollary2 p ~ms:[| 0; 0; 1 |]));
  Alcotest.check_raises "arity"
    (Invalid_argument "Claims.corollary2: need t indices") (fun () ->
      ignore (Claims.corollary2 p ~ms:[| 0; 1 |]))

(* ------------------------------------------------------------------ *)
(* Claims 6 and 7 (quadratic) *)

let qp = P.make ~alpha:1 ~ell:3 ~players:2

let test_claim6_direct () =
  let sl = Maxis_core.Quadratic_family.string_length qp in
  let common = Maxis_core.Quadratic_family.pair_index qp ~m1:1 ~m2:2 in
  let x = Inputs.of_bit_lists ~k:sl [ [ common ]; [ common ] ] in
  assert_claim (Claims.claim6 qp x)

let test_claim7_direct () =
  let rng = Prng.create 31 in
  for _ = 1 to 4 do
    let x =
      Inputs.gen_pairwise_disjoint rng
        ~k:(Maxis_core.Quadratic_family.string_length qp)
        ~t:2 ~ones_per_player:3
    in
    assert_claim (Claims.claim7 qp x)
  done

let test_claim67_validation () =
  let sl = Maxis_core.Quadratic_family.string_length qp in
  Alcotest.check_raises "claim6 needs common"
    (Invalid_argument "Claims.claim6: strings must share an index") (fun () ->
      ignore (Claims.claim6 qp (Inputs.of_bit_lists ~k:sl [ [ 0 ]; [ 1 ] ])));
  Alcotest.check_raises "claim7 needs disjoint"
    (Invalid_argument "Claims.claim7: strings must be pairwise disjoint")
    (fun () -> ignore (Claims.claim7 qp (Inputs.of_bit_lists ~k:sl [ [ 0 ]; [ 0 ] ])))

(* ------------------------------------------------------------------ *)
(* qcheck: random promise vectors never violate any claim *)

let prop_linear_claims_random =
  QCheck.Test.make ~name:"claims 3/5 on random promise inputs" ~count:20
    QCheck.(triple small_int small_int bool) (fun (seed, tt, inter) ->
      let p = if tt mod 2 = 0 then p2 else p3 in
      let rng = Prng.create seed in
      let x =
        Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players ~intersecting:inter
      in
      let c = if inter then Claims.claim3 p x else Claims.claim5 p x in
      c.Claims.holds)

let prop_quadratic_claims_random =
  QCheck.Test.make ~name:"claims 6/7 on random promise inputs" ~count:10
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let rng = Prng.create seed in
      let x =
        Inputs.gen_promise rng
          ~k:(Maxis_core.Quadratic_family.string_length qp)
          ~t:2 ~intersecting:inter
      in
      let c = if inter then Claims.claim6 qp x else Claims.claim7 qp x in
      c.Claims.holds)

let prop_corollary2_random_tuples =
  QCheck.Test.make ~name:"corollary 2 on random index tuples" ~count:15
    QCheck.small_int (fun seed ->
      let p = p3 in
      let rng = Prng.create seed in
      let ms =
        Array.of_list (Prng.sample_without_replacement rng (P.k p) p.P.players)
      in
      (Claims.corollary2 p ~ms).Claims.holds)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "properties-claims"
    [
      ( "property-1",
        [
          Alcotest.test_case "all m, several t" `Quick test_property1_all_m_all_t;
          Alcotest.test_case "alpha = 2" `Quick test_property1_alpha2;
        ] );
      ( "property-2",
        [
          Alcotest.test_case "exhaustive small" `Quick test_property2_exhaustive_small;
          Alcotest.test_case "sampled larger" `Quick test_property2_sampled_larger;
          Alcotest.test_case "distinctness required" `Quick test_property2_requires_distinct;
        ] );
      ( "property-3",
        [
          Alcotest.test_case "exact solutions" `Slow test_property3_on_exact_solutions;
          Alcotest.test_case "greedy sets" `Quick test_property3_on_greedy_sets;
        ] );
      ( "claims-1-2",
        [
          Alcotest.test_case "claim 1 exhaustive" `Quick test_claim1_exhaustive_singletons;
          Alcotest.test_case "claim 2 exhaustive" `Slow test_claim2_exhaustive_singletons;
          Alcotest.test_case "claim 1 validation" `Quick test_claim1_requires_intersection;
          Alcotest.test_case "claim 2 validation" `Quick test_claim2_requires_disjoint;
          Alcotest.test_case "dense inputs" `Quick test_claims12_dense_inputs;
        ] );
      ( "claims-3-5",
        [
          Alcotest.test_case "claim 3 across t" `Quick test_claim3_across_t;
          Alcotest.test_case "claim 5 across t" `Quick test_claim5_across_t;
          Alcotest.test_case "validation" `Quick test_claim3_claim5_validation;
        ] );
      ( "claim-4",
        [
          Alcotest.test_case "various tuples" `Quick test_claim4_various_tuples;
          Alcotest.test_case "relates to corollary 2" `Quick
            test_claim4_relates_to_corollary2;
        ] );
      ( "corollary-2",
        [ Alcotest.test_case "various tuples" `Quick test_corollary2_various_tuples ] );
      ( "claims-6-7",
        [
          Alcotest.test_case "claim 6" `Quick test_claim6_direct;
          Alcotest.test_case "claim 7" `Quick test_claim7_direct;
          Alcotest.test_case "validation" `Quick test_claim67_validation;
        ] );
      qsuite "claims-props"
        [
          prop_linear_claims_random;
          prop_quadratic_claims_random;
          prop_corollary2_random_tuples;
        ];
    ]
