(* Tests for the wgraph substrate: graphs, builders, matching, cuts,
   checks, metrics, DOT export. *)

module Graph = Wgraph.Graph
module Build = Wgraph.Build
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph core *)

let test_create_empty () =
  let g = Graph.create 5 in
  check_int "n" 5 (Graph.n g);
  check_int "edges" 0 (Graph.edge_count g);
  check_int "weight default" 1 (Graph.weight g 0);
  check_int "total weight" 5 (Graph.total_weight g);
  check_int "max degree" 0 (Graph.max_degree g)

let test_add_edges () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  Graph.add_edge g 1 2;
  Graph.add_edge g 0 1;
  check_int "edge count" 2 (Graph.edge_count g);
  check "has 0-1" true (Graph.has_edge g 0 1);
  check "symmetric" true (Graph.has_edge g 1 0);
  check "no 0-2" false (Graph.has_edge g 0 2);
  check_int "degree 1" 2 (Graph.degree g 1);
  Graph.remove_edge g 0 1;
  check "removed" false (Graph.has_edge g 0 1);
  check_int "edge count after" 1 (Graph.edge_count g)

let test_self_loop_rejected () =
  let g = Graph.create 3 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> Graph.add_edge g 1 1)

let test_bad_node () =
  let g = Graph.create 3 in
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph: node 3 out of range [0, 3)") (fun () ->
      ignore (Graph.degree g 3))

let test_weights () =
  let g = Graph.create 3 in
  Graph.set_weight g 0 10;
  Graph.set_weight g 2 5;
  check_int "w0" 10 (Graph.weight g 0);
  check_int "total" 16 (Graph.total_weight g);
  check_int "set weight of" 15 (Graph.set_weight_of g (Bitset.of_list 3 [ 0; 2 ]));
  Alcotest.check_raises "negative" (Invalid_argument "Graph.set_weight: negative weight")
    (fun () -> Graph.set_weight g 0 (-1))

let test_labels () =
  let g = Graph.create 2 in
  Alcotest.(check string) "default" "1" (Graph.label g 1);
  Graph.set_label g 1 "v^1_2";
  Alcotest.(check string) "custom" "v^1_2" (Graph.label g 1)

let test_iter_edges_each_once () =
  let g = Build.complete 5 in
  let count = ref 0 in
  Graph.iter_edges (fun u v -> check "u<v" true (u < v); incr count) g;
  check_int "edges once" 10 !count;
  check_int "edges list" 10 (List.length (Graph.edges g))

let test_copy_independent () =
  let g = Graph.create 3 in
  Graph.add_edge g 0 1;
  let h = Graph.copy g in
  Graph.add_edge h 1 2;
  check "copy has new" true (Graph.has_edge h 1 2);
  check "orig clean" false (Graph.has_edge g 1 2);
  Graph.set_weight h 0 9;
  check_int "orig weight" 1 (Graph.weight g 0)

let test_induced () =
  let g = Build.cycle 6 in
  Graph.set_weight g 2 7;
  let sub, mapping = Graph.induced g (Bitset.of_list 6 [ 1; 2; 3 ]) in
  check_int "sub n" 3 (Graph.n sub);
  Alcotest.(check (array int)) "mapping" [| 1; 2; 3 |] mapping;
  check_int "sub edges" 2 (Graph.edge_count sub);
  check_int "weight carried" 7 (Graph.weight sub 1);
  check "edge 0-1 (1-2 orig)" true (Graph.has_edge sub 0 1);
  check "no edge 0-2 (1-3 orig)" false (Graph.has_edge sub 0 2)

let test_disjoint_union () =
  let g = Build.complete 3 and h = Build.path 4 in
  let u, shift = Graph.disjoint_union g h in
  check_int "shift" 3 shift;
  check_int "n" 7 (Graph.n u);
  check_int "edges" (3 + 3) (Graph.edge_count u);
  check "no cross edges" true
    (not (Graph.has_edge u 0 3) && not (Graph.has_edge u 2 6))

let test_complement () =
  let g = Build.path 4 in
  let c = Graph.complement g in
  check_int "edges" (6 - 3) (Graph.edge_count c);
  check "path edge gone" false (Graph.has_edge c 0 1);
  check "non-edge present" true (Graph.has_edge c 0 2);
  let cc = Graph.complement c in
  check "double complement" true (Graph.equal g cc)

(* ------------------------------------------------------------------ *)
(* Builders *)

let test_complete () =
  let g = Build.complete 6 in
  check_int "edges" 15 (Graph.edge_count g);
  check_int "degree" 5 (Graph.max_degree g)

let test_path_cycle_star () =
  check_int "path edges" 4 (Graph.edge_count (Build.path 5));
  check_int "cycle edges" 5 (Graph.edge_count (Build.cycle 5));
  check_int "star edges" 4 (Graph.edge_count (Build.star 5));
  check_int "tiny cycle" 1 (Graph.edge_count (Build.cycle 2))

let test_complete_bipartite () =
  let g = Build.complete_bipartite 3 4 in
  check_int "edges" 12 (Graph.edge_count g);
  check "no left-left" false (Graph.has_edge g 0 1);
  check "cross" true (Graph.has_edge g 0 3)

let test_connect_complement_of_matching () =
  (* Figure 2: every sigma^i_(h,r) adjacent to all of C^j_h except its twin. *)
  let g = Graph.create 6 in
  let xs = [| 0; 1; 2 |] and ys = [| 3; 4; 5 |] in
  Build.connect_complement_of_matching g xs ys;
  check_int "edges" 6 (Graph.edge_count g);
  Array.iteri
    (fun i x ->
      Array.iteri
        (fun j y ->
          check
            (Printf.sprintf "edge %d-%d" x y)
            (i <> j) (Graph.has_edge g x y))
        ys)
    xs;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Build.connect_complement_of_matching: length mismatch")
    (fun () -> Build.connect_complement_of_matching g xs [| 0 |])

let test_make_clique () =
  let g = Graph.create 5 in
  Build.make_clique g [ 0; 2; 4 ];
  check_int "edges" 3 (Graph.edge_count g);
  check "clique check" true (Wgraph.Check.is_clique g (Bitset.of_list 5 [ 0; 2; 4 ]))

let test_erdos_renyi_extremes () =
  let rng = Prng.create 1 in
  let g0 = Build.erdos_renyi rng 10 0.0 in
  check_int "p=0" 0 (Graph.edge_count g0);
  let g1 = Build.erdos_renyi rng 10 1.0 in
  check_int "p=1" 45 (Graph.edge_count g1)

(* ------------------------------------------------------------------ *)
(* Check *)

let test_is_independent () =
  let g = Build.cycle 5 in
  check "alternating" true (Wgraph.Check.is_independent g (Bitset.of_list 5 [ 0; 2 ]));
  check "adjacent pair" false (Wgraph.Check.is_independent g (Bitset.of_list 5 [ 0; 1 ]));
  check "empty" true (Wgraph.Check.is_independent g (Bitset.create 5));
  Alcotest.(check (list (pair int int)))
    "violations" [ (0, 1) ]
    (Wgraph.Check.independence_violations g (Bitset.of_list 5 [ 0; 1; 3 ]))

let test_is_clique () =
  let g = Build.complete 4 in
  check "whole" true (Wgraph.Check.is_clique g (Bitset.full 4));
  let h = Build.path 4 in
  check "path not clique" false (Wgraph.Check.is_clique h (Bitset.of_list 4 [ 0; 1; 2 ]));
  check "single" true (Wgraph.Check.is_clique h (Bitset.of_list 4 [ 0 ]));
  check "edge" true (Wgraph.Check.is_clique h (Bitset.of_list 4 [ 0; 1 ]))

let test_is_maximal_independent () =
  let g = Build.path 4 in
  check "0,2 not maximal" false
    (Wgraph.Check.is_maximal_independent g (Bitset.of_list 4 [ 0 ]));
  check "0,2 maximal" true
    (Wgraph.Check.is_maximal_independent g (Bitset.of_list 4 [ 0; 2 ]));
  check "not independent" false
    (Wgraph.Check.is_maximal_independent g (Bitset.of_list 4 [ 0; 1 ]));
  check "0,3 maximal" true
    (Wgraph.Check.is_maximal_independent g (Bitset.of_list 4 [ 0; 3 ]))

let test_vertex_cover_domination () =
  let g = Build.star 5 in
  check "center covers" true (Wgraph.Check.is_vertex_cover g (Bitset.of_list 5 [ 0 ]));
  check "leaf doesn't" false (Wgraph.Check.is_vertex_cover g (Bitset.of_list 5 [ 1 ]));
  check "center dominates" true (Wgraph.Check.dominates g (Bitset.of_list 5 [ 0 ]));
  check "leaves dominate" true
    (Wgraph.Check.dominates g (Bitset.of_list 5 [ 1; 2; 3; 4 ]))

(* ------------------------------------------------------------------ *)
(* Matching *)

let test_matching_perfect () =
  let g = Build.complete_bipartite 4 4 in
  let r =
    Wgraph.Matching.max_bipartite_matching g ~left:[| 0; 1; 2; 3 |]
      ~right:[| 4; 5; 6; 7 |]
  in
  check_int "size" 4 r.Wgraph.Matching.size;
  check "valid" true (Wgraph.Matching.is_matching g r.Wgraph.Matching.pairs)

let test_matching_complement_of_matching () =
  (* Property 2's engine: complement-of-perfect-matching between two sets of
     size q has a perfect matching for q >= 2 (a derangement exists). *)
  let q = 5 in
  let g = Graph.create (2 * q) in
  let xs = Array.init q Fun.id and ys = Array.init q (fun i -> q + i) in
  Build.connect_complement_of_matching g xs ys;
  let r = Wgraph.Matching.max_bipartite_matching g ~left:xs ~right:ys in
  check_int "derangement size" q r.Wgraph.Matching.size

let test_matching_unbalanced () =
  let g = Build.complete_bipartite 2 5 in
  let r =
    Wgraph.Matching.max_bipartite_matching g ~left:[| 0; 1 |]
      ~right:[| 2; 3; 4; 5; 6 |]
  in
  check_int "size" 2 r.Wgraph.Matching.size

let test_matching_empty () =
  let g = Graph.create 4 in
  let r = Wgraph.Matching.max_bipartite_matching g ~left:[| 0; 1 |] ~right:[| 2; 3 |] in
  check_int "no edges" 0 r.Wgraph.Matching.size;
  Alcotest.(check (list (pair int int))) "no pairs" [] r.Wgraph.Matching.pairs

let test_is_matching_rejects () =
  let g = Build.complete_bipartite 2 2 in
  check "reuse vertex" false (Wgraph.Matching.is_matching g [ (0, 2); (0, 3) ]);
  check "non-edge" false (Wgraph.Matching.is_matching g [ (0, 1) ]);
  check "ok" true (Wgraph.Matching.is_matching g [ (0, 2); (1, 3) ])

let prop_matching_bounded =
  QCheck.Test.make ~name:"matching <= min side, pairs valid" ~count:60
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 8) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng (2 * n) 0.4 in
      let left = Array.init n Fun.id and right = Array.init n (fun i -> n + i) in
      let r = Wgraph.Matching.max_bipartite_matching g ~left ~right in
      r.Wgraph.Matching.size <= n
      && Wgraph.Matching.is_matching g r.Wgraph.Matching.pairs
      && List.length r.Wgraph.Matching.pairs = r.Wgraph.Matching.size)

(* König on small random bipartite graphs: max matching + max independent
   set = total vertices. *)
let prop_matching_konig =
  QCheck.Test.make ~name:"Konig duality on random bipartite graphs" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let n = 4 in
      let g = Graph.create (2 * n) in
      for u = 0 to n - 1 do
        for v = n to (2 * n) - 1 do
          if Prng.float rng 1.0 < 0.4 then Graph.add_edge g u v
        done
      done;
      let left = Array.init n Fun.id and right = Array.init n (fun i -> n + i) in
      let m = (Wgraph.Matching.max_bipartite_matching g ~left ~right).Wgraph.Matching.size in
      let alpha, _ = Mis.Brute.solve g in
      m + alpha = 2 * n)

(* ------------------------------------------------------------------ *)
(* Cut *)

let test_cut_basic () =
  let g = Build.cycle 6 in
  let part = [| 0; 0; 0; 1; 1; 1 |] in
  check_int "cut size" 2 (Wgraph.Cut.size g part);
  Alcotest.(check (list (pair int int))) "cut edges" [ (0, 5); (2, 3) ]
    (Wgraph.Cut.edges g part);
  check_int "parts" 2 (Wgraph.Cut.parts part);
  Alcotest.(check (list int)) "part 1 nodes" [ 3; 4; 5 ] (Wgraph.Cut.part_nodes part 1);
  Alcotest.(check (array int)) "part sizes" [| 3; 3 |] (Wgraph.Cut.part_sizes part);
  check "internal" true (Wgraph.Cut.is_internal part 0 1);
  check "crossing" false (Wgraph.Cut.is_internal part 2 3)

let test_cut_validation () =
  let g = Build.path 3 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Cut: partition length differs from node count")
    (fun () -> ignore (Wgraph.Cut.size g [| 0; 1 |]));
  Alcotest.check_raises "negative part"
    (Invalid_argument "Cut: negative part index") (fun () ->
      ignore (Wgraph.Cut.size g [| 0; -1; 0 |]))

let test_cut_all_same_part () =
  let g = Build.complete 5 in
  check_int "no cut" 0 (Wgraph.Cut.size g (Array.make 5 0))

let prop_cut_bounded_by_edges =
  QCheck.Test.make ~name:"0 <= cut <= m" ~count:60 QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng 12 0.3 in
      let part = Array.init 12 (fun _ -> Prng.int rng 3) in
      let c = Wgraph.Cut.size g part in
      c >= 0 && c <= Graph.edge_count g
      && c = List.length (Wgraph.Cut.edges g part))

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_bfs_distances () =
  let g = Build.path 5 in
  Alcotest.(check (array int)) "from 0" [| 0; 1; 2; 3; 4 |] (Wgraph.Metrics.bfs_distances g 0);
  Alcotest.(check (array int)) "from 2" [| 2; 1; 0; 1; 2 |] (Wgraph.Metrics.bfs_distances g 2)

let test_diameter () =
  check_int "path" 4 (Wgraph.Metrics.diameter (Build.path 5));
  check_int "cycle" 3 (Wgraph.Metrics.diameter (Build.cycle 6));
  check_int "complete" 1 (Wgraph.Metrics.diameter (Build.complete 4));
  check_int "single" 0 (Wgraph.Metrics.diameter (Graph.create 1));
  check_int "disconnected" (-1) (Wgraph.Metrics.diameter (Graph.create 3))

let test_connectivity () =
  check "path connected" true (Wgraph.Metrics.is_connected (Build.path 5));
  check "edgeless not" false (Wgraph.Metrics.is_connected (Graph.create 2));
  let comp, count = Wgraph.Metrics.connected_components (Graph.create 3) in
  check_int "three components" 3 count;
  Alcotest.(check (array int)) "ids" [| 0; 1; 2 |] comp

let test_degree_histogram () =
  let g = Build.star 5 in
  Alcotest.(check (list (pair int int))) "star histogram" [ (1, 4); (4, 1) ]
    (Wgraph.Metrics.degree_histogram g)

let test_density () =
  Alcotest.(check (float 1e-9)) "complete" 1.0 (Wgraph.Metrics.density (Build.complete 5));
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Wgraph.Metrics.density (Graph.create 5))

(* ------------------------------------------------------------------ *)
(* Dot *)

let contains hay needle =
  let ln = String.length needle and lh = String.length hay in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_dot_contains_structure () =
  let g = Build.path 3 in
  Graph.set_label g 0 "a";
  let dot = Wgraph.Dot.to_dot ~name:"T" g in
  check "graph header" true (contains dot "graph \"T\"");
  check "edge" true (contains dot "0 -- 1");
  check "label" true (contains dot "label=\"a");
  let dot2 = Wgraph.Dot.to_dot ~partition:[| 0; 0; 1 |] g in
  check "clusters" true (contains dot2 "subgraph cluster_0");
  check "cut dashed" true (contains dot2 "style=dashed");
  let dot3 = Wgraph.Dot.to_dot ~highlight:(Bitset.of_list 3 [ 1 ]) g in
  check "highlight" true (contains dot3 "fillcolor=lightblue")

let test_ascii_summary_stable () =
  let g = Build.cycle 4 in
  Alcotest.(check string) "summary"
    "n=4 m=4 total_weight=4 max_degree=2 diameter=2\ndegree histogram: 2:4\n"
    (Wgraph.Dot.ascii_summary g)

(* ------------------------------------------------------------------ *)
(* Dimacs *)

let test_dimacs_roundtrip () =
  let g = Build.cycle 5 in
  Graph.set_weight g 2 7;
  let text = Wgraph.Dimacs.to_string ~comment:"test graph" g in
  let g', part = Wgraph.Dimacs.parse text in
  check "equal" true (Graph.equal g g');
  check "no partition" true (part = None)

let test_dimacs_partition () =
  let g = Build.path 4 in
  let text = Wgraph.Dimacs.to_string ~partition:[| 0; 0; 1; 2 |] g in
  let g', part = Wgraph.Dimacs.parse text in
  check "graph" true (Graph.equal g g');
  Alcotest.(check (option (array int))) "partition" (Some [| 0; 0; 1; 2 |]) part

let test_dimacs_format_shape () =
  let g = Build.path 2 in
  Graph.set_weight g 1 3;
  let text = Wgraph.Dimacs.to_string g in
  Alcotest.(check string) "exact format" "p edge 2 1\nn 2 3\ne 1 2\n" text

let test_dimacs_parse_errors () =
  check "no p line" true
    (try ignore (Wgraph.Dimacs.parse "e 1 2\n"); false with Failure _ -> true);
  check "bad int" true
    (try ignore (Wgraph.Dimacs.parse "p edge x 0\n"); false with Failure _ -> true);
  check "unknown record" true
    (try ignore (Wgraph.Dimacs.parse "p edge 2 0\nz 1\n"); false
     with Failure _ -> true);
  check "duplicate p" true
    (try ignore (Wgraph.Dimacs.parse "p edge 2 0\np edge 2 0\n"); false
     with Failure _ -> true);
  (* Records the Graph API would reject must fail as line-numbered
     parse errors, not leak its Invalid_argument. *)
  List.iter
    (fun (what, text, line) ->
      match Wgraph.Dimacs.parse text with
      | _ -> Alcotest.failf "%s accepted" what
      | exception Failure msg ->
          let prefix = Printf.sprintf "Dimacs.parse: line %d: " line in
          check what true (String.starts_with ~prefix msg))
    [
      ("self-loop", "p edge 2 1\ne 1 1\n", 2);
      ("node 0", "p edge 2 1\ne 0 1\n", 2);
      ("edge node past n", "p edge 2 1\ne 1 3\n", 2);
      ("negative weight", "p edge 2 0\nn 1 -3\n", 2);
      ("weight node past n", "p edge 2 0\nn 3 4\n", 2);
      ("negative n", "p edge -1 0\n", 1);
      ("partition node past n", "p edge 2 0\nc partition 3 0\n", 2);
    ]

let test_dimacs_file_io () =
  let g = Build.complete 4 in
  Graph.set_weight g 0 9;
  let path = Filename.temp_file "dimacs" ".col" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Wgraph.Dimacs.write_file path ~comment:"K4" ~partition:[| 0; 1; 0; 1 |] g;
      let g', part = Wgraph.Dimacs.read_file path in
      check "roundtrip" true (Graph.equal g g');
      check "partition" true (part = Some [| 0; 1; 0; 1 |]))

let prop_dimacs_roundtrip =
  QCheck.Test.make ~name:"dimacs roundtrip on random graphs" ~count:60
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 1 + (nn mod 15) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.3 in
      Build.random_weights rng g 5;
      let g', _ = Wgraph.Dimacs.parse (Wgraph.Dimacs.to_string g) in
      Graph.equal g g')

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "wgraph"
    [
      ( "graph",
        [
          Alcotest.test_case "create" `Quick test_create_empty;
          Alcotest.test_case "add edges" `Quick test_add_edges;
          Alcotest.test_case "self loop" `Quick test_self_loop_rejected;
          Alcotest.test_case "bad node" `Quick test_bad_node;
          Alcotest.test_case "weights" `Quick test_weights;
          Alcotest.test_case "labels" `Quick test_labels;
          Alcotest.test_case "iter edges" `Quick test_iter_edges_each_once;
          Alcotest.test_case "copy" `Quick test_copy_independent;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "complement" `Quick test_complement;
        ] );
      ( "build",
        [
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "path/cycle/star" `Quick test_path_cycle_star;
          Alcotest.test_case "bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "complement of matching" `Quick
            test_connect_complement_of_matching;
          Alcotest.test_case "clique" `Quick test_make_clique;
          Alcotest.test_case "erdos-renyi extremes" `Quick test_erdos_renyi_extremes;
        ] );
      ( "check",
        [
          Alcotest.test_case "independent" `Quick test_is_independent;
          Alcotest.test_case "clique" `Quick test_is_clique;
          Alcotest.test_case "maximal independent" `Quick test_is_maximal_independent;
          Alcotest.test_case "cover/domination" `Quick test_vertex_cover_domination;
        ] );
      ( "matching",
        [
          Alcotest.test_case "perfect" `Quick test_matching_perfect;
          Alcotest.test_case "complement of matching" `Quick
            test_matching_complement_of_matching;
          Alcotest.test_case "unbalanced" `Quick test_matching_unbalanced;
          Alcotest.test_case "empty" `Quick test_matching_empty;
          Alcotest.test_case "is_matching" `Quick test_is_matching_rejects;
        ] );
      qsuite "matching-props" [ prop_matching_bounded; prop_matching_konig ];
      ( "cut",
        [
          Alcotest.test_case "basic" `Quick test_cut_basic;
          Alcotest.test_case "validation" `Quick test_cut_validation;
          Alcotest.test_case "single part" `Quick test_cut_all_same_part;
        ] );
      qsuite "cut-props" [ prop_cut_bounded_by_edges ];
      ( "metrics",
        [
          Alcotest.test_case "bfs" `Quick test_bfs_distances;
          Alcotest.test_case "diameter" `Quick test_diameter;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
          Alcotest.test_case "density" `Quick test_density;
        ] );
      ( "dot",
        [
          Alcotest.test_case "structure" `Quick test_dot_contains_structure;
          Alcotest.test_case "ascii summary" `Quick test_ascii_summary_stable;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "partition" `Quick test_dimacs_partition;
          Alcotest.test_case "format shape" `Quick test_dimacs_format_shape;
          Alcotest.test_case "parse errors" `Quick test_dimacs_parse_errors;
          Alcotest.test_case "file io" `Quick test_dimacs_file_io;
        ] );
      qsuite "dimacs-props" [ prop_dimacs_roundtrip ];
    ]
