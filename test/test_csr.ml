(* Differential battery for the CSR graph core and the large-n engine:
   Csr ≡ Graph property-by-property, exact-solver parity across the
   representations, run ≡ run_csr ≡ run_flat executor parity (the
   list-mode programs are [Fastpath.to_program] of the flat ones, so
   this pins the executors and the adapter), and run_flat with a pool ≡
   without one. *)

module Graph = Wgraph.Graph
module Csr = Wgraph.Csr
module Build = Wgraph.Build
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let random_graph seed nn =
  let n = 1 + (nn mod 40) in
  let rng = Prng.create (Hashtbl.hash (seed, nn, "csr")) in
  let g = Build.erdos_renyi rng n 0.3 in
  Build.random_weights rng g 9;
  g

(* ------------------------------------------------------------------ *)
(* Builder semantics *)

let test_builder_basics () =
  let b = Csr.Builder.create ~default_weight:3 4 in
  Csr.Builder.add_edge b 0 1;
  Csr.Builder.add_edge b 1 0;
  (* duplicate *)
  Csr.Builder.add_edge b 0 1;
  Csr.Builder.add_edge b 2 1;
  Csr.Builder.set_weight b 2 7;
  Csr.Builder.set_label b 2 "two";
  let c = Csr.Builder.finish b in
  check_int "n" 4 (Csr.n c);
  check_int "edges deduped" 2 (Csr.edge_count c);
  check "has 0-1" true (Csr.has_edge c 0 1);
  check "symmetric" true (Csr.has_edge c 1 0);
  check "no 0-2" false (Csr.has_edge c 0 2);
  check_int "degree 1" 2 (Csr.degree c 1);
  check_int "degree 3" 0 (Csr.degree c 3);
  check_int "default weight" 3 (Csr.weight c 0);
  check_int "set weight" 7 (Csr.weight c 2);
  Alcotest.(check string) "label set" "two" (Csr.label c 2);
  Alcotest.(check string) "label default" "0" (Csr.label c 0)

let test_builder_errors () =
  let b = Csr.Builder.create 3 in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Csr.Builder.add_edge: self-loop") (fun () ->
      Csr.Builder.add_edge b 1 1);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Csr.Builder: node 3 out of range [0, 3)") (fun () ->
      Csr.Builder.add_edge b 0 3);
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Csr.Builder.set_weight: negative weight") (fun () ->
      Csr.Builder.set_weight b 0 (-1))

let test_builder_snapshot () =
  let b = Csr.Builder.create 3 in
  Csr.Builder.add_edge b 0 1;
  let c1 = Csr.Builder.finish b in
  Csr.Builder.add_edge b 1 2;
  let c2 = Csr.Builder.finish b in
  check_int "snapshot unchanged" 1 (Csr.edge_count c1);
  check_int "later finish sees more" 2 (Csr.edge_count c2)

let test_reweight () =
  let b = Csr.Builder.create 3 in
  Csr.Builder.add_edge b 0 1;
  let c = Csr.Builder.finish b in
  let c' = Csr.reweight c (fun v -> 10 + v) in
  check_int "new weight" 12 (Csr.weight c' 2);
  check_int "original untouched" 1 (Csr.weight c 2);
  check "edges shared" true (Csr.has_edge c' 0 1);
  check "equal ignores nothing: weights differ" false (Csr.equal c c')

(* ------------------------------------------------------------------ *)
(* Csr ≡ Graph differential properties *)

let conversion_matches =
  QCheck.Test.make ~name:"of_graph matches Graph property-by-property"
    ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let c = Csr.of_graph g in
      let n = Graph.n g in
      Csr.n c = n
      && Csr.edge_count c = Graph.edge_count g
      && Csr.max_degree c = Graph.max_degree g
      && Csr.total_weight c = Graph.total_weight g
      && List.for_all
           (fun v ->
             Csr.degree c v = Graph.degree g v
             && Csr.weight c v = Graph.weight g v
             && Csr.label c v = Graph.label g v
             && Csr.neighbors_array c v
                = Bitset.to_array (Graph.neighbors g v)
             && List.for_all
                  (fun u -> u = v || Csr.has_edge c v u = Graph.has_edge g v u)
                  (List.init n Fun.id))
           (List.init n Fun.id))

let round_trip =
  QCheck.Test.make ~name:"to_graph (of_graph g) = g (weights and labels)"
    ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let g' = Csr.to_graph (Csr.of_graph g) in
      Graph.equal g g'
      && List.for_all
           (fun v -> Graph.label g v = Graph.label g' v)
           (List.init (Graph.n g) Fun.id))

let builder_equals_of_graph =
  QCheck.Test.make ~name:"Builder over the edge list = of_graph" ~count:120
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let b = Csr.Builder.create (Graph.n g) in
      (* insert in reverse with duplicates to exercise sort + dedup *)
      let edges = Graph.edges g in
      List.iter (fun (u, v) -> Csr.Builder.add_edge b v u) (List.rev edges);
      List.iter (fun (u, v) -> Csr.Builder.add_edge b u v) edges;
      for v = 0 to Graph.n g - 1 do
        Csr.Builder.set_weight b v (Graph.weight g v)
      done;
      Csr.equal (Csr.Builder.finish b) (Csr.of_graph g))

let set_weight_of_matches =
  QCheck.Test.make ~name:"set_weight_of matches Graph" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      let c = Csr.of_graph g in
      let rng = Prng.create (Hashtbl.hash (nn, seed)) in
      let s = Bitset.create (Graph.n g) in
      for v = 0 to Graph.n g - 1 do
        if Prng.bool rng then Bitset.add s v
      done;
      Csr.set_weight_of c s = Graph.set_weight_of g s)

(* ------------------------------------------------------------------ *)
(* Exact-solver parity across representations *)

let solver_parity =
  QCheck.Test.make ~name:"Mis.Exact.solve parity on <=14-vertex graphs"
    ~count:80
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let n = 1 + (nn mod 14) in
      let rng = Prng.create (Hashtbl.hash (seed, nn, "mis")) in
      let g = Build.erdos_renyi rng n 0.4 in
      Build.random_weights rng g 7;
      let direct = (Mis.Exact.solve g).Mis.Exact.weight in
      let via_csr =
        (Mis.Exact.solve (Csr.to_graph (Csr.of_graph g))).Mis.Exact.weight
      in
      direct = via_csr)

(* ------------------------------------------------------------------ *)
(* Executor parity: run ≡ run_csr ≡ run_flat *)

let trace_summary t =
  ( Congest.Trace.rounds t,
    Congest.Trace.total_messages t,
    Congest.Trace.total_bits t,
    Congest.Trace.digest t )

let run_all_three (type a) (prog : a Congest.Program.t)
    (fp : a Congest.Fastpath.t) g =
  let c = Csr.of_graph g in
  let r1 = Congest.Runtime.run prog g in
  let r2 = Congest.Runtime.run_csr prog c in
  let r3 = Congest.Runtime.run_flat fp c in
  let same_results (a : a Congest.Runtime.result)
      (b : a Congest.Runtime.result) =
    a.Congest.Runtime.outputs = b.Congest.Runtime.outputs
    && a.Congest.Runtime.rounds_executed = b.Congest.Runtime.rounds_executed
    && a.Congest.Runtime.all_halted = b.Congest.Runtime.all_halted
    && trace_summary a.Congest.Runtime.trace
       = trace_summary b.Congest.Runtime.trace
  in
  same_results r1 r2 && same_results r1 r3

let flood_parity =
  QCheck.Test.make ~name:"flood: run = run_csr = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three
        (Congest.Algo_flood.max_id ~rounds:12)
        (Congest.Fastpath.max_id ~rounds:12)
        g)

let bfs_parity =
  QCheck.Test.make ~name:"bfs: run = run_csr = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three
        (Congest.Algo_bfs.distances ~root:0 ~rounds:12)
        (Congest.Fastpath.bfs_distances ~root:0 ~rounds:12)
        g)

let luby_parity =
  QCheck.Test.make ~name:"luby: run = run_csr = run_flat (incl. PRNG draws)"
    ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three Congest.Algo_luby.mis Congest.Fastpath.luby_mis g)

let greedy_parity =
  QCheck.Test.make ~name:"greedy: run = run_csr = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_all_three Congest.Algo_greedy_mis.mis Congest.Fastpath.greedy_mis g)

(* ------------------------------------------------------------------ *)
(* Sharded executor parity: run_flat ~pool = run_flat at every pool
   width, cold and warm, for Full, Light and cut-metered traces. *)

let par_pools =
  lazy (List.map (fun jobs -> Exec.Pool.create ~jobs ()) [ 1; 2; 3; 8 ])

let run_par_matches (type a) (fp : a Congest.Fastpath.t) g =
  let c = Csr.of_graph g in
  let n = Csr.n c in
  let part =
    let rng = Prng.create (Hashtbl.hash (n, Csr.edge_count c, "cut")) in
    Array.init n (fun _ -> Prng.int rng 2)
  in
  let same (a : a Congest.Runtime.result) (b : a Congest.Runtime.result) =
    a.Congest.Runtime.outputs = b.Congest.Runtime.outputs
    && a.Congest.Runtime.rounds_executed = b.Congest.Runtime.rounds_executed
    && a.Congest.Runtime.all_halted = b.Congest.Runtime.all_halted
    && trace_summary a.Congest.Runtime.trace
       = trace_summary b.Congest.Runtime.trace
  in
  let observe pool =
    let cold = Congest.Runtime.run_flat ?pool fp c in
    (* Warm: same pool, buffers of the previous run already grown. *)
    let warm = Congest.Runtime.run_flat ?pool fp c in
    let light =
      let tr = Congest.Trace.create ~mode:Congest.Trace.Light () in
      ignore (Congest.Runtime.run_flat ~trace:tr ?pool fp c);
      Congest.Trace.digest tr
    in
    let cut =
      let tr = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
      ignore (Congest.Runtime.run_flat ~trace:tr ?pool fp c);
      ( Congest.Trace.digest tr,
        Congest.Trace.cut_bits tr part,
        Congest.Trace.cut_bits_by_side tr part,
        Congest.Trace.cut_bits_by_round tr part )
    in
    (cold, warm, light, cut)
  in
  let seq, _, light0, cut0 = observe None in
  List.for_all
    (fun pool ->
      let cold, warm, light, cut = observe (Some pool) in
      same seq cold && same seq warm && light = light0 && cut = cut0)
    (Lazy.force par_pools)

let flood_par_parity =
  QCheck.Test.make ~name:"flood: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches (Congest.Fastpath.max_id ~rounds:12) (random_graph seed nn))

let bfs_par_parity =
  QCheck.Test.make ~name:"bfs: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches
        (Congest.Fastpath.bfs_distances ~root:0 ~rounds:12)
        (random_graph seed nn))

let luby_par_parity =
  QCheck.Test.make
    ~name:"luby: run_flat_par = run_flat (incl. PRNG draws), jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) -> run_par_matches Congest.Fastpath.luby_mis (random_graph seed nn))

let greedy_par_parity =
  QCheck.Test.make ~name:"greedy: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches Congest.Fastpath.greedy_mis (random_graph seed nn))

(* Model violations: every node sends one id-width word to each neighbor
   every round; node [bad_node] in round [bad_round] commits [fault]
   halfway through its sends, so the torn round's trace prefix holds
   whole shards, part of the failing node's row, and nothing after. *)
type violation = Oversend | Non_neighbor

let chatter ~fault ~bad_round ~bad_node : unit Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "chatter";
    fspawn =
      (fun view ->
        let v = view.Congest.Program.id in
        let nbrs = view.Congest.Program.neighbors in
        let width = Congest.Msg.id_width ~n:view.Congest.Program.n in
        let deg = Array.length nbrs in
        {
          F.fstep =
            (fun ~round ~inbox:_ em ->
              for k = 0 to deg - 1 do
                if round = bad_round && v = bad_node && k = deg / 2 then
                  (match fault with
                  | Oversend ->
                      F.emit em ~dst:nbrs.(k) ~tag:F.tag_int ~bits:10_000 ~word:0
                  | Non_neighbor ->
                      F.emit em ~dst:v ~tag:F.tag_int ~bits:width ~word:0);
                F.emit em ~dst:nbrs.(k) ~tag:F.tag_int ~bits:width ~word:v
              done);
          fhalted = (fun () -> false);
          foutput = (fun () -> None);
        });
  }

(* A cycle with chords: every node has a neighbor to oversend to, and
   rows are uneven enough that shards stage different volumes. *)
let chorded_cycle n =
  let b = Csr.Builder.create n in
  for v = 0 to n - 1 do
    Csr.Builder.add_edge b v ((v + 1) mod n);
    let u = ((3 * v) + 5) mod n in
    if u <> v then Csr.Builder.add_edge b v u
  done;
  Csr.Builder.finish b

let test_violation_parity () =
  let c = chorded_cycle 29 in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = 6 }
  in
  List.iter
    (fun (fault, bad_round, bad_node) ->
      let fp = chatter ~fault ~bad_round ~bad_node in
      let observe pool =
        let failure mode =
          let trace = Congest.Trace.create ~mode () in
          match Congest.Runtime.run_flat_checked ~config ~trace ?pool fp c with
          | Ok _ -> Alcotest.fail "violation not reported"
          | Error f -> f
        in
        let full = failure Congest.Trace.Full in
        let light = failure Congest.Trace.Light in
        let tr = full.Congest.Runtime.trace_prefix in
        ( (full.Congest.Runtime.round, full.Congest.Runtime.src,
           full.Congest.Runtime.reason),
          Congest.Trace.total_messages tr,
          Array.length (Congest.Trace.send_events tr),
          Congest.Trace.send_digest_state light.Congest.Runtime.trace_prefix )
      in
      let (((round, src, _), msgs, _, _) as reference) = observe None in
      check_int "failing round" bad_round round;
      check_int "failing node" bad_node src;
      check "prefix is non-trivial" true (msgs > 0);
      List.iter
        (fun pool ->
          check
            (Printf.sprintf "jobs=%d = no pool" (Exec.Pool.jobs pool))
            true
            (observe (Some pool) = reference))
        (Lazy.force par_pools))
    [
      (Oversend, 0, 0);
      (Oversend, 2, 14);
      (Oversend, 3, 28);
      (Non_neighbor, 0, 17);
      (Non_neighbor, 1, 0);
      (Non_neighbor, 4, 28);
    ]

(* The chunk decomposition is a partition of [lo, hi) in ascending
   order with sizes differing by at most one. *)
let chunk_bounds_partition =
  QCheck.Test.make ~name:"Pool.chunk_bounds partitions the range" ~count:200
    QCheck.(triple small_int small_int small_int)
    (fun (j, l, len) ->
      let jobs = 1 + (j mod 9) in
      let lo = l mod 50 in
      let hi = lo + (len mod 70) in
      let pieces =
        List.init jobs (fun i -> Exec.Pool.chunk_bounds ~jobs ~lo ~hi i)
      in
      let sizes = List.map (fun (a, b) -> b - a) pieces in
      let mn = List.fold_left min max_int sizes
      and mx = List.fold_left max 0 sizes in
      let rec contiguous at = function
        | [] -> at = hi
        | (a, b) :: rest -> a = at && b >= a && contiguous b rest
      in
      contiguous lo pieces && mx - mn <= 1)

let test_flat_rejects () =
  let c = Csr.of_graph (Build.path 4) in
  let fp = Congest.Fastpath.max_id ~rounds:4 in
  let plan =
    Congest.Faults.plan ~default:(Congest.Faults.link ~drop:0.5 ()) 1
  in
  let rejects what ?alloc_probe config pool =
    try
      ignore (Congest.Runtime.run_flat ~config ?alloc_probe ?pool fp c);
      Alcotest.fail (what ^ " accepted")
    with Invalid_argument _ -> ()
  in
  let d = Congest.Runtime.default_config in
  Exec.Pool.with_pool ~jobs:2 (fun p ->
      List.iter
        (fun pool ->
          rejects "broadcast"
            { d with Congest.Runtime.mode = Congest.Runtime.Broadcast }
            pool;
          rejects "faults" { d with Congest.Runtime.faults = Some plan } pool)
        [ None; Some p ];
      rejects "short alloc_probe" ~alloc_probe:[| 0.0 |] d (Some p);
      rejects "empty alloc_probe" ~alloc_probe:[||] d None)

(* The [run_flat_par] alias rejects what [run_flat ~pool] rejects. *)
let test_par_rejects () =
  let c = Csr.of_graph (Build.path 4) in
  let fp = Congest.Fastpath.max_id ~rounds:4 in
  let plan =
    Congest.Faults.plan ~default:(Congest.Faults.link ~drop:0.5 ()) 1
  in
  let d = Congest.Runtime.default_config in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let rejects what ?alloc_probe config =
        try
          ignore (Congest.Runtime.run_flat_par ~config ?alloc_probe ~pool fp c);
          Alcotest.fail (what ^ " accepted")
        with Invalid_argument _ -> ()
      in
      rejects "broadcast"
        { d with Congest.Runtime.mode = Congest.Runtime.Broadcast };
      rejects "faults" { d with Congest.Runtime.faults = Some plan };
      rejects "short alloc_probe" ~alloc_probe:[| 0.0 |] d)

(* ------------------------------------------------------------------ *)
(* Gadget construction parity *)

let test_linear_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:3 in
  let g, part = Maxis_core.Linear_family.fixed p in
  let c, part' = Maxis_core.Linear_family.fixed_csr p in
  check "fixed_csr = of_graph fixed" true (Csr.equal c (Csr.of_graph g));
  check "partitions equal" true (part = part')

let test_linear_instance_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:2 in
  let x =
    Commcx.Inputs.gen_promise (Prng.create 7) ~k:(Maxis_core.Params.k p) ~t:2
      ~intersecting:false
  in
  let inst = Maxis_core.Linear_family.instance p x in
  let c, part = Maxis_core.Linear_family.instance_csr p x in
  check "structure" true
    (Csr.equal (Csr.reweight c (fun _ -> 1))
       (Csr.reweight (Csr.of_graph inst.Maxis_core.Family.graph) (fun _ -> 1)));
  check "partition" true (part = inst.Maxis_core.Family.partition);
  let ok = ref true in
  for v = 0 to Csr.n c - 1 do
    if Csr.weight c v <> Graph.weight inst.Maxis_core.Family.graph v then
      ok := false
  done;
  check "weights" true !ok

let test_quadratic_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:2 in
  let g, part = Maxis_core.Quadratic_family.fixed p in
  let c, part' = Maxis_core.Quadratic_family.fixed_csr p in
  check "fixed_csr = of_graph fixed" true (Csr.equal c (Csr.of_graph g));
  check "partitions equal" true (part = part');
  (* Sharded finish produces the identical CSR at every pool width. *)
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
      let c3, _ = Maxis_core.Quadratic_family.fixed_csr ~shard p in
      check "sharded finish equal" true (Csr.equal c c3))

let test_quadratic_instance_csr_matches () =
  let p = Maxis_core.Params.figure_params ~players:2 in
  let x =
    Commcx.Inputs.gen_promise (Prng.create 11)
      ~k:(Maxis_core.Quadratic_family.string_length p)
      ~t:2 ~intersecting:true
  in
  let inst = Maxis_core.Quadratic_family.instance p x in
  let c, part = Maxis_core.Quadratic_family.instance_csr p x in
  check "structure" true
    (Csr.equal (Csr.reweight c (fun _ -> 1))
       (Csr.reweight (Csr.of_graph inst.Maxis_core.Family.graph) (fun _ -> 1)));
  check "partition" true (part = inst.Maxis_core.Family.partition);
  let ok = ref true in
  for v = 0 to Csr.n c - 1 do
    if Csr.weight c v <> Graph.weight inst.Maxis_core.Family.graph v then
      ok := false
  done;
  check "weights" true !ok;
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
      let c2, _ = Maxis_core.Quadratic_family.instance_csr ~shard p x in
      check "sharded instance equal" true (Csr.equal c c2))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "csr"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "errors" `Quick test_builder_errors;
          Alcotest.test_case "snapshot" `Quick test_builder_snapshot;
          Alcotest.test_case "reweight" `Quick test_reweight;
        ] );
      qsuite "differential"
        [
          conversion_matches;
          round_trip;
          builder_equals_of_graph;
          set_weight_of_matches;
          solver_parity;
        ];
      qsuite "executors" [ flood_parity; bfs_parity; luby_parity; greedy_parity ];
      qsuite "executors-par"
        [
          flood_par_parity;
          bfs_par_parity;
          luby_par_parity;
          greedy_par_parity;
          chunk_bounds_partition;
        ];
      ( "executors-edge",
        [
          Alcotest.test_case "run_flat rejects" `Quick test_flat_rejects;
          Alcotest.test_case "run_flat_par rejects" `Quick test_par_rejects;
          Alcotest.test_case "violations: pool = no pool" `Quick
            test_violation_parity;
        ] );
      ( "gadgets",
        [
          Alcotest.test_case "fixed_csr" `Quick test_linear_csr_matches;
          Alcotest.test_case "instance_csr" `Quick
            test_linear_instance_csr_matches;
          Alcotest.test_case "quadratic fixed_csr" `Quick
            test_quadratic_csr_matches;
          Alcotest.test_case "quadratic instance_csr" `Quick
            test_quadratic_instance_csr_matches;
        ] );
    ]
