(* Differential battery for the CSR graph core and the large-n engine:
   Csr ≡ Graph property-by-property, exact-solver parity across the
   representations, run ≡ run_flat parity (the list-mode programs are
   [Fastpath.to_program] of the flat ones, and [run] carries them
   through [Fastpath.of_program], so this pins both adapters), and
   run_flat with a pool ≡ without one. *)

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
  Alcotest.(check string) "label default" "0" (Csr.label c 0);
  let empty = Csr.Builder.finish (Csr.Builder.create 0) in
  check_int "n = 0" 0 (Csr.n empty);
  check_int "n = 0 edges" 0 (Csr.edge_count empty);
  check "n = 0 = of_graph" true
    (Csr.equal empty (Csr.of_graph (Graph.create 0)));
  let b = Csr.Builder.create 5 in
  Csr.Builder.add_edge b 3 1;
  let c = Csr.Builder.finish b in
  check "isolated vertices" true
    (List.for_all (fun v -> Csr.degree c v = 0) [ 0; 2; 4 ]);
  check "isolated = of_graph" true
    (let g = Graph.create 5 in
     Graph.add_edge g 1 3;
     Csr.equal c (Csr.of_graph g))

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
      let xadj, adj = Csr.rows c in
      Csr.n c = n
      && Array.length xadj = n + 1
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
             && Array.sub adj xadj.(v) (xadj.(v + 1) - xadj.(v))
                = Csr.neighbors_array c v
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

(* Two input classes.  Sparse: the edge list reversed, then again in
   order, so every edge arrives twice in both orientations.  Dense
   (n up to 80, p = 0.9, rows well past 32 entries): each edge 1–3
   times, each copy in a random orientation, all shuffled. *)
let builder_equals_of_graph =
  QCheck.Test.make ~name:"Builder over the edge list = of_graph" ~count:120
    QCheck.(triple bool small_int small_int)
    (fun (dense, seed, nn) ->
      let g, inserts =
        if not dense then begin
          let g = random_graph seed nn in
          let edges = Graph.edges g in
          (g, List.rev_map (fun (u, v) -> (v, u)) edges @ edges)
        end
        else begin
          let rng = Prng.create (Hashtbl.hash (seed, nn, "csr-dense")) in
          let g = Build.erdos_renyi rng (1 + (nn mod 80)) 0.9 in
          Build.random_weights rng g 9;
          let inserts =
            List.concat_map
              (fun (u, v) ->
                List.init (1 + Prng.int rng 3) (fun _ ->
                    if Prng.bool rng then (u, v) else (v, u)))
              (Graph.edges g)
            |> Array.of_list
          in
          Prng.shuffle rng inserts;
          (g, Array.to_list inserts)
        end
      in
      let b = Csr.Builder.create (Graph.n g) in
      List.iter (fun (u, v) -> Csr.Builder.add_edge b u v) inserts;
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
(* Adapter parity: run (the list form through [Fastpath.of_program]) ≡
   run_flat (the native kernel) *)

let trace_summary t =
  ( Congest.Trace.rounds t,
    Congest.Trace.total_messages t,
    Congest.Trace.total_bits t,
    Congest.Trace.digest t )

let run_both (type a) (prog : a Congest.Program.t)
    (fp : a Congest.Fastpath.t) g =
  let r1 = Congest.Runtime.run prog g in
  let r2 = Congest.Runtime.run_flat fp (Csr.of_graph g) in
  let same_results (a : a Congest.Runtime.result)
      (b : a Congest.Runtime.result) =
    a.Congest.Runtime.outputs = b.Congest.Runtime.outputs
    && a.Congest.Runtime.rounds_executed = b.Congest.Runtime.rounds_executed
    && a.Congest.Runtime.all_halted = b.Congest.Runtime.all_halted
    && trace_summary a.Congest.Runtime.trace
       = trace_summary b.Congest.Runtime.trace
  in
  same_results r1 r2

let flood_parity =
  QCheck.Test.make ~name:"flood: run = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_both
        (Congest.Algo_flood.max_id ~rounds:12)
        (Congest.Fastpath.max_id ~rounds:12)
        g)

let bfs_parity =
  QCheck.Test.make ~name:"bfs: run = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_both
        (Congest.Algo_bfs.distances ~root:0 ~rounds:12)
        (Congest.Fastpath.bfs_distances ~root:0 ~rounds:12)
        g)

let luby_parity =
  QCheck.Test.make ~name:"luby: run = run_flat (incl. PRNG draws)"
    ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_both Congest.Algo_luby.mis Congest.Fastpath.luby_mis g)

let greedy_parity =
  QCheck.Test.make ~name:"greedy: run = run_flat" ~count:60
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let g = random_graph seed nn in
      run_both Congest.Algo_greedy_mis.mis Congest.Fastpath.greedy_mis g)

(* ------------------------------------------------------------------ *)
(* Sharded executor parity: run_flat ~pool = run_flat at every pool
   width, cold and warm, for Full, Light and cut-metered traces. *)

let par_pools =
  lazy (List.map (fun jobs -> Exec.Pool.create ~jobs ()) [ 1; 2; 3; 8 ])

let run_par_matches (type a) ?config (fp : a Congest.Fastpath.t) g =
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
    let cold = Congest.Runtime.run_flat ?config ?pool fp c in
    (* Warm: same pool, buffers of the previous run already grown. *)
    let warm = Congest.Runtime.run_flat ?config ?pool fp c in
    let light =
      let tr = Congest.Trace.create ~mode:Congest.Trace.Light () in
      ignore (Congest.Runtime.run_flat ?config ~trace:tr ?pool fp c);
      Congest.Trace.digest tr
    in
    let cut =
      let tr = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
      ignore (Congest.Runtime.run_flat ?config ~trace:tr ?pool fp c);
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

let coloring_par_parity =
  QCheck.Test.make
    ~name:"coloring: run_flat_par = run_flat (incl. PRNG draws), jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches Congest.Algo_coloring.color_flat (random_graph seed nn))

let matching_par_parity =
  QCheck.Test.make
    ~name:"matching: run_flat_par = run_flat (incl. PRNG draws), jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches Congest.Algo_matching.maximal_matching_flat
        (random_graph seed nn))

(* Nodes outside the root's component never halt, so the run is capped;
   a 22-bit message needs a wider budget than the default. *)
let convergecast_par_parity =
  QCheck.Test.make
    ~name:"convergecast: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches
        ~config:
          {
            Congest.Runtime.default_config with
            Congest.Runtime.max_rounds = 100;
            bandwidth_factor = 32;
          }
        (Congest.Algo_convergecast.sum_of_weights_flat ~root:0 ~value_width:20)
        (random_graph seed nn))

let leader_par_parity =
  QCheck.Test.make
    ~name:"leader election: run_flat_par = run_flat, jobs in {1,2,3,8}"
    ~count:30
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      run_par_matches
        (Congest.Algo_flood.leader_election_flat ~rounds:12)
        (random_graph seed nn))

(* Model violations: every node sends one id-width word to each neighbor
   every round; node [bad_node] in round [bad_round] commits [fault]
   halfway through its sends, so the torn round's trace prefix holds
   whole shards, part of the failing node's row, and nothing after. *)
type violation = Oversend | Non_neighbor

let chatter ~fault ~bad_round ~bad_node : unit Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "chatter";
    kernel =
      (fun sh ->
        let width = Congest.Msg.id_width ~n:sh.F.n in
        let xadj = sh.F.xadj and adj = sh.F.adj in
        {
          F.step =
            (fun ~v ~round _ em ->
              let id = sh.F.base + v in
              let lo = xadj.(v) and deg = xadj.(v + 1) - xadj.(v) in
              for k = 0 to deg - 1 do
                if round = bad_round && id = bad_node && k = deg / 2 then
                  (match fault with
                  | Oversend ->
                      F.emit em ~dst:adj.(lo + k) ~tag:F.tag_int ~bits:10_000
                        ~word:0
                  | Non_neighbor ->
                      F.emit em ~dst:id ~tag:F.tag_int ~bits:width ~word:0);
                F.emit em ~dst:adj.(lo + k) ~tag:F.tag_int ~bits:width ~word:id
              done);
          halted = Bytes.make sh.F.slots '\000';
          output = (fun _ -> None);
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

(* A list program's [Msg.t] sends need the message store, which only
   the calling domain writes. *)
let list_sender = Congest.Fastpath.of_program (Congest.Algo_flood.max_id ~rounds:4)

let test_flat_rejects () =
  let c = Csr.of_graph (Build.path 4) in
  let fp = Congest.Fastpath.max_id ~rounds:4 in
  let rejects what ?alloc_probe ?pool fp =
    try
      ignore (Congest.Runtime.run_flat ?alloc_probe ?pool fp c);
      Alcotest.fail (what ^ " accepted")
    with Invalid_argument _ -> ()
  in
  Exec.Pool.with_pool ~jobs:2 (fun p ->
      rejects "short alloc_probe" ~alloc_probe:[| 0.0 |] ~pool:p fp;
      rejects "empty alloc_probe" ~alloc_probe:[||] fp;
      rejects "list program under a pool" ~pool:p list_sender);
  (* A kernel whose halted bytes do not cover n is refused before the
     run counts as one. *)
  let short_halted =
    {
      Congest.Fastpath.fname = "short_halted";
      kernel =
        (fun shape ->
          { (fp.Congest.Fastpath.kernel shape) with halted = Bytes.empty });
    }
  in
  let runs =
    Obs.Metrics.counter ~labels:[ ("algo", "short_halted") ] "congest_runs_total"
  in
  let before = Obs.Metrics.value runs in
  rejects "0 halted bytes for 4 nodes" short_halted;
  Alcotest.(check int) "rejected run not counted" before (Obs.Metrics.value runs);
  (* A malformed registered cut is refused by name before round 0, so
     nothing is traced: a cut shorter than n, and a negative side. *)
  let c6 = Csr.of_graph (Build.cycle 6) in
  let named what ~prefix f =
    match f () with
    | () -> Alcotest.fail (what ^ " accepted")
    | exception Invalid_argument m ->
        if not (String.starts_with ~prefix m) then
          Alcotest.failf "%s: %S does not come from %s" what m prefix
  in
  let short = Congest.Trace.create ~cut:[| 0; 1 |] () in
  named "2-entry cut on a 6-cycle" ~prefix:"Runtime.run_flat" (fun () ->
      ignore (Congest.Runtime.run_flat ~trace:short fp c6));
  Alcotest.(check int) "nothing traced" 0 (Congest.Trace.total_messages short);
  named "cut with side -1" ~prefix:"Trace.create" (fun () ->
      let trace = Congest.Trace.create ~cut:[| 0; 1; -1; 0; 1; 0 |] () in
      ignore (Congest.Runtime.run_flat ~trace fp c6))

(* Declared message widths are enforced at emit: every node sends one
   [tag_int] word of [bits] bits to each neighbour in round 0.  A word
   that needs more bits than declared, or a negative one, raises
   [Invalid_argument] on the flat executor with and without a pool and
   on the derived list-mode program; one that fits exactly runs. *)
let sender ?(row = false) ~bits ~word () : unit Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "sender";
    kernel =
      (fun sh ->
        let halted = Bytes.make sh.F.slots '\000' in
        {
          F.step =
            (fun ~v ~round:_ _ em ->
              if row then F.emit_row em ~tag:F.tag_int ~bits ~word
              else
                for r = sh.F.xadj.(v) to sh.F.xadj.(v + 1) - 1 do
                  F.emit em ~dst:sh.F.adj.(r) ~tag:F.tag_int ~bits ~word
                done;
              Bytes.set halted v '\001');
          halted;
          output = (fun _ -> None);
        });
  }

(* Run [fp] on [g] with no pool, on a 2-pool and in list mode; each
   outcome is [None] or the exception the run raised. *)
let engine_outcomes (fp : unit Congest.Fastpath.t) g =
  let c = Csr.of_graph g in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      [
        ("no pool", fun () -> ignore (Congest.Runtime.run_flat fp c));
        ("jobs=2", fun () -> ignore (Congest.Runtime.run_flat ~pool fp c));
        ( "list",
          fun () ->
            ignore (Congest.Runtime.run (Congest.Fastpath.to_program fp) g) );
      ]
      |> List.map (fun (what, run) ->
             (what, match run () with () -> None | exception e -> Some e)))

let check_widths ~row =
  let g = Build.cycle 6 in
  let engines fp = engine_outcomes fp g in
  let sender ~bits ~word = sender ~row ~bits ~word () in
  List.iter
    (fun (bits, word) ->
      List.iter
        (fun (what, outcome) ->
          match outcome with
          | Some (Invalid_argument _) -> ()
          | _ ->
              Alcotest.failf "%s: %d-bit send of %d not rejected" what bits
                word)
        (engines (sender ~bits ~word)))
    [ (3, 8); (1, 2); (3, -1); (0, 1); (61, 1 lsl 61) ];
  List.iter
    (fun (bits, word) ->
      List.iter
        (fun (what, outcome) ->
          if outcome <> None then
            Alcotest.failf "%s: %d-bit send of %d rejected" what bits word)
        (engines (sender ~bits ~word)))
    [ (3, 7); (1, 0); (2, 3) ]

let test_emit_width () = check_widths ~row:false

(* ------------------------------------------------------------------ *)
(* Row sends: one [emit_row] is the per-edge [emit] loop over the row,
   on every engine, in every observable. *)

let raises_invalid what = function
  | Some (Invalid_argument _) -> ()
  | Some e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)
  | None -> Alcotest.failf "%s: not rejected" what

let test_emit_row_width () = check_widths ~row:true

(* Sends the same message to every neighbour, either as one row or as
   the point-send loop over the row, varying tag, width and silence by
   (node, round); the output folds the inbox in delivery order, so any
   difference in who hears what, or in what order, shows. *)
let twin ~row : int Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "twin";
    kernel =
      (fun sh ->
        let xadj = sh.F.xadj and adj = sh.F.adj in
        let acc = Array.make sh.F.slots 0 in
        let halted = Bytes.make sh.F.slots '\000' in
        let send em v ~tag ~bits ~word =
          if row then F.emit_row em ~tag ~bits ~word
          else
            for r = xadj.(v) to xadj.(v + 1) - 1 do
              F.emit em ~dst:adj.(r) ~tag ~bits ~word
            done
        in
        let step ~v ~round inbox em =
          for k = 0 to F.in_len inbox - 1 do
            acc.(v) <-
              ((acc.(v) * 31) + (7 * F.in_src inbox k) + (3 * F.in_tag inbox k)
              + F.in_word inbox k)
              land 0xffffff
          done;
          let id = sh.F.base + v in
          (match (id + round) mod 4 with
          | 0 -> ()
          | 1 -> send em v ~tag:F.tag_true ~bits:1 ~word:0
          | 2 -> send em v ~tag:F.tag_false ~bits:1 ~word:0
          | _ ->
              let bits = 1 + ((id + round) mod 6) in
              send em v ~tag:F.tag_int ~bits
                ~word:(((13 * id) + round) land ((1 lsl bits) - 1)));
          if round >= 7 || (id mod 5 = 0 && round >= 3) then
            Bytes.set halted v '\001'
        in
        { F.step; halted; output = (fun v -> Some acc.(v)) });
  }

let cut_of n =
  let rng = Prng.create (Hashtbl.hash (n, "row-cut")) in
  Array.init n (fun _ -> Prng.int rng 2)

type 'a engine =
  'a Congest.Fastpath.t -> Congest.Trace.t -> 'a Congest.Runtime.result

(* Every engine a flat program runs on: no pool, each test pool, and
   list mode through [to_program]. *)
let engines_of g : (string * 'a engine) list =
  let c = Csr.of_graph g in
  (("no pool", fun fp trace -> Congest.Runtime.run_flat ~trace fp c)
  :: List.map
       (fun pool ->
         ( Printf.sprintf "jobs=%d" (Exec.Pool.jobs pool),
           fun fp trace -> Congest.Runtime.run_flat ~trace ~pool fp c ))
       (Lazy.force par_pools))
  @ [
      ( "list",
        fun fp trace ->
          Congest.Runtime.run ~trace (Congest.Fastpath.to_program fp) g );
    ]

(* Everything a run shows: rounds, messages, bits, the Light digest,
   cut bits (total, by side, by round) on [part], the Light and Full
   digests without a cut, and the outputs. *)
let fingerprint part run fp =
  let light = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
  let r = run fp light in
  let digest_of trace =
    ignore (run fp trace);
    Congest.Trace.digest trace
  in
  ( ( r.Congest.Runtime.rounds_executed,
      Congest.Trace.total_messages light,
      Congest.Trace.total_bits light,
      Congest.Trace.digest light ),
    ( Congest.Trace.cut_bits light part,
      Congest.Trace.cut_bits_by_side light part,
      Congest.Trace.cut_bits_by_round light part ),
    ( digest_of (Congest.Trace.create ~mode:Congest.Trace.Light ()),
      digest_of (Congest.Trace.create ()) ),
    r.Congest.Runtime.outputs )

(* [variant ~row] on every engine has the fingerprint of
   [variant ~row:false] without a pool, which sends something on any
   graph with an edge. *)
let twin_parity variant (seed, nn) =
  let g = random_graph seed nn in
  let part = cut_of (Graph.n g) in
  let engines = engines_of g in
  let reference =
    fingerprint part (List.assoc "no pool" engines) (variant ~row:false)
  in
  let (_, msgs, _, _), _, _, _ = reference in
  (Graph.edge_count g = 0 || msgs > 0)
  && List.for_all
       (fun (_, run) ->
         fingerprint part run (variant ~row:true) = reference
         && fingerprint part run (variant ~row:false) = reference)
       engines

let row_twin_parity =
  QCheck.Test.make ~name:"emit_row = point twin on every engine" ~count:40
    QCheck.(pair small_int small_int)
    (twin_parity twin)

(* Picks row or point sends per (id, round), so a run's rounds are
   row-only (twice in a row), mixed, point-only, silent, and row-only
   from a single sender in turn ([shift] rotates the order): how the
   executor delivers a round changes from round to round — dense
   row-only rounds are pulled, all others merged — and after a mixed
   round one inbox holds messages of both kinds.  In a mixed round the
   odd ids send their own point words to every other row neighbour;
   everyone else sends one message to the whole row, as a row unless
   [row] is false or the round is point-only.  Some nodes are silent in
   every round. *)
let seam ~shift ~row : int Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "seam";
    kernel =
      (fun sh ->
        let xadj = sh.F.xadj and adj = sh.F.adj in
        let acc = Array.make sh.F.slots 0 in
        let halted = Bytes.make sh.F.slots '\000' in
        let step ~v ~round inbox em =
          for k = 0 to F.in_len inbox - 1 do
            acc.(v) <-
              ((acc.(v) * 31) + (7 * F.in_src inbox k) + (3 * F.in_tag inbox k)
              + F.in_word inbox k)
              land 0xffffff
          done;
          let id = sh.F.base + v in
          let lo = xadj.(v) and hi = xadj.(v + 1) in
          (* At most 4 bits, within the budget of any graph. *)
          let width = 1 + ((id + round) mod 4) in
          let mask = (1 lsl width) - 1 in
          let tag =
            [| F.tag_int; F.tag_true; F.tag_false |].((id + round) mod 3)
          in
          let word =
            if tag = F.tag_int then ((13 * id) + round) land mask else 0
          in
          let bits = if tag = F.tag_int then width else 1 in
          (* 0, 1: row-only; 2: mixed; 3: point-only; 4: nobody sends;
             5: one node sends. *)
          match (round + shift) mod 6 with
          | 4 -> ()
          | 5 when id <> round mod sh.F.n -> ()
          | (0 | 1 | 2 | 3) when (id + (2 * round)) mod 4 = 0 -> ()
          | 2 when id mod 2 = 1 ->
              for r = lo to hi - 1 do
                if (r - lo) mod 2 = 0 then
                  F.emit em ~dst:adj.(r) ~tag:F.tag_int ~bits:width
                    ~word:(adj.(r) land mask)
              done
          | cls when row && cls <> 3 -> F.emit_row em ~tag ~bits ~word
          | _ ->
              for r = lo to hi - 1 do
                F.emit em ~dst:adj.(r) ~tag ~bits ~word
              done
        in
        let step ~v ~round inbox em =
          step ~v ~round inbox em;
          let id = sh.F.base + v in
          if round >= 11 || (id mod 5 = 0 && round >= 6) then
            Bytes.set halted v '\001'
        in
        { F.step; halted; output = (fun v -> Some acc.(v)) });
  }

let row_seam_parity =
  QCheck.Test.make ~name:"row/mixed/point rounds = point twin" ~count:40
    QCheck.(pair small_int small_int)
    (fun (seed, nn) -> twin_parity (seam ~shift:(seed mod 6)) (seed, nn))

(* Every node sends its id to every neighbour each round; [bad_node]
   instead sends [bits] bits in [bad_round]. *)
let row_chatter ~row ~bits ~bad_round ~bad_node : unit Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "row-chatter";
    kernel =
      (fun sh ->
        let width = Congest.Msg.id_width ~n:sh.F.n in
        let xadj = sh.F.xadj and adj = sh.F.adj in
        {
          F.step =
            (fun ~v ~round _ em ->
              let id = sh.F.base + v in
              let bits, word =
                if round = bad_round && id = bad_node then (bits, 0)
                else (width, id)
              in
              if row then F.emit_row em ~tag:F.tag_int ~bits ~word
              else
                for r = xadj.(v) to xadj.(v + 1) - 1 do
                  F.emit em ~dst:adj.(r) ~tag:F.tag_int ~bits ~word
                done);
          halted = Bytes.make sh.F.slots '\000';
          output = (fun _ -> None);
        });
  }

(* An over-budget row fails exactly as the per-edge sends do: same
   round, sender, first neighbour and bits, same trace prefix (none of
   the failing row), through [run_flat_checked] at every width and
   [run_checked] in list mode.  A row of exactly the budget runs. *)
let test_row_oversend () =
  let c = chorded_cycle 29 in
  let g = Csr.to_graph c in
  let n = Csr.n c in
  let part = cut_of n in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = 6 }
  in
  let limit = Congest.Runtime.bandwidth_bits config ~n in
  let checked_engines =
    (("no pool", fun fp trace ->
       Congest.Runtime.run_flat_checked ~config ~trace fp c)
    :: List.map
         (fun pool ->
           ( Printf.sprintf "jobs=%d" (Exec.Pool.jobs pool),
             fun fp trace ->
               Congest.Runtime.run_flat_checked ~config ~trace ~pool fp c ))
         (Lazy.force par_pools))
    @ [
        ( "list",
          fun fp trace ->
            Congest.Runtime.run_checked ~config ~trace
              (Congest.Fastpath.to_program fp) g );
      ]
  in
  let failure run fp =
    let outcome mode =
      let trace = Congest.Trace.create ~mode ~cut:part () in
      match run fp trace with
      | Ok _ -> None
      | Error f -> Some f
    in
    match (outcome Congest.Trace.Full, outcome Congest.Trace.Light) with
    | Some full, Some light ->
        let tr = full.Congest.Runtime.trace_prefix
        and lt = light.Congest.Runtime.trace_prefix in
        Some
          ( (full.Congest.Runtime.round, full.Congest.Runtime.src,
             full.Congest.Runtime.reason),
            Congest.Trace.send_events tr,
            ( Congest.Trace.total_messages lt,
              Congest.Trace.total_bits lt,
              Congest.Trace.digest lt,
              Congest.Trace.cut_bits lt part ) )
    | None, None -> None
    | _ -> Alcotest.fail "Full and Light traces disagree on failing"
  in
  List.iter
    (fun (bad_round, bad_node) ->
      let reference =
        failure (List.assoc "no pool" checked_engines)
          (row_chatter ~row:false ~bits:(limit + 1) ~bad_round ~bad_node)
      in
      (match reference with
      | Some ((round, src, Congest.Runtime.Oversend { dst; bits; _ }), _, _) ->
          check_int "failing round" bad_round round;
          check_int "failing node" bad_node src;
          let xadj, adj = Csr.rows c in
          check_int "first row neighbour" adj.(xadj.(bad_node)) dst;
          check_int "bits" (limit + 1) bits
      | _ -> Alcotest.fail "point oversend not reported");
      List.iter
        (fun (what, run) ->
          List.iter
            (fun row ->
              check
                (Printf.sprintf "%s, row=%b: same failure and prefix" what row)
                true
                (failure run
                   (row_chatter ~row ~bits:(limit + 1) ~bad_round ~bad_node)
                = reference);
              check
                (Printf.sprintf "%s, row=%b: a full-budget send runs" what row)
                true
                (failure run (row_chatter ~row ~bits:limit ~bad_round ~bad_node)
                = None))
            [ true; false ])
        checked_engines)
    [ (0, 0); (2, 14); (3, 28) ]

(* A round is one row or any number of point sends: node 0 breaks that
   in round 0, in [order], and every engine raises [Invalid_argument]
   from the emitter.  The row flag is no [dst] sentinel: a point send to
   -1 is still an illegal recipient. *)
let test_row_mixing () =
  let module F = Congest.Fastpath in
  let g = Build.cycle 6 in
  let mixer order : unit F.t =
    {
      F.fname = "mixer";
      kernel =
        (fun sh ->
          let adj = sh.F.adj and xadj = sh.F.xadj in
          let halted = Bytes.make sh.F.slots '\000' in
          {
            F.step =
              (fun ~v ~round:_ _ em ->
                let point () =
                  F.emit em ~dst:adj.(xadj.(v)) ~tag:F.tag_true ~bits:1 ~word:0
                and row () = F.emit_row em ~tag:F.tag_true ~bits:1 ~word:0 in
                if sh.F.base + v = 0 then List.iter (fun f -> f ()) (order ~point ~row)
                else row ();
                Bytes.set halted v '\001');
            halted;
            output = (fun _ -> None);
          });
    }
  in
  List.iter
    (fun (name, order) ->
      List.iter
        (fun (what, outcome) -> raises_invalid (name ^ ", " ^ what) outcome)
        (engine_outcomes (mixer order) g))
    [
      ("point then row", fun ~point ~row -> [ point; row ]);
      ("row then point", fun ~point ~row -> [ row; point ]);
      ("two rows", fun ~point:_ ~row -> [ row; row ]);
      ("points then row", fun ~point ~row -> [ point; point; row ]);
    ];
  let c = Csr.of_graph g in
  let minus_one : unit F.t =
    {
      F.fname = "minus-one";
      kernel =
        (fun sh ->
          {
            F.step =
              (fun ~v ~round:_ _ em ->
                if sh.F.base + v = 0 then
                  F.emit em ~dst:(-1) ~tag:F.tag_true ~bits:1 ~word:0);
            halted = Bytes.make sh.F.slots '\000';
            output = (fun _ -> None);
          });
    }
  in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun pool ->
          match Congest.Runtime.run_flat_checked ?pool minus_one c with
          | Error { Congest.Runtime.reason = Non_neighbor { dst = -1 }; _ } -> ()
          | _ -> Alcotest.fail "emit ~dst:(-1) is not an illegal recipient")
        [ None; Some pool ])

(* A degree-0 node's row sends nothing and charges nothing, even when
   its size is over budget; the rest of the graph is unaffected. *)
let test_row_degree_zero () =
  let module F = Congest.Fastpath in
  let rows : unit F.t =
    {
      F.fname = "rows";
      kernel =
        (fun sh ->
          let width = Congest.Msg.id_width ~n:sh.F.n in
          let halted = Bytes.make sh.F.slots '\000' in
          {
            F.step =
              (fun ~v ~round _ em ->
                let lonely = sh.F.xadj.(v + 1) = sh.F.xadj.(v) in
                F.emit_row em ~tag:F.tag_int
                  ~bits:(if lonely then 10_000 else width)
                  ~word:0;
                if round = 2 then Bytes.set halted v '\001');
            halted;
            output = (fun _ -> None);
          });
    }
  in
  let path_plus_isolated =
    let g = Graph.create 6 in
    Graph.add_edge g 0 1;
    Graph.add_edge g 1 2;
    g
  in
  List.iter
    (fun (g, msgs) ->
      let width = Congest.Msg.id_width ~n:(Graph.n g) in
      List.iter
        (fun (what, run) ->
          let trace = Congest.Trace.create () in
          let r = run rows trace in
          check_int (what ^ ": rounds") 3 r.Congest.Runtime.rounds_executed;
          check_int (what ^ ": messages") msgs
            (Congest.Trace.total_messages trace);
          check_int (what ^ ": bits") (msgs * width)
            (Congest.Trace.total_bits trace))
        (engines_of g))
    [ (path_plus_isolated, 3 * 4); (Graph.create 4, 0) ]

(* Negative sizes are rejected at the send, on every engine: a flat
   kernel sending [limit], [-limit] and [limit] bits to one neighbour
   would otherwise ship 2·limit bits over one edge-round unnoticed, and
   a list program's negative [Msg.t] would be traced before anything
   objected. *)
let test_negative_bits () =
  let module F = Congest.Fastpath in
  let g = Build.cycle 6 in
  let limit =
    Congest.Runtime.bandwidth_bits Congest.Runtime.default_config ~n:6
  in
  let seesaw : unit F.t =
    {
      F.fname = "seesaw";
      kernel =
        (fun sh ->
          let halted = Bytes.make sh.F.slots '\000' in
          {
            F.step =
              (fun ~v ~round:_ _ em ->
                if sh.F.base + v = 0 then
                  List.iter
                    (fun bits ->
                      F.emit em ~dst:sh.F.adj.(sh.F.xadj.(v)) ~tag:F.tag_true
                        ~bits ~word:0)
                    [ limit; -limit; limit ];
                Bytes.set halted v '\001');
            halted;
            output = (fun _ -> None);
          });
    }
  in
  List.iter
    (fun (name, fp) ->
      List.iter
        (fun (what, outcome) -> raises_invalid (name ^ ", " ^ what) outcome)
        (engine_outcomes fp g))
    [
      ("emit", seesaw);
      ("emit_row", sender ~row:true ~bits:(-1) ~word:0 ());
      ("tag_int emit", sender ~bits:(-2) ~word:0 ());
    ];
  let negative : unit Congest.Program.t =
    {
      Congest.Program.name = "negative";
      spawn =
        (fun view ->
          {
            Congest.Program.step =
              (fun ~round:_ ~inbox:_ ->
                if view.Congest.Program.id = 0 then
                  [ (view.Congest.Program.neighbors.(0),
                     { Congest.Msg.bits = -3; payload = Congest.Msg.Unit }) ]
                else []);
            halted = (fun () -> false);
            output = (fun () -> None);
          });
    }
  in
  let trace = Congest.Trace.create () in
  (match Congest.Runtime.run ~trace negative g with
  | _ -> Alcotest.fail "list mode accepted a negative-size message"
  | exception Invalid_argument _ -> ());
  check_int "nothing traced" 0 (Congest.Trace.total_messages trace)

(* The [run_flat_par] alias rejects what [run_flat ~pool] rejects. *)
let test_par_rejects () =
  let c = Csr.of_graph (Build.path 4) in
  let fp = Congest.Fastpath.max_id ~rounds:4 in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let rejects what ?alloc_probe fp =
        try
          ignore (Congest.Runtime.run_flat_par ?alloc_probe ~pool fp c);
          Alcotest.fail (what ^ " accepted")
        with Invalid_argument _ -> ()
      in
      rejects "short alloc_probe" ~alloc_probe:[| 0.0 |] fp;
      rejects "list program" list_sender)

(* ------------------------------------------------------------------ *)
(* Pinned sweep on sparse random graphs at n = 10³ and 10⁴: every node
   draws three partners, self-draws skipped, so the degree is 3–6 in
   expectation and m ≈ 3n (the edge rule perfbench's sparse-sweep scales
   to n = 10⁵).  Counts come from a Light trace. *)

let sparse_csr n =
  let rng = Prng.create (Hashtbl.hash (Printf.sprintf "largen-graph-%d" n)) in
  let b = Csr.Builder.create n in
  for v = 0 to n - 1 do
    for _ = 1 to 3 do
      let u = Prng.int rng n in
      if u <> v then Csr.Builder.add_edge b v u
    done
  done;
  Csr.Builder.finish b

let sweep_rounds = 16
let luby_rounds = Congest.Runtime.default_config.Congest.Runtime.max_rounds

let config rounds =
  { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }

let light_run ?pool ~rounds fp c =
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
  let r = Congest.Runtime.run_flat ~config:(config rounds) ~trace ?pool fp c in
  (r, trace)

(* (rounds, messages, bits) of flood, BFS from node 0 and Luby, then
   Luby's |MIS|. *)
let sweep_pins =
  [
    ( 1_000,
      ((16, 27_278, 272_780), (16, 5_982, 59_820), (9, 13_486, 156_062), 295) );
    ( 10_000,
      ( (16, 342_612, 4_796_568),
        (16, 59_982, 839_748),
        (12, 137_745, 2_237_346),
        3013 ) );
  ]

let test_sweep_counts () =
  List.iter
    (fun (n, (flood, bfs, luby, mis)) ->
      let c = sparse_csr n in
      let counts algo ((r : _ Congest.Runtime.result), tr)
          (rounds, messages, bits) =
        let what = Printf.sprintf "n=%d %s" n algo in
        check_int (what ^ " rounds") rounds r.Congest.Runtime.rounds_executed;
        check_int (what ^ " messages") messages
          (Congest.Trace.total_messages tr);
        check_int (what ^ " bits") bits (Congest.Trace.total_bits tr);
        check (what ^ " halted") true r.Congest.Runtime.all_halted
      in
      counts "flood"
        (light_run ~rounds:sweep_rounds
           (Congest.Fastpath.max_id ~rounds:sweep_rounds)
           c)
        flood;
      counts "bfs"
        (light_run ~rounds:sweep_rounds
           (Congest.Fastpath.bfs_distances ~root:0 ~rounds:sweep_rounds)
           c)
        bfs;
      let ((r, _) as run) =
        light_run ~rounds:luby_rounds Congest.Fastpath.luby_mis c
      in
      counts "luby" run luby;
      check_int
        (Printf.sprintf "n=%d |MIS|" n)
        mis
        (Array.fold_left
           (fun acc o -> if o = Some true then acc + 1 else acc)
           0 r.Congest.Runtime.outputs))
    sweep_pins

(* At n = 10⁴, pools of width 1, 2, 4 and 8 reproduce the no-pool run's
   outputs, rounds and Light digest. *)
let test_sweep_widths () =
  let c = sparse_csr 10_000 in
  let algo (type a) name ~rounds (fp : a Congest.Fastpath.t) =
    let seq, seq_tr = light_run ~rounds fp c in
    fun pool ->
      let par, par_tr = light_run ~pool ~rounds fp c in
      let what = Printf.sprintf "%s jobs=%d" name (Exec.Pool.jobs pool) in
      check (what ^ " outputs") true
        (par.Congest.Runtime.outputs = seq.Congest.Runtime.outputs);
      check_int (what ^ " rounds") seq.Congest.Runtime.rounds_executed
        par.Congest.Runtime.rounds_executed;
      check (what ^ " digest") true
        (Congest.Trace.digest par_tr = Congest.Trace.digest seq_tr)
  in
  let algos =
    [
      algo "flood" ~rounds:sweep_rounds
        (Congest.Fastpath.max_id ~rounds:sweep_rounds);
      algo "bfs" ~rounds:sweep_rounds
        (Congest.Fastpath.bfs_distances ~root:0 ~rounds:sweep_rounds);
      algo "luby" ~rounds:luby_rounds Congest.Fastpath.luby_mis;
    ]
  in
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool -> List.iter (fun k -> k pool) algos))
    [ 1; 2; 4; 8 ]

(* At n = 10⁴, list mode on the same graph floods to the flat run's
   outputs, rounds, messages and bits. *)
let test_sweep_list_flood () =
  let c = sparse_csr 10_000 in
  let flat, flat_tr =
    light_run ~rounds:sweep_rounds
      (Congest.Fastpath.max_id ~rounds:sweep_rounds)
      c
  in
  let list =
    Congest.Runtime.run ~config:(config sweep_rounds)
      (Congest.Algo_flood.max_id ~rounds:sweep_rounds)
      (Csr.to_graph c)
  in
  let list_tr = list.Congest.Runtime.trace in
  check "outputs" true
    (list.Congest.Runtime.outputs = flat.Congest.Runtime.outputs);
  check_int "rounds" flat.Congest.Runtime.rounds_executed
    list.Congest.Runtime.rounds_executed;
  check_int "messages"
    (Congest.Trace.total_messages flat_tr)
    (Congest.Trace.total_messages list_tr);
  check_int "bits"
    (Congest.Trace.total_bits flat_tr)
    (Congest.Trace.total_bits list_tr)

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
  check "partitions equal" true (part = part')

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
  check "weights" true !ok

(* The linear gadget at α = 1, t = 2 and ℓ = 19, the largest ℓ with at
   most 10³ nodes: the CSR build equals the bitset path edge for edge,
   and a 4-round flood with the player cut registered is pinned. *)
let test_linear_gadget_1000 () =
  let module P = Maxis_core.Params in
  let module LF = Maxis_core.Linear_family in
  let p = P.make ~alpha:1 ~ell:19 ~players:2 in
  check "ell = 20 exceeds 1000 nodes" true
    (LF.n_nodes (P.make ~alpha:1 ~ell:20 ~players:2) > 1_000);
  let fixed, part = LF.fixed_csr p in
  check_int "nodes" 960 (Csr.n fixed);
  check_int "edges" 38_220 (Csr.edge_count fixed);
  check "fixed_csr = of_graph fixed" true
    (Csr.equal fixed (Csr.of_graph (fst (LF.fixed p))));
  check_int "expected cut size" 10_120 (LF.expected_cut_size p);
  let x =
    Commcx.Inputs.gen_promise
      (Prng.create (Hashtbl.hash "largen-gadget-1000"))
      ~k:(P.k p) ~t:2 ~intersecting:true
  in
  let inst, _ = LF.instance_csr p x in
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
  ignore
    (Congest.Runtime.run_flat ~config:(config 4) ~trace
       (Congest.Fastpath.max_id ~rounds:4)
       inst);
  check_int "cut bits" 597_080 (Congest.Trace.cut_bits trace part)

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
          coloring_par_parity;
          matching_par_parity;
          convergecast_par_parity;
          leader_par_parity;
          chunk_bounds_partition;
        ];
      ( "executors-edge",
        [
          Alcotest.test_case "run_flat rejects" `Quick test_flat_rejects;
          Alcotest.test_case "run_flat_par rejects" `Quick test_par_rejects;
          Alcotest.test_case "violations: pool = no pool" `Quick
            test_violation_parity;
          Alcotest.test_case "emit enforces declared widths" `Quick
            test_emit_width;
          Alcotest.test_case "negative sizes rejected" `Quick
            test_negative_bits;
        ] );
      (* Group names stay within the 14 characters of "executors-edge":
         a longer one would widen alcotest's name column and change how
         every existing case name prints. *)
      ( "executors-row",
        [
          QCheck_alcotest.to_alcotest row_twin_parity;
          QCheck_alcotest.to_alcotest row_seam_parity;
          Alcotest.test_case "row oversend = per-edge oversend" `Quick
            test_row_oversend;
          Alcotest.test_case "row and point sends do not mix" `Quick
            test_row_mixing;
          Alcotest.test_case "emit_row enforces declared widths" `Quick
            test_emit_row_width;
          Alcotest.test_case "degree-0 row is a no-op" `Quick
            test_row_degree_zero;
        ] );
      ( "executors-10k",
        [
          Alcotest.test_case "pinned counts at n = 10^3, 10^4" `Quick
            test_sweep_counts;
          Alcotest.test_case "jobs 1,2,4,8 = no pool at n = 10^4" `Quick
            test_sweep_widths;
          Alcotest.test_case "list flood = flat flood at n = 10^4" `Quick
            test_sweep_list_flood;
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
          Alcotest.test_case "linear ell=19 pinned" `Quick
            test_linear_gadget_1000;
        ] );
    ]
