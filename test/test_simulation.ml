(* Tests for the Theorem 5 simulation: any CONGEST run's cross-partition
   traffic is bounded by rounds x cut x bandwidth, and the end-to-end
   reduction decides promise pairwise disjointness. *)

module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module Family = Maxis_core.Family
module Simulation = Maxis_core.Simulation
module Inputs = Commcx.Inputs
module Runtime = Congest.Runtime
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p2 = P.make ~alpha:1 ~ell:4 ~players:2
let p3 = P.make ~alpha:1 ~ell:4 ~players:3

let instance seed p ~intersecting =
  let rng = Prng.create seed in
  let x = Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players ~intersecting in
  (LF.instance p x, x)

(* ------------------------------------------------------------------ *)
(* Generic simulation bounds *)

let test_simulate_flood_within_bound () =
  let inst, _ = instance 3 p3 ~intersecting:true in
  let n = Wgraph.Graph.n inst.Family.graph in
  let _, report = Simulation.simulate (Congest.Algo_flood.max_id ~rounds:n) inst in
  check "within" true report.Simulation.within_bound;
  check_int "cut matches family" (LF.expected_cut_size p3) report.Simulation.cut_size;
  check "some cut traffic" true (report.Simulation.blackboard_bits > 0);
  check "cut traffic < total" true
    (report.Simulation.blackboard_bits <= report.Simulation.total_bits)

let test_simulate_luby_within_bound () =
  let inst, _ = instance 5 p3 ~intersecting:false in
  let _, report = Simulation.simulate Congest.Algo_luby.mis inst in
  check "within" true report.Simulation.within_bound

let test_simulate_gather_within_bound () =
  let inst, _ = instance 7 p2 ~intersecting:true in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  let result, report =
    Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst
  in
  check "halted" true result.Runtime.all_halted;
  check "within" true report.Simulation.within_bound;
  (* gathering everything must push many bits across the cut *)
  check "heavy cut traffic" true (report.Simulation.blackboard_bits > 1000)

let test_report_bound_formula () =
  let inst, _ = instance 11 p2 ~intersecting:false in
  let _, report = Simulation.simulate (Congest.Algo_flood.max_id ~rounds:5) inst in
  check_int "bound = rounds * 2cut * B"
    (report.Simulation.rounds * 2 * report.Simulation.cut_size
   * report.Simulation.bandwidth)
    report.Simulation.bound_bits

(* ------------------------------------------------------------------ *)
(* End-to-end reduction: CONGEST algorithm decides disjointness *)

let test_decide_disjointness_both_sides () =
  List.iter
    (fun intersecting ->
      let inst, x = instance 13 p3 ~intersecting in
      let d =
        Simulation.decide_disjointness inst ~predicate:(LF.predicate p3)
      in
      let expected = Commcx.Functions.promise_pairwise_disjointness x in
      Alcotest.(check (option bool))
        (Printf.sprintf "answer (intersecting=%b)" intersecting)
        (Some expected) d.Simulation.answer;
      check "within bound" true d.Simulation.report.Simulation.within_bound)
    [ true; false ]

let test_decide_disjointness_exhaustive_t2_singletons () =
  (* Full truth table over singleton inputs at t=2. *)
  let p = p2 in
  for a = 0 to P.k p - 1 do
    for b = 0 to min 2 (P.k p - 1) do
      let x = Inputs.of_bit_lists ~k:(P.k p) [ [ a ]; [ b ] ] in
      let inst = LF.instance p x in
      let d = Simulation.decide_disjointness inst ~predicate:(LF.predicate p) in
      Alcotest.(check (option bool))
        (Printf.sprintf "a=%d b=%d" a b)
        (Some (a <> b)) d.Simulation.answer
    done
  done

let test_decide_raises_when_truncated () =
  let inst, _ = instance 17 p2 ~intersecting:true in
  let config = { Runtime.default_config with Runtime.max_rounds = 3 } in
  check "raises" true
    (try
       ignore
         (Simulation.decide_disjointness ~config inst ~predicate:(LF.predicate p2));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Decisions meter the registered player cut on a Light trace, with or
   without a pool; [simulate] folds a Full log and is the oracle for
   every field. *)

let report_fields (r : Simulation.report) =
  [
    ("n", r.Simulation.n);
    ("rounds", r.Simulation.rounds);
    ("cut_size", r.Simulation.cut_size);
    ("bandwidth", r.Simulation.bandwidth);
    ("blackboard_bits", r.Simulation.blackboard_bits);
    ("blackboard_writes", r.Simulation.blackboard_writes);
    ("blackboard_bits_dropped", r.Simulation.blackboard_bits_dropped);
    ("blackboard_bits_delivered", r.Simulation.blackboard_bits_delivered);
    ("bound_bits", r.Simulation.bound_bits);
    ("within_bound", Bool.to_int r.Simulation.within_bound);
    ("total_bits", r.Simulation.total_bits);
    ("faults_injected", r.Simulation.faults_injected);
  ]

let check_report label ~(expected : Simulation.report) (got : Simulation.report) =
  Alcotest.(check string) (label ^ ": algorithm") expected.Simulation.algorithm
    got.Simulation.algorithm;
  Alcotest.(check (list (pair string int)))
    (label ^ ": report") (report_fields expected) (report_fields got)

(* Report fields do not depend on the predicate; ℓ = 3, t = 3 has no
   linear gap (low = high), so it decides against a placeholder. *)
let oracle_predicate p =
  try LF.predicate p
  with Invalid_argument _ ->
    Maxis_core.Predicate.make ~name:"reports only" ~high:1 ~low:0

(* ℓ ∈ {3, 4} × t ∈ {2, 3} × both promise sides; two seeds at t = 2. *)
let oracle_instances () =
  List.concat_map
    (fun (ell, players, seeds) ->
      let p = P.make ~alpha:1 ~ell ~players in
      List.concat_map
        (fun seed ->
          List.map
            (fun intersecting ->
              let inst, _ = instance seed p ~intersecting in
              ( Printf.sprintf "l=%d t=%d seed=%d inter=%b" ell players seed
                  intersecting,
                p,
                inst ))
            [ true; false ])
        seeds)
    [ (3, 2, [ 41; 43 ]); (4, 2, [ 41; 43 ]); (3, 3, [ 47 ]); (4, 3, [ 47 ]) ]

let widths pool = [ ("no pool", None); ("jobs=2", Some pool) ]

let oracle_report ?config inst =
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  snd (Simulation.simulate ?config (Congest.Algo_gather.exact_maxis ~m) inst)

let test_decision_reports_match_oracle () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (label, p, inst) ->
          let expected = oracle_report inst in
          List.iter
            (fun (width, pool) ->
              let d =
                Simulation.decide_disjointness ?pool inst
                  ~predicate:(oracle_predicate p)
              in
              check_report (label ^ " " ^ width) ~expected
                d.Simulation.report)
            (widths pool))
        (oracle_instances ()))

let fault_config =
  {
    Runtime.default_config with
    Runtime.faults =
      Some
        (Congest.Faults.plan
           ~default:(Congest.Faults.link ~drop:0.001 ())
           7);
  }

(* The ℓ = 3 instances suffice to pin the Light fault metering. *)
let test_decision_fault_reports_match_oracle () =
  let config = fault_config in
  List.iter
    (fun (label, p, inst) ->
      let expected = oracle_report ~config inst in
      let d =
        Simulation.decide_disjointness ~config inst
          ~predicate:(oracle_predicate p)
      in
      check_report (label ^ " faults") ~expected d.Simulation.report)
    (List.filter (fun (_, p, _) -> P.ell p = 3) (oracle_instances ()))

(* The fault plan filters deliveries on the calling domain, so a faulty
   decision is the same with or without a pool. *)
let test_fault_decisions_pool_independent () =
  let config = fault_config in
  let inst, _ = instance 53 p2 ~intersecting:true in
  let decide ?pool () =
    Simulation.decide_disjointness ~config ?pool inst
      ~predicate:(LF.predicate p2)
  in
  let reference = decide () in
  check "faults injected" true
    (reference.Simulation.report.Simulation.faults_injected > 0);
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          let d = decide ~pool () in
          let label = Printf.sprintf "jobs=%d" jobs in
          check_report label ~expected:reference.Simulation.report
            d.Simulation.report;
          check_int (label ^ ": OPT") reference.Simulation.opt d.Simulation.opt))
    [ 2; 3 ]

(* The ℓ = 4, t = 3 gather trace, pinned literally: a decision's Light
   trace over the registered player cut, for the first intersecting and
   the first disjoint input of perfbench's seed-1 theorem5-gather batch.
   Every gather message is a point send, so these values pin the point
   replay of the round loop (and the gather kernel's send order) as
   well as the Light fold; any rewrite of either must reproduce them.
   The traffic depends on the topology alone, which both inputs share;
   OPT, read from the gathered facts, tells them apart. *)
let gather_trace_fingerprint inst =
  let module T = Congest.Trace in
  let g = inst.Family.graph in
  let part = inst.Family.partition in
  let trace = T.create ~mode:T.Light ~cut:part () in
  let result =
    Runtime.run_flat ~trace
      (Congest.Algo_gather.exact_maxis_flat ~m:(Wgraph.Graph.edge_count g))
      (Wgraph.Csr.of_graph g)
  in
  check "all halted" true result.Runtime.all_halted;
  let by_round = T.cut_bits_by_round trace part in
  check_int "per-round cut bits sum to the cut bits" (T.cut_bits trace part)
    (Array.fold_left ( + ) 0 by_round);
  ( [
      ("digest", Int64.to_string (T.digest trace));
      ("send_digest_state", string_of_int (T.send_digest_state trace));
      ( "cut_bits_by_side",
        String.concat ","
          (Array.to_list (Array.map string_of_int (T.cut_bits_by_side trace part)))
      );
      ( "cut_bits_by_round fold",
        string_of_int
          (Array.fold_left (fun h b -> (h * 1_000_003) lxor b) 0 by_round) );
    ],
    [
      ("messages", T.total_messages trace);
      ("bits", T.total_bits trace);
      ("rounds", T.rounds trace);
      ("cut_bits", T.cut_bits trace part);
      ("cut_messages", T.cut_messages trace part);
      ("OPT", Option.value ~default:(-1) result.Runtime.outputs.(0));
    ] )

let test_gather_trace_pinned () =
  List.iter
    (fun (seed, intersecting, (strings, ints)) ->
      let inst, _ = instance seed p3 ~intersecting in
      let got_strings, got_ints = gather_trace_fingerprint inst in
      let label = Printf.sprintf "seed %d" seed in
      Alcotest.(check (list (pair string string)))
        (label ^ ": digests and cut split") strings got_strings;
      Alcotest.(check (list (pair string int)))
        (label ^ ": counts") ints got_ints)
    [
      ( 1000,
        true,
        ( [
            ("digest", "691551084246397407");
            ("send_digest_state", "-3448252315493313835");
            ("cut_bits_by_side", "3828000,3828000,3828000");
            ("cut_bits_by_round fold", "64841171112838496");
          ],
          [
            ("messages", 1_357_200);
            ("bits", 29_858_400);
            ("rounds", 870);
            ("cut_bits", 11_484_000);
            ("cut_messages", 522_000);
            ("OPT", 27);
          ] ) );
      ( 1001,
        false,
        ( [
            ("digest", "691551084246397407");
            ("send_digest_state", "-3448252315493313835");
            ("cut_bits_by_side", "3828000,3828000,3828000");
            ("cut_bits_by_round fold", "64841171112838496");
          ],
          [
            ("messages", 1_357_200);
            ("bits", 29_858_400);
            ("rounds", 870);
            ("cut_bits", 11_484_000);
            ("cut_messages", 522_000);
            ("OPT", 21);
          ] ) );
    ]

let test_oversend_failure_same_on_every_engine () =
  (* At bandwidth factor 1 the gather's first facts exceed the edge budget
     in round 0; every pool width must stop at the same violation and hand back
     a Light prefix metering the registered cut. *)
  let config = { Runtime.default_config with Runtime.bandwidth_factor = 1 } in
  let inst, _ = instance 59 p2 ~intersecting:false in
  let failure pool =
    match
      Simulation.decide_disjointness_checked ~config ?pool inst
        ~predicate:(LF.predicate p2)
    with
    | Error (Simulation.Runtime_failure f) -> f
    | Error (Simulation.Incomplete _) -> Alcotest.fail "incomplete, not a violation"
    | Ok _ -> Alcotest.fail "bandwidth factor 1 did not oversend"
  in
  let summary (f : Runtime.failure) =
    (f.Runtime.round, f.Runtime.src, f.Runtime.reason)
  in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let reference = failure None in
      check_int "violation in round 0" 0 reference.Runtime.round;
      check "oversend" true
        (match reference.Runtime.reason with
        | Runtime.Oversend _ -> true
        | _ -> false);
      List.iter
        (fun (name, pool) ->
          let f = failure pool in
          check (name ^ ": same violation") true (summary reference = summary f);
          let tr = f.Runtime.trace_prefix in
          check (name ^ ": Light prefix") true
            (Congest.Trace.mode tr = Congest.Trace.Light);
          check (name ^ ": player cut registered") true
            (Congest.Trace.registered_cut tr = Some inst.Family.partition);
          check_int (name ^ ": prefix cut bits")
            (Congest.Trace.cut_bits reference.Runtime.trace_prefix
               inst.Family.partition)
            (Congest.Trace.cut_bits tr inst.Family.partition))
        (widths pool))

(* ------------------------------------------------------------------ *)
(* The key asymptotic comparison: blackboard cost vs string length *)

let test_blackboard_bits_exceed_cc_bound () =
  (* Theorem 5's punchline run backwards: since the CC of promise
     disjointness is ~ k/(t log t) bits, any correct simulation must have
     cost at least that.  Our measured T * cut * log n is far above it on
     these tiny instances — consistency, not tightness. *)
  let inst, _ = instance 19 p3 ~intersecting:false in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  let _, report = Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst in
  let cc =
    Commcx.Cc_bounds.eval_bits Commcx.Cc_bounds.promise_pairwise_disjointness
      ~k:(P.k p3) ~t:3
  in
  check "measured >= information bound" true
    (float_of_int report.Simulation.blackboard_bits >= cc)

let test_simulation_on_quadratic_instance () =
  (* Theorem 5 holds for the Section-5 family too: same metering, cut
     unchanged by input edges. *)
  let p = P.make ~alpha:1 ~ell:3 ~players:2 in
  let rng = Prng.create 37 in
  let x =
    Inputs.gen_promise rng
      ~k:(Maxis_core.Quadratic_family.string_length p)
      ~t:2 ~intersecting:true
  in
  let inst = Maxis_core.Quadratic_family.instance p x in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  List.iter
    (fun run ->
      let report = run () in
      check "within" true report.Simulation.within_bound;
      Alcotest.(check int) "cut"
        (Maxis_core.Quadratic_family.expected_cut_size p)
        report.Simulation.cut_size)
    [
      (fun () -> snd (Simulation.simulate Congest.Algo_luby.mis inst));
      (fun () ->
        snd (Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst));
    ]

(* ------------------------------------------------------------------ *)
(* Player_sim: the literal t-player protocol must replay the monolithic
   runtime exactly. *)

module Player_sim = Maxis_core.Player_sim

let test_player_sim_matches_runtime () =
  let inst, _ = instance 23 p3 ~intersecting:true in
  let g = inst.Family.graph in
  let n = Wgraph.Graph.n g in
  let m = Wgraph.Graph.edge_count g in
  let check_program : type o. ?config:Runtime.config -> o Congest.Program.t -> unit =
   fun ?config program ->
    let mono = Runtime.run ?config program g in
    let multi = Player_sim.run ?config program inst in
    check (program.Congest.Program.name ^ " outputs equal") true
      (mono.Runtime.outputs = multi.Player_sim.outputs);
    check_int
      (program.Congest.Program.name ^ " rounds equal")
      mono.Runtime.rounds_executed multi.Player_sim.rounds;
    check_int
      (program.Congest.Program.name ^ " board bits = trace cut bits")
      (Congest.Trace.cut_bits mono.Runtime.trace inst.Family.partition)
      (Commcx.Blackboard.bits_written multi.Player_sim.board);
    check_int
      (program.Congest.Program.name ^ " internal + cross = total")
      (Congest.Trace.total_bits mono.Runtime.trace)
      (multi.Player_sim.internal_bits
      + Commcx.Blackboard.bits_written multi.Player_sim.board)
  in
  check_program (Congest.Algo_flood.max_id ~rounds:n);
  check_program Congest.Algo_luby.mis;
  check_program Congest.Algo_greedy_mis.mis;
  check_program (Congest.Algo_gather.exact_maxis ~m);
  check_program (Congest.Algo_bfs.distances ~root:0 ~rounds:n);
  check_program (Congest.Algo_flood.leader_election ~rounds:n);
  check_program Congest.Algo_coloring.color;
  check_program Congest.Algo_matching.maximal_matching;
  let total_weight =
    List.fold_left (fun acc v -> acc + Wgraph.Graph.weight g v) 0
      (List.init n Fun.id)
  in
  check_program
    (Congest.Algo_convergecast.sum_of_weights ~root:0
       ~value_width:(Stdx.Mathx.ceil_log2 (total_weight + 1)));
  (* Hardened 131-bit frames need bandwidth factor 64. *)
  check_program
    ~config:{ Runtime.default_config with Runtime.bandwidth_factor = 64 }
    (Congest.Faults.harden (Congest.Algo_flood.max_id ~rounds:8));
  check_program
    ~config:{ Runtime.default_config with Runtime.mode = Runtime.Broadcast }
    (Congest.Algo_flood.max_id ~rounds:n)

(* Two messages on one edge in one round reach the receiver in emit
   order on both sides: every node sends each neighbour [Int 1] then
   [Int 2] in round 0 and outputs the first payload it reads in round 1. *)
let emit_order_probe : int Congest.Program.t =
  {
    Congest.Program.name = "emit-order-probe";
    spawn =
      (fun view ->
        let first = ref None and halted = ref false in
        let msg w = Congest.Msg.int_msg ~width:2 w in
        {
          Congest.Program.step =
            (fun ~round ~inbox ->
              if round = 0 then
                Array.fold_right
                  (fun nb acc -> (nb, msg 1) :: (nb, msg 2) :: acc)
                  view.Congest.Program.neighbors []
              else begin
                (match inbox with
                | (_, { Congest.Msg.payload = Congest.Msg.Int w; _ }) :: _ ->
                    first := Some w
                | _ -> ());
                halted := true;
                []
              end);
          halted = (fun () -> !halted);
          output = (fun () -> !first);
        });
  }

let test_player_sim_emit_order () =
  let inst, _ = instance 23 p3 ~intersecting:true in
  let mono = Runtime.run emit_order_probe inst.Family.graph in
  let multi = Player_sim.run emit_order_probe inst in
  check "runtime reads the first send first" true
    (Array.for_all (( = ) (Some 1)) mono.Runtime.outputs);
  check "player protocol reads the first send first" true
    (Array.for_all (( = ) (Some 1)) multi.Player_sim.outputs)

let test_player_sim_decides () =
  List.iter
    (fun intersecting ->
      let inst, x = instance 29 p3 ~intersecting in
      let answer, outcome =
        Player_sim.decide_disjointness inst ~predicate:(LF.predicate p3)
      in
      Alcotest.(check (option bool))
        "player protocol answer"
        (Some (Commcx.Functions.promise_pairwise_disjointness x))
        answer;
      check "board non-empty" true
        (Commcx.Blackboard.bits_written outcome.Player_sim.board > 0);
      (* authors are player indices *)
      List.iter
        (fun (author, _) -> check "author in range" true (author >= 0 && author < 3))
        (Commcx.Blackboard.bits_by_author outcome.Player_sim.board))
    [ true; false ]

let test_player_sim_all_players_write () =
  (* On a symmetric instance every player's region borders the others, so
     every player should author some blackboard traffic when gathering. *)
  let inst, _ = instance 31 p3 ~intersecting:false in
  let m = Wgraph.Graph.edge_count inst.Family.graph in
  let outcome = Player_sim.run (Congest.Algo_gather.exact_maxis ~m) inst in
  check_int "three authors" 3
    (List.length (Commcx.Blackboard.bits_by_author outcome.Player_sim.board))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let prop_player_sim_equivalence =
  QCheck.Test.make ~name:"player protocol == monolithic runtime" ~count:6
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let inst, _ = instance seed p2 ~intersecting:inter in
      let g = inst.Family.graph in
      let mono = Runtime.run Congest.Algo_luby.mis g in
      let multi = Player_sim.run Congest.Algo_luby.mis inst in
      mono.Runtime.outputs = multi.Player_sim.outputs
      && Congest.Trace.cut_bits mono.Runtime.trace inst.Family.partition
         = Commcx.Blackboard.bits_written multi.Player_sim.board)

let prop_all_algorithms_within_bound =
  QCheck.Test.make ~name:"Theorem 5 bound holds for every algorithm/input" ~count:8
    QCheck.(pair small_int bool) (fun (seed, inter) ->
      let inst, _ = instance seed p2 ~intersecting:inter in
      let n = Wgraph.Graph.n inst.Family.graph in
      let m = Wgraph.Graph.edge_count inst.Family.graph in
      let programs =
        [
          (fun () -> snd (Simulation.simulate (Congest.Algo_flood.max_id ~rounds:n) inst));
          (fun () -> snd (Simulation.simulate Congest.Algo_luby.mis inst));
          (fun () -> snd (Simulation.simulate (Congest.Algo_gather.exact_maxis ~m) inst));
        ]
      in
      List.for_all (fun run -> (run ()).Simulation.within_bound) programs)

let () =
  Alcotest.run "simulation"
    [
      ( "bounds",
        [
          Alcotest.test_case "flood" `Quick test_simulate_flood_within_bound;
          Alcotest.test_case "luby" `Quick test_simulate_luby_within_bound;
          Alcotest.test_case "gather" `Quick test_simulate_gather_within_bound;
          Alcotest.test_case "bound formula" `Quick test_report_bound_formula;
          Alcotest.test_case "quadratic instance" `Quick
            test_simulation_on_quadratic_instance;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "decides both sides" `Quick test_decide_disjointness_both_sides;
          Alcotest.test_case "exhaustive t=2 singletons" `Slow
            test_decide_disjointness_exhaustive_t2_singletons;
          Alcotest.test_case "truncation raises" `Quick test_decide_raises_when_truncated;
          Alcotest.test_case "cost exceeds CC bound" `Quick
            test_blackboard_bits_exceed_cc_bound;
        ] );
      ( "engines",
        [
          Alcotest.test_case "reports match Full-trace oracle" `Quick
            test_decision_reports_match_oracle;
          Alcotest.test_case "fault reports match Full-trace oracle" `Quick
            test_decision_fault_reports_match_oracle;
          Alcotest.test_case "faulty decisions: pool = no pool" `Quick
            test_fault_decisions_pool_independent;
          Alcotest.test_case "oversend failure on every engine" `Quick
            test_oversend_failure_same_on_every_engine;
          Alcotest.test_case "ℓ = 4, t = 3 gather trace pinned" `Quick
            test_gather_trace_pinned;
        ] );
      ( "player-protocol",
        [
          Alcotest.test_case "matches runtime" `Quick test_player_sim_matches_runtime;
          Alcotest.test_case "two sends keep emit order" `Quick
            test_player_sim_emit_order;
          Alcotest.test_case "decides" `Quick test_player_sim_decides;
          Alcotest.test_case "all players write" `Quick test_player_sim_all_players_write;
        ] );
      qsuite "simulation-props"
        [ prop_all_algorithms_within_bound; prop_player_sim_equivalence ];
    ]
