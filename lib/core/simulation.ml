module Runtime = Congest.Runtime
module Trace = Congest.Trace

type report = {
  algorithm : string;
  n : int;
  rounds : int;
  cut_size : int;
  bandwidth : int;
  blackboard_bits : int;
  blackboard_writes : int;
  blackboard_bits_dropped : int;
  blackboard_bits_delivered : int;
  bound_bits : int;
  within_bound : bool;
  total_bits : int;
  faults_injected : int;
}

(* Theorem 5's currency, exported as first-class counters: total
   blackboard writes/bits, the per-player split of the written bits, and
   a per-round ("per-phase") bits histogram.  Bumped once per simulation
   from the already-computed trace aggregates, so observability adds
   nothing to the runtime's hot loop. *)
let round_bits_buckets = [| 16.; 64.; 256.; 1024.; 4096. |]

let meter_blackboard ~algo ~(report_bits : int) ~writes ~per_player ~per_round =
  let labels = [ ("algo", algo) ] in
  Obs.Metrics.inc (Obs.Metrics.counter ~labels "simulation_runs_total");
  Obs.Metrics.add (Obs.Metrics.counter ~labels "blackboard_bits_total") report_bits;
  Obs.Metrics.add (Obs.Metrics.counter ~labels "blackboard_writes_total") writes;
  Array.iteri
    (fun p bits ->
      Obs.Metrics.add
        (Obs.Metrics.counter
           ~labels:(("player", string_of_int p) :: labels)
           "blackboard_player_bits_total")
        bits)
    per_player;
  let h =
    Obs.Metrics.histogram ~labels ~buckets:round_bits_buckets
      "blackboard_round_bits"
  in
  Array.iter (fun bits -> Obs.Metrics.observe h (float_of_int bits)) per_round

let report_of ~config ~algo (inst : Family.instance)
    (result : _ Runtime.result) =
  let n = Wgraph.Graph.n inst.Family.graph in
  let cut_size = Family.cut_size inst in
  let bandwidth = Runtime.bandwidth_bits config ~n in
  let trace = result.Runtime.trace in
  let blackboard_bits = Trace.cut_bits trace inst.Family.partition in
  let rounds = result.Runtime.rounds_executed in
  meter_blackboard ~algo ~report_bits:blackboard_bits
    ~writes:(Trace.cut_messages trace inst.Family.partition)
    ~per_player:(Trace.cut_bits_by_side trace inst.Family.partition)
    ~per_round:(Trace.cut_bits_by_round trace inst.Family.partition);
  (* Directed cut capacity: each undirected cut edge carries up to B bits in
     each direction per round, matching the proof's O(T·|cut|·log n) with
     the constant made explicit.  The cap bounds ATTEMPTED traffic — what
     the algorithm emits — so it holds whether or not a fault plan then
     drops part of it. *)
  let bound_bits = rounds * (2 * cut_size) * bandwidth in
  {
    algorithm = algo;
    n;
    rounds;
    cut_size;
    bandwidth;
    blackboard_bits;
    blackboard_writes = Trace.cut_messages trace inst.Family.partition;
    blackboard_bits_dropped = Trace.cut_bits_dropped trace inst.Family.partition;
    blackboard_bits_delivered =
      Trace.cut_bits_delivered trace inst.Family.partition;
    bound_bits;
    within_bound = blackboard_bits <= bound_bits;
    total_bits = Trace.total_bits trace;
    faults_injected = Trace.total_faults trace;
  }

let simulate ?(config = Runtime.default_config) program (inst : Family.instance) =
  let result = Runtime.run ~config program inst.Family.graph in
  (result, report_of ~config ~algo:program.Congest.Program.name inst result)

let simulate_checked ?(config = Runtime.default_config) program
    (inst : Family.instance) =
  match Runtime.run_checked ~config program inst.Family.graph with
  | Ok result ->
      Ok (result, report_of ~config ~algo:program.Congest.Program.name inst result)
  | Error failure -> Error failure

type decision = {
  report : report;
  opt : int;
  verdict : Predicate.verdict;
  answer : bool option;
}

type error =
  | Runtime_failure of Runtime.failure
  | Incomplete of { rounds : int }

let pp_error ppf = function
  | Runtime_failure f -> Runtime.pp_failure ppf f
  | Incomplete { rounds } ->
      Format.fprintf ppf
        "gathering did not complete within %d rounds (increase max_rounds)"
        rounds

let decide_disjointness_checked ?(config = Runtime.default_config) ?pool
    (inst : Family.instance) ~predicate =
  let g = inst.Family.graph in
  let fp =
    Congest.Algo_gather.exact_maxis_flat ~m:(Wgraph.Graph.edge_count g)
  in
  (* Every report field reads a streamed accumulator of the registered
     player cut, so no per-send log is kept: the flat gather runs on the
     CSR twin of the instance graph, and its report aggregates (rounds,
     cut bits, outputs) equal the Full-trace [simulate] of the list
     form, which test/test_simulation.ml pins at several pool widths. *)
  let trace = Trace.create ~mode:Light ~cut:inst.Family.partition () in
  match
    Runtime.run_flat_checked ~config ~trace ?pool fp (Wgraph.Csr.of_graph g)
  with
  | Error failure -> Error (Runtime_failure failure)
  | Ok result -> (
      match result.Runtime.outputs.(0) with
      | None -> Error (Incomplete { rounds = result.Runtime.rounds_executed })
      | Some opt ->
          Ok
            {
              report =
                report_of ~config ~algo:fp.Congest.Fastpath.fname inst result;
              opt;
              verdict = Predicate.classify predicate opt;
              answer = Predicate.decides_to predicate opt;
            })

let decide_disjointness ?config ?pool (inst : Family.instance) ~predicate =
  match decide_disjointness_checked ?config ?pool inst ~predicate with
  | Ok d -> d
  | Error (Incomplete _) ->
      invalid_arg
        "Simulation.decide_disjointness: gathering did not complete \
         (increase max_rounds)"
  | Error (Runtime_failure f) ->
      invalid_arg
        (Format.asprintf "Simulation.decide_disjointness: %a" Runtime.pp_failure
           f)
