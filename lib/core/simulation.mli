(** The simulation argument of Theorem 5, executed.

    Given a family instance [G_x̄] with its player partition and {e any}
    CONGEST algorithm, the [t] players can jointly simulate the algorithm:
    player [i] runs the nodes of [Vⁱ] locally, and every message crossing
    the partition is written on the shared blackboard.  The transcript
    therefore costs at most [T · |cut(G_x̄)| · B] bits, where [B] is the
    per-edge-per-round bandwidth — that inequality {e is} Theorem 5, and
    this module measures both sides on real runs.

    Under a fault plan ({!Congest.Faults}), attempted and delivered cut
    traffic are metered separately: the Theorem-5 cap bounds what the
    algorithm {e emits}, so it must — and does — hold on attempted traffic
    even when an adversarial plan drops part of it.

    Every entry point runs on {!Congest.Runtime.run_flat}, the one round
    loop, with or without a fault plan.

    [decide_disjointness] completes the reduction end to end: it runs the
    universal exact-MaxIS algorithm ({!Congest.Algo_gather}), classifies
    OPT with the gap predicate, and returns the promise-pairwise-
    disjointness answer, together with the full bit accounting. *)

type report = {
  algorithm : string;
  n : int;
  rounds : int;
  cut_size : int;
  bandwidth : int;  (** per-edge per-round bit budget [B] *)
  blackboard_bits : int;
      (** measured bits of {e attempted} sends crossing the partition *)
  blackboard_writes : int;
  blackboard_bits_dropped : int;
      (** cut-crossing bits a fault plan dropped (0 without faults) *)
  blackboard_bits_delivered : int;
      (** cut-crossing bits that actually arrived (includes duplicates) *)
  bound_bits : int;  (** [rounds · 2·cut_size · bandwidth] — Theorem 5's cap *)
  within_bound : bool;  (** attempted ≤ cap *)
  total_bits : int;  (** all traffic, crossing or not (for contrast) *)
  faults_injected : int;  (** injected events recorded in the trace *)
}

val simulate :
  ?config:Congest.Runtime.config ->
  'out Congest.Program.t ->
  Family.instance ->
  'out Congest.Runtime.result * report
(** Run any program on the instance's graph and meter the cut traffic.
    Raises as {!Congest.Runtime.run} on model violations. *)

val simulate_checked :
  ?config:Congest.Runtime.config ->
  'out Congest.Program.t ->
  Family.instance ->
  ('out Congest.Runtime.result * report, Congest.Runtime.failure) Stdlib.result
(** Like {!simulate}, but model violations come back as a structured
    failure (round/src/dst + trace prefix) instead of an exception. *)

type decision = {
  report : report;
  opt : int;
  verdict : Predicate.verdict;
  answer : bool option;  (** the simulated players' output for [f(x̄)] *)
}

type error =
  | Runtime_failure of Congest.Runtime.failure
      (** the algorithm violated the model (oversend / non-neighbor /
          broadcast mismatch); the prefix is a [Light] trace *)
  | Incomplete of { rounds : int }
      (** gathering did not finish within [max_rounds] *)

val pp_error : Format.formatter -> error -> unit

val decide_disjointness :
  ?config:Congest.Runtime.config ->
  ?pool:Exec.Pool.t ->
  Family.instance ->
  predicate:Predicate.t ->
  decision
(** The full Theorem-5 pipeline on the universal algorithm: the flat
    gather ({!Congest.Algo_gather.exact_maxis_flat}) on the CSR twin of
    the instance graph, sharded across [pool] when one is given.  The
    runtime config's [max_rounds] must allow gathering to complete
    ([O(n + m)] rounds); the default config usually suffices for
    test-sized instances.

    The decision and every report field are the same with or without a
    pool, at every width, fault plan or not (pinned against the
    Full-trace {!simulate} in test/test_simulation.ml and by stdout
    parity in test/test_cli.ml).  The run records into a [Light] trace
    with the instance's player partition registered
    ({!Congest.Trace.create}[ ~mode:Light ~cut]), so no per-send log is
    kept and every report field is an O(1) read of the streamed cut
    accumulators — the same values {!simulate} folds out of its [Full]
    log.

    Raises [Invalid_argument] on failure — prefer
    {!decide_disjointness_checked} in drivers. *)

val decide_disjointness_checked :
  ?config:Congest.Runtime.config ->
  ?pool:Exec.Pool.t ->
  Family.instance ->
  predicate:Predicate.t ->
  (decision, error) Stdlib.result
(** As {!decide_disjointness}, with graceful degradation: failures carry
    structured context for report-and-continue drivers.  The
    [trace_prefix] of a [Runtime_failure] is the decision's [Light]
    trace (player cut registered): its cut and round aggregates are
    available, its send log is not. *)
