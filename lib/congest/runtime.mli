(** The synchronous CONGEST executor.

    Executes a {!Program.t} on every node of a network (a weighted graph),
    round by round: all nodes step simultaneously on the messages sent in
    the previous round, and the per-edge bandwidth constraint — at most
    [bandwidth_factor · ⌈log₂ n⌉] bits per directed edge per round — is
    enforced at send time.  A run terminates when all nodes have halted or
    when [max_rounds] is reached.

    With [config.faults] set, every attempted send passes through the
    seeded fault plan at delivery time (drop/duplicate/corrupt/delay) and
    scheduled nodes crash-stop; every injected event is recorded in the
    trace alongside the sends, and the whole faulty execution is exactly
    replayable from [(config, plan)].

    The executor is representation-agnostic: {!run} takes the bitset
    {!Wgraph.Graph.t}, {!run_csr} the compressed {!Wgraph.Csr.t}, and both
    drive one shared round loop over preallocated arena message buffers
    (docs/PERF.md describes the arena lifecycle).  Identical graphs
    produce identical executions — same outputs, same trace digests —
    whichever representation carries them.

    {!run_flat} executes the allocation-free {!Fastpath} program form for
    large-n sweeps: one counting-sort round loop that runs on the caller
    without a pool and shards its phases across the domains of an
    {!Exec.Pool.t} with one, byte-identical either way. *)

exception Bandwidth_exceeded of { round : int; src : int; dst : int; bits : int; limit : int }
exception Illegal_recipient of { round : int; src : int; dst : int }

exception Non_uniform_broadcast of { round : int; src : int }
(** Raised in [Broadcast] mode when a node sends unequal messages in one
    round. *)

type mode =
  | Unicast  (** the CONGEST model: different messages to different neighbors *)
  | Broadcast
      (** the CONGEST-Broadcast restriction (as in the triangle-detection
          lower bound of Drucker–Kuhn–Oshman discussed in the paper's
          introduction): in each round a node must send the same message to
          every neighbor it addresses, and addressing any neighbor sends to
          all of them. *)

type config = {
  max_rounds : int;
  bandwidth_factor : int;  (** the [c] in [c·⌈log n⌉] bits per edge-round *)
  mode : mode;
  seed : int;  (** seeds the per-node private randomness *)
  faults : Faults.plan option;
      (** adversarial links and crashes; [None] is the fault-free referee *)
}

val default_config : config
(** 10_000 rounds, factor 4, [Unicast], seed 42, no faults. *)

type 'out result = {
  outputs : 'out option array;  (** per node *)
  rounds_executed : int;
  all_halted : bool;  (** crashed nodes count as halted *)
  crashed : bool array;  (** per node: did a fault plan crash it? *)
  trace : Trace.t;
}

(** {1 Structured failure reporting} *)

type failure_reason =
  | Oversend of { dst : int; bits : int; limit : int }
  | Non_neighbor of { dst : int }
  | Broadcast_mismatch

type failure = {
  round : int;
  src : int;
  reason : failure_reason;
  trace_prefix : Trace.t;
      (** everything recorded up to the violation, for post-mortem *)
}

val pp_failure : Format.formatter -> failure -> unit

val bandwidth_bits : config -> n:int -> int
(** The per-(edge, round, direction) bit budget. *)

(** {1 Execution}

    All entry points accept [?trace] to record into a caller-constructed
    trace — a {!Trace.Light} one for large-n sweeps, or one with a
    registered cut for O(1) blackboard accounting.  Default: a fresh
    [Full] trace, preserving the historical behavior (including digest
    values) exactly. *)

val run :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Graph.t ->
  'out result
(** Raises {!Bandwidth_exceeded} when a node oversends,
    {!Illegal_recipient} when it addresses a non-neighbor, and
    {!Non_uniform_broadcast} when [mode = Broadcast] and a node sends
    unequal messages in one round. *)

val run_csr :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Csr.t ->
  'out result
(** {!run} on the CSR representation: same executor, same semantics —
    [run_csr p (Csr.of_graph g)] and [run p g] produce identical results
    and traces under any config. *)

val run_checked :
  ?config:config ->
  ?trace:Trace.t ->
  'out Program.t ->
  Wgraph.Graph.t ->
  ('out result, failure) Stdlib.result
(** Like {!run} but no model violation escapes as an exception: the
    [Error] carries round/src/dst context and the trace prefix, so drivers
    can report and continue instead of crashing. *)

val run_flat :
  ?config:config ->
  ?trace:Trace.t ->
  ?alloc_probe:float array ->
  ?pool:Exec.Pool.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  'out result
(** The zero-allocation hot path: executes a flat program over
    preallocated int message buffers — no cons cells, tuples or [Msg.t]
    records per round (test/test_perf_guard.ml pins the per-round
    allocation ceiling).  Spawn order and PRNG splitting match the
    list-mode executors, so faithful flat ports are output-identical.

    Without [pool] the round's phases run on the caller and the trace is
    recorded inline.  With [pool] every per-node and per-destination
    phase runs as an {!Exec.Pool.run_range} barrier over private
    per-shard staging arenas, merged by a two-pass prefix sum into the
    same delivery-arena layout, and the trace is replayed on the calling
    domain after each barrier (docs/PERF.md).  Outputs, round counts,
    recorded traces and digests are byte-identical with or without a
    pool, at every pool width, cold or warm (test/test_csr.ml pins this
    differentially at jobs ∈ {1, 2, 3, 8}).  Per-run [congest_*] metric
    totals are flushed once at the end of the run, and the
    [runtime_arena_peak_words] / [graph_resident_words] gauges record
    the memory footprint.

    A worker death under a pool ({!Exec.Pool.Chaos_kill}) is never
    retried — shard bodies mutate node state and PRNG streams in place —
    so the run raises the same width-independent
    [Exec.Error.Error (Worker_death _)] at every [jobs] (including 1),
    with no trace recorded for the torn round.

    [alloc_probe] (a test hook; length ≥ the shard count, 1 without a
    pool) accumulates, per shard, the minor words its stage phase
    allocates each round — the per-domain allocation guard reads it.
    Raises [Invalid_argument] if [config.faults] is set, if
    [config.mode = Broadcast] — adversarial runs keep to the list-mode
    executor — or if [alloc_probe] is too short. *)

val run_flat_par :
  ?config:config ->
  ?trace:Trace.t ->
  ?alloc_probe:float array ->
  pool:Exec.Pool.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  'out result
(** [run_flat ~pool]: an alias kept for perfbench/adapter.ml. *)

val run_flat_checked :
  ?config:config ->
  ?trace:Trace.t ->
  ?pool:Exec.Pool.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  ('out result, failure) Stdlib.result
(** {!run_flat} with model violations returned as structured failures,
    like {!run_checked}; the failure and its trace prefix are the same
    with or without [pool].  [Invalid_argument] (faults / Broadcast) and
    a worker death ([Exec.Error.Error (Worker_death _)], an executor
    fault rather than a model violation) still raise. *)
