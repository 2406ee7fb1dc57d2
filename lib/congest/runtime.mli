(** The synchronous CONGEST executor.

    Executes a program on every node of a network, round by round: all
    nodes step simultaneously on the messages sent in the previous
    round, and the per-edge bandwidth constraint — at most
    [bandwidth_factor · ⌈log₂ n⌉] bits per directed edge per round — is
    enforced at send time.  A run terminates when all nodes have halted
    or when [max_rounds] is reached.

    With [config.faults] set, every attempted send passes through the
    seeded fault plan at delivery time (drop/duplicate/corrupt/delay) and
    scheduled nodes crash-stop; every injected event is recorded in the
    trace alongside the sends, and the whole faulty execution is exactly
    replayable from [(config, plan)].

    There is one round loop, {!run_flat}: a counting-sort executor over
    preallocated int buffers on a {!Wgraph.Csr.t}, run on the caller
    without a pool and sharded across the domains of an {!Exec.Pool.t}
    with one, byte-identical either way.  It runs {!Fastpath} kernels
    natively; {!run} and {!run_checked} run a list-mode {!Program.t} on
    it through {!Fastpath.of_program}, over the CSR twin of a bitset
    {!Wgraph.Graph.t}.  Fault plans, [Broadcast] mode and every pool
    width apply to both forms (docs/PERF.md, docs/FAULTS.md). *)

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
(** [run_flat (Fastpath.of_program p) (Csr.of_graph g)], without a pool.
    Raises {!Bandwidth_exceeded} when a node oversends,
    {!Illegal_recipient} when it addresses a non-neighbor, and
    {!Non_uniform_broadcast} when [mode = Broadcast] and a node sends
    unequal messages in one round.  A message with negative [bits] is a
    program bug, not a model violation: it raises [Invalid_argument]
    before anything about it is traced. *)

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
  ?phases:float array ->
  ?pool:Exec.Pool.t ->
  'out Fastpath.t ->
  Wgraph.Csr.t ->
  'out result
(** The round loop: executes a flat program over preallocated int
    message buffers — no cons cells, tuples or [Msg.t] records per round
    for a native kernel (test/test_perf_guard.ml pins the per-round
    allocation ceiling).  The kernel is instantiated once over the CSR
    rows (no per-node copies); a kernel that draws gets one stream per
    node, split from the master in ascending node order — the streams
    {!Fastpath.to_program} hands its spawned nodes — so a flat program
    and its [to_program] form are output-identical.  Each node's output
    is read once, through [output v], when the run ends.  A row send ({!Fastpath.emit_row})
    is staged as one entry and checked against the budget once; it
    counts as one message per neighbour in the trace and the metrics,
    and its failure is the per-edge sends' failure.  A fault-free round
    with no point send and at least [n] messages is delivered by pull:
    each receiver reads its own CSR row for the neighbours that
    row-sent, with no delivery arena; inboxes, their order and every
    trace are the same as through the arena.

    Every node's validated sends are staged, and the trace is recorded
    from the staged entries on the calling domain after the stage phase,
    in ascending source order, one {!Trace.record_staged} call per
    shard — one path with or without a pool.
    Without [pool] the round's phases run on the caller.  With [pool]
    every per-node and per-destination phase runs as an
    {!Exec.Pool.run_range} barrier over private per-shard staging
    arenas, merged by a two-pass prefix sum into the same delivery-arena
    layout (docs/PERF.md).  Outputs, round counts,
    recorded traces and digests are byte-identical with or without a
    pool, at every pool width, cold or warm (test/test_csr.ml pins this
    differentially at jobs ∈ {1, 2, 3, 8}).  Per-run [congest_*] metric
    totals are flushed once at the end of the run, and the
    [runtime_arena_peak_words] / [graph_resident_words] gauges record
    the memory footprint: the former counts every word the round loop
    holds for messages — delivery arena, staging, the senders' row
    records and the receivers' pull scratch.

    A worker death under a pool ({!Exec.Pool.Chaos_kill}) is never
    retried — shard bodies mutate node state and PRNG streams in place —
    so the run raises the same width-independent
    [Exec.Error.Error (Worker_death _)] at every [jobs] (including 1),
    with no trace recorded for the torn round.

    [config.faults] is applied as one delivery filter on the calling
    domain after each round's stage phase (and trace replay), so faulty
    runs too are byte-identical at every pool width (docs/FAULTS.md
    gives the inbox order); a crashed node's halted byte is set, and
    [result.crashed] records it.  [Broadcast] mode checks each node's
    sends for uniformity right after its step, before any is recorded.
    Neither adds work to a fault-free [Unicast] run.

    [alloc_probe] (a test hook; length ≥ the shard count, 1 without a
    pool) accumulates, per shard, the minor words its stage phase
    allocates each round — the per-domain allocation guard reads it.
    [phases] (a test hook; length ≥ 4) accumulates, per round phase,
    the time that [Obs.Span.now] reads between the phase's start and
    end on the calling domain: slot 0 the stage phase (from the top of
    the round through the stage barrier), 1 the trace replay, 2 the
    fault filter, 3 the tallies and merge passes.  [Obs.Span.now] reads
    the clock installed by [Obs.Span.set_clock], by default [Sys.time]:
    process CPU time, summed over every domain, so under a pool the
    stage slot also counts the workers' time and can exceed the wall
    time it spans.  A caller that wants wall time per phase (a
    per-layer metric, say) must install a wall clock first, e.g.
    [Obs.Span.set_clock Unix.gettimeofday].  The slots sum to at most
    the run's time on that clock; off, it costs one [None] match per
    phase per round and allocates nothing.
    Raises [Invalid_argument] before round 0 if [alloc_probe] or
    [phases] is too short or [trace]'s registered cut does not have
    [n] entries, and when a
    node of an {!Fastpath.of_program} kernel sends under a pool (its
    message store is written only on the calling domain). *)

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
    with or without [pool].  [Invalid_argument] and a worker death
    ([Exec.Error.Error (Worker_death _)], an executor fault rather than
    a model violation) still raise. *)
