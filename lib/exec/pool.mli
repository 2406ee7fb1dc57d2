(** Deterministic, self-healing fixed-size domain worker pool.

    The execution engine behind every fan-out in the repository: parameter
    sweeps, per-trial exact MaxIS solves, the verification audit, the
    solve daemon's batches and the rounds of the domain-sharded CONGEST
    executor.  The design goal is a hard determinism
    contract, because the bench harness promises byte-identical tables for
    any [--jobs] setting:

    - {!map} assigns every item a stable index and reassembles results in
      input order, so the caller observes exactly the sequential result no
      matter how tasks were scheduled across domains;
    - when a task raises, {!map} re-raises the exception of the
      {e lowest-index} failing task — the same exception a sequential loop
      would have surfaced first (later tasks may still have run; their
      results are discarded);
    - a pool of [jobs = 1] spawns no domains at all and degrades to a plain
      loop, so the default configuration is exactly the pre-pool code path.

    Pools hold [jobs - 1] worker domains blocked on a condition variable;
    the calling domain participates in every batch, so [jobs] is the true
    parallel width.  Tasks must not themselves call {!map} or {!run_range}
    on the same pool (that raises [Invalid_argument] rather than
    deadlocking).

    {2 Supervision}

    The pool survives its own workers.  A worker that dies mid-task (its
    task raised {!Chaos_kill} — OCaml has no other way to lose a domain
    short of a runtime crash) runs a death protocol: the slot it was
    executing is re-enqueued and drained by the surviving workers or by
    the calling domain, so the batch still completes with results
    byte-identical to [jobs = 1].  Dead workers are replaced by fresh
    domains before the next batch ([pool_worker_restarts_total] counts
    replacements), so the pool heals back to full width.

    A slot whose executions have killed two workers is a {e poison
    task}: it is quarantined — its result becomes
    [Error.Error (Worker_death _)], which {!map} re-raises under the
    lowest-index rule — instead of being retried forever.  This holds at
    every width, including [jobs = 1], so a deterministic crasher yields
    the identical exception regardless of [--jobs].

    A domain cannot be interrupted from outside, so a task that never
    returns blocks its batch (and {!shutdown}) forever: tasks must
    terminate. *)

type t

exception Chaos_kill
(** Chaos-harness hook: a task raising [Chaos_kill] kills its executing
    worker domain (simulating a crash) instead of being recorded as an
    ordinary task failure.  Never raise it outside fault-injection
    tests. *)

val create : jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] supervised worker domains
    ([jobs >= 1], else [Invalid_argument]).  The pool registers itself in
    a process-wide exit registry (one [at_exit] hook total), so
    forgetting {!shutdown} never leaves blocked domains behind.  A worker
    that cannot be spawned (after {!Error.with_retries}-bounded retries)
    leaves the pool width-degraded for the current batch — {!map} still
    completes, executed by the workers that do exist plus the calling
    domain — and the spawn is retried before each subsequent batch. *)

val jobs : t -> int
(** The parallel width the pool was created with. *)

val live_workers : t -> int
(** Workers currently believed alive, plus the calling domain: the
    effective width of the next batch before respawning. *)

val restarts : t -> int
(** Worker domains respawned over the pool's lifetime (also aggregated
    process-wide in [pool_worker_restarts_total]). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is [Array.map f xs], computed by up to [jobs pool]
    domains.  Results are in input order; see the determinism and
    supervision contracts above for exceptions and worker deaths.
    Raises [Invalid_argument] on a nested or concurrent batch ([map] or
    {!run_range}) over the same pool, or (at any width, including 1)
    after {!shutdown}. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}; same contract. *)

val run_range : t -> lo:int -> hi:int -> (int -> int -> unit) -> unit
(** [run_range pool ~lo ~hi f] is the barrier primitive behind the
    domain-sharded flat executor (docs/PERF.md).  The interval
    [\[lo, hi)] is split into exactly [jobs pool] contiguous chunks (see
    {!chunk_bounds}); every pool slot — the persistent workers plus the
    calling domain — executes [f clo chi] for one chunk, and the call
    returns only once all chunks have published.  Empty chunks still
    invoke [f clo clo], so per-shard state is reset at every width.

    Each call runs the same batch protocol as {!map} on one fresh,
    small batch record with its own claim counter, so a worker left
    over from an earlier call can claim nothing of this one.  The
    chunks' publication flags, error slots and kill tallies belong to
    the pool and are left clean for the next call.  On the calling
    domain a pooled call therefore allocates that one record and its
    chunk closures, a few dozen minor words whatever [jobs] is, and
    nothing per chunk; at [jobs = 1] it runs [f lo hi] in place.

    Exception contract: a chunk body that raises an ordinary exception
    records it; after the barrier the {e lowest-index} failure is
    re-raised (ascending chunks = ascending node ranges, so this is the
    exception ascending sequential execution would have raised first).
    Unlike {!map}, a chunk whose worker dies ({!Chaos_kill}) is {e never
    retried} — range bodies mutate shared state in place, so the first
    kill quarantines the chunk and the call raises
    [Error.Error (Worker_death _)] with a width-independent message:
    the identical exception at every [jobs], including 1.

    Raises [Invalid_argument] if [hi < lo], on a nested or concurrent
    batch ({!map} or [run_range]) over the same pool, or after
    {!shutdown}. *)

val chunk_bounds : jobs:int -> lo:int -> hi:int -> int -> int * int
(** [chunk_bounds ~jobs ~lo ~hi i] is the half-open interval
    [(clo, chi)] that chunk [i] of a [jobs]-way {!run_range} over
    [\[lo, hi)] covers: sizes differ by at most one and concatenate to
    the whole range in ascending order.  Pure — callers use it to map a
    chunk's [clo] back to its shard index.  Raises [Invalid_argument]
    unless [0 <= i < jobs]. *)

val shutdown : t -> unit
(** Stop and join the worker domains, dead ones included.  Idempotent;
    a [jobs = 1] pool is a no-op.  Subsequent {!map} calls raise. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down on any
    exit path. *)

val default_jobs : unit -> int
(** Parallel width requested by the environment: [MAXIS_JOBS] as a
    positive integer, ["auto"] or ["0"] for
    [Domain.recommended_domain_count ()], anything else (or unset) is [1].
    The bench harness sizes its shared pool with this. *)
