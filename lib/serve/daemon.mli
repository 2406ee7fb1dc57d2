(** The `maxis_lb serve` daemon: a batched, budgeted, cache-backed solve
    service.

    One single-threaded event loop owns every socket: it accepts
    connections on the wire address, reads newline-delimited JSON
    requests ({!Proto}), admits each through {!Exec.Admission} (per-
    request {!Exec.Budget} node caps + a global in-flight window;
    overload and over-ceiling budgets get structured [rejected] replies,
    never a hang), batches the admitted compute ops, fans each batch out
    over an {!Exec.Pool} (one request = one sequential budgeted solve,
    so payloads are width-independent), answers warm requests straight
    from {!Exec.Cache}, and writes replies back in arrival order per
    connection.  A second listener serves the Prometheus rendering of
    the process metrics registry to any connection that scrapes it.

    Failure containment: a request whose execution raises gets an
    [error] reply and the connection lives on; a task that kills its
    pool worker ({!Exec.Pool.Chaos_kill} — enabled only with
    [allow_chaos]) is absorbed by pool supervision and, if quarantined,
    the batch re-executes on the event loop so only the poison request
    errors.  Socket failures are classified as
    {!Exec.Error.kind.Net_io}: a dead client costs its connection,
    nothing else.

    Connection lifecycle (a deadline watchdog over sockets; every
    deadline reads the injectable [clock]): at most
    [max_conns] connections are held at once — excess accepts are shed
    with a structured error line and closed, never silently dropped; a
    connection holding a partial request line longer than
    [read_deadline_s] without new bytes is evicted (slow-loris); a
    connection with pending output that accepts no bytes for
    [write_deadline_s] is evicted (slow writer — the generalization of
    the scrape write deadline); a connection with no traffic and nothing
    owed for [idle_timeout_s] is evicted.  Evictions are counted in
    [serve_evictions_total{reason="idle"|"slow-writer"|"capacity"|"drain"}]
    and the live connection count is the [serve_conns] gauge.  All
    socket operations go through the pluggable [netio] record, so the
    netchaos harness can inject seeded faults ({!Serve.Netio.chaos}) on
    a live daemon.

    Shutdown: {!stop} (or SIGINT/SIGTERM in the CLI wrapper, which calls
    it) drains — listeners close, already-received bytes are parsed,
    every admitted request runs to its terminal reply (budget caps bound
    the wait), buffers flush for at most [drain_deadline_s], sockets
    close, the pool shuts down.  Metrics: [serve_*] counters/gauges/
    histograms, catalogued in docs/SERVING.md. *)

type config = {
  listen : Proto.addr;
  metrics : Proto.addr option;  (** scrape listener; off when [None] *)
  jobs : int;  (** pool width for batch dispatch *)
  cache : Exec.Cache.t;
  max_inflight : int;  (** admission window, across all connections *)
  default_budget_nodes : int;  (** node cap when a request names none *)
  max_budget_nodes : int;  (** requests asking above this are rejected *)
  max_line_bytes : int;
      (** longer request lines are answered with an error and skipped;
          the connection survives *)
  batch_max : int;  (** most requests one pool batch may carry *)
  tick_s : float;  (** event-loop poll period (drain/stop latency) *)
  allow_chaos : bool;  (** honor [chaos-kill] requests (tests/benches) *)
  max_conns : int;
      (** connection cap; accepts beyond it are shed with a structured
          error reply and counted as [capacity] evictions *)
  idle_timeout_s : float;
      (** a connection with no traffic and nothing owed either way for
          this long is evicted ([idle]) *)
  read_deadline_s : float;
      (** a partial request line must grow within this long of its last
          byte, or the connection is evicted ([idle]) — the slow-loris
          bound *)
  write_deadline_s : float;
      (** pending output must make progress within this long, or the
          connection is evicted ([slow-writer]); also bounds scrape
          responses and capacity-shed error lines *)
  drain_deadline_s : float;
      (** grace period for flushing replies during shutdown drain;
          connections still holding bytes at the deadline are dropped
          and counted as [drain] evictions *)
  netio : Netio.t;
      (** socket backend; {!Netio.real} in production,
          {!Serve.Netio.chaos} under fault injection *)
  clock : unit -> float;
      (** time source for deadlines, admission, and latency metrics;
          injectable for deterministic lifecycle tests *)
}

val default_config : ?cache:Exec.Cache.t -> listen:Proto.addr -> unit -> config
(** jobs 1, no metrics listener, disabled cache unless given, window 64,
    default budget 1M nodes, ceiling 4M, 1 MiB lines, batches of 64,
    20 ms ticks, chaos off, 1024 connections, 300 s idle timeout, 30 s
    read deadline, 5 s write deadline, 5 s drain deadline, real sockets,
    [Unix.gettimeofday]. *)

type t

val create : config -> t
(** Bind and listen on the configured addresses (an existing Unix-domain
    socket {e file} at the path is replaced if stale).  Raises
    {!Exec.Error.Error}[ (Net_io _)] when a socket cannot be bound, and
    [Invalid_argument] on [jobs < 1] or [max_conns < 1]. *)

val run : t -> unit
(** The blocking event loop; returns after {!stop} has been honoured and
    the drain completed.  Idempotent sockets cleanup: the Unix socket
    files are unlinked on exit.  May be called once. *)

val stop : t -> unit
(** Request graceful drain; safe from signal handlers and other threads
    or domains.  {!run} returns once every in-flight request has its
    terminal reply. *)

val stopped : t -> bool

val requests_served : t -> int
(** Terminal replies written over the daemon's lifetime (ok + rejected +
    error) — a convenience for tests; the full picture is in the
    [serve_*] metrics. *)
