(** Pluggable socket interface with seeded fault injection — the network
    sibling of {!Fsio}.

    The serving layer ([lib/serve]) claims the same kind of robustness
    contracts for its sockets that the storage layer claims for its
    files: a torn or stalled peer costs one connection, partial reads
    and writes are re-assembled, transient syscall failures are
    absorbed, and a replicated client fails over on [Net_io].  Those
    claims are only worth something when exercised against sockets that
    actually fail, so the daemon and the client route every socket
    operation through one small record ({!t}) with two backends:

    - {!real}: [Unix.accept]/[Unix.connect]/[Unix.read]/
      [Unix.write_substring] as the OS provides them;
    - {!faulty}: a wrapper around {!real} that injects {b seeded,
      exactly replayable} faults — interrupted syscalls, connection
      refusals, mid-frame resets, short reads, torn (partial) writes and
      stalls — mirroring the fault-plan idiom of [Congest.Faults] and
      {!Fsio}: the injected fault stream is a pure function of the plan
      seed and the operation sequence.

    Injected failures are raised as genuine [Unix.Unix_error]s (with
    ["injected"] as the syscall argument), so they travel the exact
    error paths real sockets use — the daemon's [EAGAIN]/[EINTR]
    branches and the client's reconnect logic.

    Replay caveat (same as {!Fsio}): the stream is exactly replayable
    only for a deterministic operation sequence.  Live sockets make the
    {e number} of reads timing-dependent, so replay assertions belong on
    scripted op sequences (socketpairs with all bytes pre-written);
    against live connections, assert absorption invariants instead. *)

type t = {
  accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr;
  connect : Unix.file_descr -> Unix.sockaddr -> unit;
  read : Unix.file_descr -> bytes -> int -> int -> int;
      (** [read fd buf off len]: up to [len] bytes, [0] at EOF. *)
  write : Unix.file_descr -> string -> int -> int -> int;
      (** [write fd s off len]: bytes actually written (possibly a
          prefix — callers loop). *)
}

val real : t
(** The passthrough backend. *)

(** {1 Fault plans}

    Each operation draws from the plan's own seeded stream by the one
    rule in {!Inject.draw}: its applicable kinds with nonzero
    probability, in the order {!faulty} lists them, fired or not, then —
    when the read or write asks for a non-empty buffer — the prefix cut.
    The stream position depends only on the operation sequence, never on
    which faults happened to fire. *)

type op_fault = {
  eintr : float;
      (** the operation fails with injected [EINTR] before doing
          anything — the canonical transient failure retry loops must
          absorb (applies to all four operations) *)
  refuse : float;
      (** a connect fails with injected [ECONNREFUSED] — a replica that
          is down; what the client's connect retries exist for *)
  reset : float;
      (** a read or write fails with injected [ECONNRESET] — the peer
          vanished mid-frame; the daemon must drop exactly one
          connection *)
  short_read : float;
      (** a read is silently truncated to a 1-byte-minimum prefix of
          what was asked — exercises line reassembly across fragments *)
  torn_write : float;
      (** a write accepts only a 1-byte-minimum prefix and reports the
          short count — exercises write loops (progress is guaranteed:
          at least one byte lands, so loops terminate) *)
  stall : float;
      (** a read or write fails with injected [EAGAIN] — the kernel
          buffer lied about readiness; nonblocking loops must treat it
          as "try later", blocking callers must wait and retry *)
}

val no_fault : op_fault

val op_fault :
  ?eintr:float ->
  ?refuse:float ->
  ?reset:float ->
  ?short_read:float ->
  ?torn_write:float ->
  ?stall:float ->
  unit ->
  op_fault
(** Raises [Invalid_argument] on probabilities outside [0, 1] or NaN. *)

type plan = {
  seed : int;  (** seeds the fault stream *)
  default : op_fault;  (** applies to every operation *)
  overrides : (string * op_fault) list;
      (** first entry naming the operation ([accept] | [connect] |
          [read] | [write]) wins over [default] — scope chaos to one
          side of the conversation *)
}

val plan : ?default:op_fault -> ?overrides:(string * op_fault) list -> int -> plan
(** [plan seed] with no faults anywhere. *)

(** {1 Injection} *)

type injector
(** The plan plus its {!Inject.t} stream and per-kind injection counters.
    Thread-safe; exactly replayable only for a deterministic operation
    sequence. *)

val injector : plan -> injector

val faults_injected : injector -> (string * int) list
(** Injections so far, as [(kind, count)] pairs in the fixed kind order
    [eintr | refuse | reset | short_read | torn_write | stall];
    zero-count kinds omitted. *)

val total_injected : injector -> int

val faulty : ?on_fault:(string -> unit) -> injector -> t
(** A backend wrapping {!real} that injects the injector's plan.
    [on_fault] is called with the kind name at every injection (the
    serve layer hooks [netio_faults_injected_total{kind}] here).  Which
    kinds apply where: accepts draw [eintr]; connects draw
    [eintr]/[refuse]; reads draw [eintr]/[reset]/[stall]/[short_read];
    writes draw [eintr]/[reset]/[stall]/[torn_write]. *)
