(** Blocking line-protocol client for the serve daemon.

    The test suite, the load-generator bench and the smoke script all
    talk to the daemon through this one module, so the framing rules
    (one request per line, replies in arrival order per connection) are
    encoded exactly once.

    Every socket operation goes through a pluggable {!Netio.t} backend
    (default {!Netio.real}), so the netchaos harness can inject seeded
    faults into a live client; transient injected failures ([EINTR],
    stalls) are absorbed by the client's own retry/wait loops, exactly
    as their kernel-born counterparts are.

    Connection failures and torn sockets raise
    {!Exec.Error.Error}[ (Net_io _)] — a {e transient} kind, so
    {!connect}'s internal retry loop and any caller-side
    {!Exec.Error.with_retries} wrapper both apply to it. *)

type t

val connect : ?retries:int -> ?netio:Netio.t -> Proto.addr -> t
(** Dial the daemon, retrying transient connection failures
    ([retries] attempts total, default 5, geometric backoff via
    {!Exec.Error.with_retries}) — a client racing daemon startup is the
    normal case in scripts.  Raises [Error (Net_io _)] when the daemon
    never answers. *)

val close : t -> unit
(** Idempotent. *)

val send : t -> Proto.request -> unit
(** Encode and write one request line. *)

val send_raw : t -> string -> unit
(** Write an arbitrary line (malformed-input tests).  A terminating
    newline is appended. *)

val send_bytes : t -> string -> unit
(** Write bytes verbatim — {e no} newline appended.  Partial-frame and
    slow-loris tests dribble request fragments through this. *)

val recv : t -> Proto.reply
(** Block for the next reply line and decode it.  Raises
    [Error (Net_io _)] on EOF or a reply that does not decode — a
    healthy daemon never sends one.  The EOF message distinguishes a
    {e clean eof} (the connection died on a frame boundary — a drained
    daemon) from a {e torn mid-frame} disconnect (partial reply bytes
    were buffered — a fault), so logs can tell shutdown from breakage. *)

val recv_raw : t -> string
(** The next reply line, undecoded. *)

val request : t -> Proto.request -> Proto.reply
(** {!send} then {!recv} — the one-shot convenience for closed-loop
    callers. *)

val scrape : ?netio:Netio.t -> Proto.addr -> string
(** Connect to the metrics listener and return the Prometheus body (the
    HTTP header block is stripped).  Permissive: a torn scrape yields
    the bytes that arrived. *)
