(** Structured failure taxonomy + bounded retry for the execution
    engine.

    The sweeps this repository runs are hours of deterministic compute;
    the failures that threaten them are mostly {e transient} — an
    interrupted write, a racing renamer, a worker domain that failed to
    spawn under memory pressure.  The policy is uniform: classify,
    retry a bounded number of times with exponential backoff, and only
    then let the error escape (or degrade, where the caller has a sound
    degraded mode — cache writes are dropped, pools shrink). *)

type kind =
  | Cache_io of string  (** result-cache read/write/rename failure *)
  | Journal_io of string  (** sweep-journal open/append failure *)
  | Worker_death of string
      (** a pool worker domain died, could not be spawned, or a poison
          task was quarantined after killing its executors *)
  | Net_io of string
      (** a socket operation failed (accept/connect/read/write on the
          serving layer's wire or scrape sockets, whether kernel-born or
          injected by a [Stdx.Netio] fault plan) — the kind
          [Serve.Client]'s connect retries absorb *)
  | Io of string  (** other I/O (CSV writes, figure exports) *)

exception Error of kind

val to_string : kind -> string

val pp : Format.formatter -> kind -> unit

val transient : exn -> bool
(** Worth retrying?  [true] for {!Error} of any kind, [Sys_error] and
    [End_of_file]; [false] for everything else (logic errors must escape
    immediately). *)

val with_retries :
  ?attempts:int ->
  ?base_delay_s:float ->
  ?sleep:(float -> unit) ->
  label:string ->
  (unit -> 'a) ->
  'a
(** [with_retries ~label f] runs [f], retrying up to [attempts] (default
    3) total tries while {!transient} holds, sleeping
    [base_delay_s · 2ⁱ] between tries (default base 2 ms; [sleep]
    defaults to the process-wide sleep of {!set_default_sleep}).
    Every retry bumps the [exec_retries_total{label}] counter, so chaos
    runs can assert that injected transient faults were in fact
    absorbed by this policy.  Non-transient exceptions, and the last
    transient one, propagate unchanged. *)

val set_default_sleep : (float -> unit) -> unit
(** Install the process-wide backoff sleep used when a [with_retries]
    call does not pass its own.  The library default is a [Sys.time]
    clock spin (exec makes no direct unix calls); [bin/] and [bench/]
    install
    [Unix.sleepf] at startup so retry backoff yields the CPU. *)
