(** Pluggable filesystem interface with seeded fault injection.

    Every durable artifact in the repository — cache entries, sweep
    journals, CSV tables, metrics exports — claims a robustness contract
    ("writes are atomic", "corruption degrades to a miss", "appends are
    self-validating").  Those claims are only worth something if they are
    exercised against a filesystem that actually fails, so all of that
    I/O is routed through one small record of operations ({!t}) with two
    backends:

    - {!real}: the operations as [Stdlib]/[Sys] provide them;
    - {!faulty}: a wrapper around {!real} that injects {b seeded,
      exactly replayable} faults — interrupted syscalls, full disks,
      torn writes, failed renames, bit flips on read — mirroring the
      fault-plan idiom of [Congest.Faults]: two runs with the same plan
      and the same operation sequence inject byte-identical faults.

    Fault injection lives below the retry/degradation machinery
    ([Exec.Error.with_retries], miss-on-corruption reads), which is the
    point: the chaos tests assert the recovery claims {e under} injected
    faults, not around them. *)

type t = {
  read_file : string -> string;
      (** Whole-file binary read.  Raises [Sys_error] on failure. *)
  write_file : string -> string -> unit;
      (** [write_file path contents]: create/truncate and write all bytes.
          Not atomic — callers wanting atomicity use {!write_atomic}. *)
  append_line : string -> string -> unit;
      (** [append_line path chunk]: open in append mode (creating the
          file if needed), write [chunk], flush and close — one durable
          append per call. *)
  rename : string -> string -> unit;
  remove : string -> unit;
  mkdir : string -> unit;  (** One level, mode [0o755]. *)
  rmdir : string -> unit;
  file_exists : string -> bool;
  is_directory : string -> bool;
  readdir : string -> string array;
}

val real : t
(** The passthrough backend. *)

val mkdir_p : ?fs:t -> string -> unit
(** [mkdir] with parents; losing a race to a concurrent creator is not
    an error. *)

val write_atomic : ?fs:t -> string -> string -> unit
(** [write_atomic path contents] publishes [contents] at [path] all at
    once: it writes a fresh temp [.tmp-<basename>-<pid>-<seq>] in
    [path]'s directory, then renames it over [path].  A reader sees the
    old bytes or the new ones, never a prefix.  If the write or the
    rename raises, the temp is removed — the [remove] retried while the
    temp exists, up to 8 attempts — and the original exception
    re-raised.  The directory must exist. *)

val is_temp : string -> bool
(** [is_temp name]: [name] (a basename) is a {!write_atomic} temp, which
    a crash mid-publish can leave behind. *)

(** {1 Fault plans}

    Each operation draws from the plan's own seeded stream by the one
    rule in {!Inject.draw}: its applicable kinds with nonzero
    probability, in the order {!faulty} lists them, then — when the
    operation moves a non-empty payload — the prefix cut and the
    flipped bit.  A faulty run is a pure function of
    [(plan, operation sequence)]. *)

type op_fault = {
  eintr : float;
      (** the operation fails with an injected "Interrupted system
          call" [Sys_error] {e before} doing anything — the canonical
          transient failure a bounded retry must absorb *)
  enospc : float;
      (** a write persists only a prefix, then fails with "No space
          left on device" *)
  torn : float;
      (** a write persists only a prefix but {e reports success} — the
          lie a crash-before-fsync tells, which only content digests
          can catch *)
  flip : float;  (** one bit of a read's result is flipped *)
  fail_rename : float;
      (** a rename fails with an injected [Sys_error]; source and
          target are left untouched *)
}

val no_fault : op_fault

val op_fault :
  ?eintr:float ->
  ?enospc:float ->
  ?torn:float ->
  ?flip:float ->
  ?fail_rename:float ->
  unit ->
  op_fault
(** Raises [Invalid_argument] on probabilities outside [0, 1] or NaN. *)

type plan = {
  seed : int;  (** seeds the fault stream *)
  default : op_fault;  (** applies to every path *)
  overrides : (string * op_fault) list;
      (** first entry whose string is a prefix of the operation's path
          wins over [default] — scope chaos to one directory tree *)
}

val plan : ?default:op_fault -> ?overrides:(string * op_fault) list -> int -> plan
(** [plan seed] with no faults anywhere. *)

(** {1 Injection} *)

type injector
(** The plan plus its {!Inject.t} stream and per-kind injection counters.
    Thread-safe; exactly replayable only for a deterministic operation
    sequence, i.e. single-threaded use. *)

val injector : plan -> injector

val faults_injected : injector -> (string * int) list
(** Injections so far, as [(kind, count)] pairs in the fixed kind order
    [eintr | enospc | torn | flip | rename]; zero-count kinds omitted. *)

val total_injected : injector -> int

val faulty : ?on_fault:(string -> unit) -> injector -> t
(** A backend wrapping {!real} that injects the injector's plan.
    [on_fault] is called with the kind name at every injection (the exec
    layer hooks metrics here).  Which kinds apply where: reads draw
    [eintr]/[flip]; writes and appends draw [eintr]/[enospc]/[torn];
    renames draw [eintr]/[fail_rename]; [mkdir]/[remove] draw [eintr];
    queries ([file_exists], [readdir], …) are never faulted. *)
