(** Crash-safe sweep journal: which cells of a parameter sweep are done.

    A sweep is a set of {e cells} — one [(family, params, seed, solver)]
    result each, addressed by the same {!Cache.key} the result cache
    uses.  The journal under [results/journal/<run_id>.journal] records
    each cell the moment it completes, via a self-validating atomic
    append, so a killed run (SIGKILL included — no handler needed) can be
    resumed: journaled cells are skipped and their values re-materialize
    from {!Cache}, and the resumed run's outputs are byte-identical to an
    uninterrupted run's.

    Division of labor with {!Cache}: the cache stores {e values} keyed by
    content, shared across runs; the journal stores {e completion} of one
    named run.  [record] is called only after the value is safely in the
    cache, so "journaled" implies "re-materializable" (and if the cache
    was cleared meanwhile, the cell merely recomputes — identical bytes
    either way, by the cache-transparency contract).

    Loading tolerates a torn final line (the only damage a crash
    mid-append can cause): parsing stops at the first line whose digest
    does not re-derive, and the cells after it simply re-run. *)

type t

val default_dir : string
(** [results/journal]. *)

val disabled : unit -> t
(** Records nothing, completes nothing; all operations are no-ops. *)

val open_ :
  ?fs:Fsio.t -> ?dir:string -> ?resume:bool -> run_id:string -> unit -> t
(** [open_ ~run_id ()] opens (creating directories as needed)
    [dir/<run_id>.journal].  With [resume = true] (default) an existing
    file is loaded — its cells report {!completed} — and appends extend
    it; with [resume = false] an existing file is truncated and the run
    starts fresh.  [run_id] must match [[A-Za-z0-9._-]+].  All I/O goes
    through [fs] (default {!Fsio.real}); each {!record} is one
    open-append-close, so no file handle outlives a call.  Raises
    {!Error.Error} [(Journal_io _)] if the file cannot be opened or is
    not a journal. *)

val enabled : t -> bool

val path : t -> string option

val record : t -> Cache.key -> unit
(** Mark the cell complete: one atomic append + flush (retried on
    transient failure), deduplicated against cells already recorded or
    loaded.  Thread-safe. *)

val completed : t -> Cache.key -> bool

val memo : t -> Cache.t -> Cache.key -> (unit -> string) -> string
(** [memo j cache key compute] is {!Cache.memo} followed by {!record}:
    the sweep-cell idiom.  On a resumed run a journaled cell is answered
    by the cache without recomputing (counted in {!skipped_count}). *)

val memo_value :
  t ->
  Cache.t ->
  Cache.key ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  (unit -> 'a) ->
  'a
(** Typed {!memo}, via {!Cache.memo_value}. *)

val resumed_count : t -> int
(** Cells loaded from an existing journal at {!open_} — 0 on a fresh
    run. *)

val appended_count : t -> int
(** Cells recorded by this process. *)

val skipped_count : t -> int
(** {!memo} calls answered for already-journaled cells. *)

val close : t -> unit

val pp_stats : Format.formatter -> t -> unit
(** Lock-free (safe inside signal handlers). *)

(** {1 Format introspection (for {!Fsck})} *)

val magic : string
(** The header line a journal file must start with. *)

val parse_line : string -> string option
(** [parse_line l] is [Some digest_hex] iff [l] is a structurally valid
    journal line whose digest re-derives from its escaped canonical key;
    [None] for torn or foreign lines. *)

val split_lines : string -> string list
(** Split raw file bytes on ['\n']; a final non-terminated chunk (a torn
    append) is returned as-is and will fail {!parse_line}. *)

val valid_prefix : string list -> (string * string) list
(** [(line, digest)] for the leading run of individually valid lines;
    stops at the first invalid one — everything after it is
    untrusted. *)

(** {1 Termination} *)

val on_termination : (int -> unit) -> unit
(** [on_termination f] installs SIGINT/SIGTERM handlers that run [f
    signal] (exceptions swallowed) and then [exit] with the conventional
    code (130 for SIGINT, 143 for SIGTERM) — which runs [at_exit] hooks,
    so pools shut down and counters print.  Use it to flush partial
    tables and point the user at [--resume].  Journal appends themselves
    need no handler: they are already durable per cell. *)

val signal_exit_code : int -> int
