(** Content-addressed on-disk result cache.

    Exact maximum-weight independent-set solves dominate every sweep in
    the harness; their results depend only on (family, parameters, input)
    and never change, so they are perfect cache fodder.  An entry is keyed
    by the MD5 digest of a canonical string built from the cache schema
    version, the gadget family, the printed parameter pack, a seed, and a
    solver identifier (plus an optional extra component, typically the
    digest of a generated input vector).  Digests depend on nothing but
    that string, so keys are stable across processes and machines.

    Robustness contract:
    - writes are atomic ([Fsio.write_atomic]: temp file + rename in the
      same directory), so a crashed or concurrent run never leaves a
      half-written entry visible;
    - reads are corruption-tolerant: an unreadable, truncated, digest-
      mismatched or key-mismatched entry is a {e miss} (counted in
      [errors]), never an exception;
    - a {!disabled} cache never touches the filesystem, so [--no-cache]
      runs are byte-identical to cached runs modulo the counters.

    All operations are safe to call from {!Pool} tasks running on several
    domains: counters are mutex-protected and entry files are written
    under unique temporary names. *)

type t

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable errors : int;  (** corrupt / unreadable entries tolerated *)
  mutable bytes_read : int;
  mutable bytes_written : int;
}

val schema_version : int
(** Bumping this invalidates every existing entry (it is part of the
    key). *)

val default_dir : string
(** ["results/cache"]. *)

val create : ?fs:Fsio.t -> ?dir:string -> unit -> t
(** A live cache rooted at [dir] (default {!default_dir}).  The directory
    is created lazily on the first store.  [fs] (default {!Fsio.real})
    routes every filesystem operation — the chaos suite passes
    {!Fsio.chaos} here to exercise the corruption-tolerance claims under
    injected faults. *)

val disabled : unit -> t
(** A cache that never hits and never stores; all counters stay 0. *)

val enabled : t -> bool

val stats : t -> stats
(** Live counters of this cache value (shared, mutated in place). *)

val pp_stats : Format.formatter -> stats -> unit

(** {1 Keys} *)

type key

val key :
  ?extra:string ->
  family:string ->
  params:string ->
  seed:int ->
  solver:string ->
  unit ->
  key
(** Canonical key of one solved instance.  [extra] carries anything else
    the result depends on — conventionally [fingerprint] of the generated
    input. *)

val canonical : key -> string
(** The canonical string the digest is computed from (embeds
    {!schema_version}). *)

val digest_hex : key -> string
(** 32-char lowercase MD5 hex of {!canonical}; the entry's address. *)

val fingerprint : string -> string
(** MD5 hex of an arbitrary string — the conventional way to fold a
    printed input vector into [?extra]. *)

(** {1 Lookup and storage} *)

val find : t -> key -> string option
(** The stored payload, or [None] (miss).  Never raises. *)

val store : t -> key -> string -> unit
(** Atomically persist [payload] under [key].  IO failures are counted in
    [errors] and otherwise ignored — the cache is an accelerator, never a
    correctness dependency. *)

val memo : t -> key -> (unit -> string) -> string
(** [memo t k compute] is [find t k], or [compute ()] stored under [k]. *)

val memo_value :
  t ->
  key ->
  encode:('a -> string) ->
  decode:(string -> 'a option) ->
  (unit -> 'a) ->
  'a
(** Typed {!memo}: a payload that [decode] rejects counts as a corrupt
    entry (miss + error) and is recomputed. *)

val clear : t -> unit
(** Delete every entry under the cache directory (and the directory
    itself).  A disabled cache is a no-op. *)

val mkdir_p : ?fs:Fsio.t -> string -> unit
(** [mkdir] with parents, racing-writer tolerant.  Shared with
    {!Journal} (and anything else persisting under [results/]). *)

val validate_file : ?fs:Fsio.t -> string -> (string, string) result
(** [validate_file path] structurally checks one on-disk entry without a
    key in hand: magic line, header shape, payload digest, and that the
    file's basename matches the MD5 of the canonical key it claims to
    hold.  [Ok canonical] when sound; [Error reason] otherwise.  The
    scanner behind [maxis_lb fsck] ({!Fsck}). *)
