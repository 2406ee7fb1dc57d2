(** Offline integrity scan ("fsck") for the execution engine's on-disk
    state: the result cache tree and the sweep journals.

    The hot paths already degrade gracefully — a corrupt cache entry
    reads as a miss, a torn journal tail stops the resume load — but
    they do so {e silently}, on every run.  [fsck] makes the damage
    explicit and one-time: invalid cache entries are moved to
    [<cache_dir>/quarantine/], stray {!Fsio.write_atomic} temps
    ([.tmp-*], {!Fsio.is_temp}) from failed stores and journal repairs
    are removed, and a
    journal with a corrupt tail is atomically rewritten to its valid
    prefix with the dropped bytes preserved in
    [<journal_dir>/quarantine/<name>.dropped].  Nothing is destroyed:
    quarantined bytes stay on disk for post-mortems.

    A pass is idempotent (a second scan of a repaired tree quarantines
    nothing), and after a pass every surviving cache entry is a
    guaranteed hit for its key.  Each quarantine bumps
    [fsck_quarantined_total{kind}]. *)

type report = {
  cache_scanned : int;  (** [*.entry] files examined *)
  cache_valid : int;  (** entries passing {!Cache.validate_file} *)
  cache_quarantined : int;  (** invalid entries moved to quarantine *)
  tmp_removed : int;
      (** unpublished [.tmp-*] files removed, from the cache shards and
          the journal directory *)
  journals_scanned : int;  (** [*.journal] files examined *)
  journal_lines_valid : int;  (** digest-valid cell lines across journals *)
  journal_lines_dropped : int;  (** invalid lines truncated away *)
}

val clean : report -> bool
(** No cache entries quarantined and no journal lines dropped — the
    tree was (or now is) fully valid. *)

val pp_report : Format.formatter -> report -> unit

val run :
  ?fs:Fsio.t ->
  ?cache_dir:string ->
  ?journal_dir:string ->
  ?on_quarantine:(kind:string -> path:string -> unit) ->
  unit ->
  report
(** Scan [cache_dir] (default {!Cache.default_dir}) and [journal_dir]
    (default {!Journal.default_dir}), repairing as described above.
    Missing directories scan as empty.  [on_quarantine] is called once
    per quarantined item with the damage [kind]
    ([cache_entry], [journal_tail], [journal_header],
    [journal_unreadable]) and the offending path; quarantine kinds also
    aggregate in [fsck_quarantined_total{kind}].  Scan order is sorted,
    so reports are deterministic for a given tree. *)
