(** Exporters for {!Metrics} snapshots and {!Span} profile trees.

    Three formats, all rendered from an immutable snapshot so exporting
    never perturbs the instruments it reports:

    - {b JSON lines}: one object per sample —
      [{"name":"cache_hits_total","labels":{},"type":"counter","value":3}]
      — written atomically ([Stdx.Fsio.write_atomic], like
      [Stdx.Tablefmt.write_csv]) so a killed run never leaves a truncated
      export.  The conventional home is [results/metrics/*.jsonl].
    - {b table}: the repo's aligned ASCII table, for humans.
    - {b Prometheus text} (exposition format 0.0.4): for scraping or
      diffing against fleet dashboards.

    Sample order in every format is the snapshot's deterministic order. *)

val jsonl : Metrics.snapshot -> string
val prometheus : Metrics.snapshot -> string
val table : Metrics.snapshot -> string

val write : ?fs:Stdx.Fsio.t -> string -> string -> unit
(** [write path contents]: [Stdx.Fsio.write_atomic], creating the parent
    directory if needed.  Raises [Sys_error] on unwritable targets; a
    failed write or rename leaves the old file and no temp.
    [fs] (default [Stdx.Fsio.real]) routes the I/O for fault-injection
    tests. *)

val write_jsonl : ?fs:Stdx.Fsio.t -> string -> Metrics.snapshot -> unit
(** [write (jsonl snap)] — the [--metrics] exporter of [maxis_lb]. *)

val spans_csv : Span.tree list -> string
(** Per-phase CSV: [phase,wall_s,counts] rows, depth-first with
    slash-joined paths ([counts] as [;]-joined [k=v] pairs). *)

val json_escape : string -> string
(** Exposed for tests: minimal JSON string escaping (backslash, quote,
    control characters). *)
