(** Minimal, dependency-free JSON encode/decode.

    Two consumers motivate one shared implementation: the metrics
    exporters ([Obs.Export]) render JSONL and previously hand-rolled
    their string escaping, and the serving layer ([Serve]) speaks a
    newline-delimited JSON wire protocol and additionally needs a
    {e reader}.  Sharing the escaper means a metric name and a wire
    payload can never disagree about what a legal JSON string is.

    Scope: the JSON actually used in this repository — objects, arrays,
    strings, booleans, null, and numbers split into [Int] (anything that
    prints without a fraction) and [Float].  The parser accepts any
    RFC-8259 document of bounded depth; surrogate pairs in [\uXXXX]
    escapes are decoded to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** insertion order preserved *)

(** {1 Encoding} *)

val escape : string -> string
(** The escaped {e content} of a JSON string literal, without the
    surrounding quotes: ["\""], ["\\"], ["\n"], ["\t"], ["\r"] get
    two-character escapes; every other byte below [0x20] becomes
    [\u00XX]; everything else passes through verbatim (the string is
    treated as already-valid UTF-8). *)

val to_string : t -> string
(** Compact rendering: no whitespace, object fields in their list
    order.  [Int] renders with no fraction; [Float] via ["%.17g"]
    trimmed to the shortest round-tripping form.

    Non-finite floats: [nan] and [±inf] render as [null] — JSON has no
    spelling for them — so [to_string] followed by {!parse} does {e not}
    round-trip such values: a non-finite [Float] silently comes back as
    [Null].  Callers that must preserve non-finite values have to encode
    them out-of-band (e.g. as strings) before serializing. *)

(** {1 Decoding} *)

val parse : string -> (t, string) result
(** Parse one complete JSON document (leading/trailing whitespace
    allowed; anything after the document is an error).  Never raises:
    lexical, structural, and depth errors come back as
    [Error reason] with a byte offset in the reason.  Nesting is capped
    at {!max_depth}. *)

val max_depth : int
(** 128 — a wire-protocol guard, not an expressiveness limit. *)

(** {1 Accessors}

    Total accessors for picking requests apart: every function returns
    an option instead of raising, so a malformed request degrades to a
    structured error reply, never an exception. *)

val member : string -> t -> t option
(** Field of an [Obj] (first match); [None] on anything else. *)

val to_int : t -> int option
(** [Int], or a [Float] with integral value. *)

val to_bool : t -> bool option

val to_float : t -> float option
(** [Float] or [Int]. *)

val mem_str : string -> t -> string option
val mem_int : string -> t -> int option
val mem_bool : string -> t -> bool option
(** [mem_* k j] = [member k j] composed with the accessor ([mem_str]
    takes a [Str]'s contents). *)
