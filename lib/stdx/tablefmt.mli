(** Aligned ASCII tables for the benchmark harness.

    Every experiment in [bench/main.ml] prints one of these tables; keeping
    the rendering in one place guarantees the harness output is uniform and
    machine-greppable ("| "-separated cells, one header row, a rule line). *)

type align = Left | Right

type column = { title : string; align : align }

val column : ?align:align -> string -> column
(** Default alignment is [Right] (most cells are numbers). *)

type t

val create : column list -> t
val add_row : t -> string list -> unit
(** Raises [Invalid_argument] if the row width differs from the header. *)

val render : t -> string
(** Render with a title row, a dashed rule, then rows. *)

val to_csv : t -> string
(** RFC-4180-style CSV: header row then data rows; cells containing
    commas, quotes or newlines are quoted. *)

val write_csv : ?fs:Fsio.t -> t -> string -> unit
(** [write_csv tbl path] writes {!to_csv} to a file, creating the parent
    directory if needed (one level).  The write is {!Fsio.write_atomic},
    so a crashed or killed run never leaves a truncated CSV behind, and a
    failed write or rename leaves the old file and no temp.  [fs] (default {!Fsio.real}) routes
    the I/O, so the chaos suite can fault-inject under the claim. *)

val print : ?title:string -> ?csv:string -> ?fs:Fsio.t -> t -> unit
(** [print ~title tbl] writes the table to stdout, preceded by
    ["== title =="] when a title is given.  With [~csv:path] the table is
    also saved as CSV (the machine-readable twin of every experiment
    table). *)

(** {1 Cell formatting helpers} *)

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
val cell_ratio : float -> string
(** Four-decimal ratio, e.g. achieved approximation factors. *)

val cell_bool : bool -> string
(** ["ok"] / ["FAIL"]. *)
