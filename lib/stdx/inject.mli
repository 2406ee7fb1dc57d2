(** The seeded fault stream behind {!Fsio.faulty} and {!Netio.faulty}.

    One splitmix64 stream per injector, consumed by one rule, so a
    faulty run is a pure function of [(seed, operation sequence)]: each
    operation hands {!draw} its applicable kinds in a fixed order, each
    with the probability its plan gives it, plus the bounds of any
    auxiliary values it needs (a prefix cut, a bit index). *)

val is_prob : float -> bool
(** [p] lies in [0, 1]; [false] on NaN. *)

val check_prob : what:string -> string -> float -> unit
(** [check_prob ~what name p] raises [Invalid_argument "<what>: <name>=<p>
    not a probability"] unless [is_prob p]. *)

type t
(** A seeded stream plus per-kind injection counters.  Thread-safe (one
    mutex around the stream); exactly replayable only for a
    deterministic operation sequence. *)

val create : kinds:string array -> int -> t
(** [create ~kinds seed]: [kinds] names every kind {!draw} may fire,
    in the order {!faults_injected} reports them. *)

val draw :
  t ->
  ?on_fault:(string -> unit) ->
  (string * float) list ->
  bounds:int array ->
  string option * int array
(** [draw t probs ~bounds] decides one operation.  Each [(kind, p)] of
    [probs] with [p > 0] takes one draw, in listed order, whether or not
    an earlier kind fired; zero-probability kinds take none.  Then each
    positive bound [b] takes one draw uniform in [\[0, b)] (a
    non-positive bound takes none and yields [0]).  Returns the first
    kind that fired, counted and passed to [on_fault] (outside the
    lock), and the auxiliary values in [bounds] order. *)

val faults_injected : t -> (string * int) list
(** Injections so far as [(kind, count)] pairs in [kinds] order;
    zero-count kinds omitted. *)

val total_injected : t -> int
