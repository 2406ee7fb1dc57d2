(** Cooperative compute budgets for long-running solves.

    A budget caps a search by {b node count} (deterministic: the solver
    counts its own explored nodes and compares against the cap, so the
    outcome is a pure function of the instance and the cap — never of
    scheduling) and/or by a {b clock deadline} (inherently
    non-deterministic; best-effort, checked every [every] nodes).  A
    shared {b cancellation token} lets one exhausted search stop its
    siblings promptly: [Maxis_core.Verification.claim_checks] hands one
    budget to every claim it runs on a pool, and a deadline trip in any
    claim cancels the rest.

    Budgets carry no spend state of their own — callers keep their own
    counters and ask {!check}.  This is what lets one budget value be
    shared by concurrent searches without a shared (and
    order-dependent) tally. *)

type reason =
  | Nodes  (** the node cap was exceeded (deterministic) *)
  | Deadline  (** the clock deadline passed (best-effort) *)
  | Cancelled  (** the shared token was tripped by a sibling or caller *)

type t

val unlimited : t
(** The budget that never exhausts.  {!check} on it is one physical
    comparison, so threading it through a hot loop costs nothing — a
    solver run under [unlimited] behaves instruction-for-instruction
    like an unbudgeted one. *)

val create :
  ?max_nodes:int ->
  ?deadline_s:float ->
  ?clock:(unit -> float) ->
  ?every:int ->
  unit ->
  t
(** [create ~max_nodes ~deadline_s ()] — both caps optional.
    [deadline_s] is seconds from now as measured by [clock] (default
    [Sys.time], i.e. CPU seconds; pass [Unix.gettimeofday] for wall
    clock).  [every] (default 256) is how many nodes pass between
    token/clock checkpoints; the node cap itself is checked on every
    call.  Raises [Invalid_argument] on non-positive caps. *)

val check : t -> nodes:int -> reason option
(** [check t ~nodes] — is a search that has explored [nodes] nodes still
    within budget?  [Some reason] means stop now.  The node cap is
    compared on every call; the token and clock only when
    [nodes mod every = 0].  A deadline trip cancels the shared token as
    a side effect. *)

val cancel : t -> unit
(** Trip the token: every searcher sharing this budget reports
    [Cancelled] at its next checkpoint. *)

val cancelled : t -> bool

val reason_to_string : reason -> string

val pp : Format.formatter -> t -> unit

val fingerprint : t -> string
(** Stable description of the budget's caps for cache keys: budgeted
    results must never collide with unbudgeted ones.  [""] iff the
    budget has neither a node cap nor a deadline. *)
