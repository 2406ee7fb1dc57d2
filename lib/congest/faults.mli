(** Seeded, deterministic fault injection for the CONGEST runtime.

    The paper's lower bounds hold against {e any} CONGEST algorithm, so the
    runtime that referees the Theorem-5 simulation must not be an
    over-polite scheduler: this module lets a run face adversarial links —
    per-link message {b drop}, {b duplication}, {b bit-corruption} and
    bounded {b delay} — plus per-node {b crashes}, all driven by one
    splitmix64 stream seeded by the plan.  Every faulty execution is
    exactly replayable from [(config, plan)]: two runs with the same seed
    and plan produce byte-identical traces, injected events included
    (see {!Trace.digest}).

    Fault injection is {e out of model} for the paper's lower bound (the
    adversary there is the input, not the network) but {e in model} for
    validating the referee: the bit accounting that Theorems 1–2 rest on
    must hold up when the scheduler stops being polite. *)

(** Per-directed-link fault probabilities, drawn independently per
    message. *)
type link_fault = {
  drop : float;  (** probability the message is not delivered *)
  duplicate : float;  (** probability a second copy is delivered *)
  corrupt : float;  (** probability one payload bit is flipped *)
  max_delay : int;  (** delivery deferred by uniform [0, max_delay] rounds *)
}

val no_fault : link_fault

val link :
  ?drop:float ->
  ?duplicate:float ->
  ?corrupt:float ->
  ?max_delay:int ->
  unit ->
  link_fault
(** Raises [Invalid_argument] on probabilities outside [0,1] (NaN
    included) or negative delay. *)

type plan = {
  seed : int;  (** seeds the fault stream — independent of [config.seed] *)
  default : link_fault;  (** applies to every directed link *)
  links : ((int * int) * link_fault) list;
      (** per-directed-link overrides, [(src, dst)] keyed *)
  crashes : (int * int) list;
      (** [(node, round)]: the node stops executing at the start of the
          round (crash-stop; messages already in flight still deliver) *)
}

val plan :
  ?default:link_fault ->
  ?links:((int * int) * link_fault) list ->
  ?crashes:(int * int) list ->
  int ->
  plan
(** [plan seed] with no faults anywhere; raises [Invalid_argument] on
    negative crash nodes or rounds. *)

val crash_round : plan -> node:int -> int option
(** Earliest scheduled crash round for the node, if any. *)

val pp_plan : Format.formatter -> plan -> unit

(** {1 Injection} — consumed by {!Runtime}; exposed for tests. *)

type injector
(** The plan plus its live PRNG stream.  Decisions are drawn in the
    runtime's deterministic iteration order, making the whole faulty run a
    pure function of [(config, plan)]. *)

val injector : plan -> injector

val apply :
  injector -> src:int -> dst:int -> Msg.t -> (int * Msg.t) list * Trace.fault_kind list
(** [apply inj ~src ~dst m] decides the fate of one attempted send:
    returns the copies to deliver as [(extra_delay_rounds, message)] pairs
    (empty when dropped, two entries when duplicated, payload perturbed
    when corrupted) together with the injected events to record. *)

val corrupt_msg : Stdx.Prng.t -> Msg.t -> Msg.t
(** Flip one payload bit (the declared size is unchanged). *)

(** {1 Reliable delivery} *)

val harden : ?linger:int -> 'out Program.t -> 'out Program.t
(** [harden p] wraps every node of [p] with per-link sequence-numbered
    ack/retransmit logic (stop-and-wait, cumulative acks, 16-bit checksums
    against corruption) and an end-of-round barrier, so the inner program
    observes exactly the fault-free synchronous semantics even under
    drop/duplicate/corrupt/delay plans — while the runtime meters the (now
    much larger) bit cost.  Robustness is bought with communication, the
    very currency the paper's lower bounds price.

    Each hardened node sends at most one 131-bit frame per link per round,
    so the config's [bandwidth_factor] must allow 131 bits per edge-round.
    Inner messages must declare at most 20 bits.  Crashes are not masked
    (a crashed node is gone, not slow).  [linger] (default 8) is how many
    quiet rounds a finished node waits before halting, so that peers whose
    final acks were lost can still be answered; raise it for plans with
    long delays. *)
