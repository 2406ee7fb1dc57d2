(** Execution traces: the bit accounting behind the simulation theorem.

    Theorem 5's proof counts the bits a CONGEST algorithm sends across the
    player partition: [O(T · |cut| · log |V|)].  The runtime records every
    directed send with its declared size, so after a run one can ask for
    total bits, per-round bits, per-directed-edge bits, and — the key
    quantity — bits crossing an arbitrary node partition.

    When the runtime executes under a fault plan ({!Faults.plan}) it also
    records every injected event (drop, duplication, corruption, delay,
    crash) alongside the sends, so {e attempted} traffic (what Theorem 5's
    [T·|cut|·B] cap bounds) and {e delivered} traffic (what actually
    reached the inboxes) can be metered separately.

    {b Streaming accumulation.}  Every aggregate that does not depend on a
    post-hoc partition — round counts, total/per-round bits and messages,
    per-kind fault bits — is maintained as a running scalar updated in
    O(1) per recorded event; queries read the accumulator, never fold the
    log.  Partition-shaped queries are also O(1) when the partition is
    registered at {!create} time (the player cut always is), and fall back
    to a fold over the retained log otherwise.  In {!Light} mode the log
    is not retained at all: memory stays O(rounds + cut sides) regardless
    of message volume, which is what lets flat runs reach n = 10⁵–10⁶,
    and the few genuinely log-shaped queries raise. *)

type t

type send = { round : int; src : int; dst : int; bits : int }

(** How an injected fault perturbed a recorded send (or, for [Crashed], a
    node). *)
type fault_kind =
  | Dropped  (** the message was not delivered *)
  | Duplicated  (** a second copy was delivered *)
  | Corrupted  (** the payload was bit-flipped before delivery *)
  | Delayed of int  (** delivery deferred by this many extra rounds *)
  | Crashed  (** the node (src = dst) stopped executing this round *)

type fault = { round : int; src : int; dst : int; bits : int; kind : fault_kind }

type mode =
  | Full
      (** Retain the complete send/fault log (structure-of-arrays, four
          int vectors) alongside the streamed aggregates.  Every query
          below is available, and {!digest} equals the historical
          replay-digest values.  The default. *)
  | Light
      (** Streamed aggregates only; the log is discarded as it is
          recorded.  O(rounds) memory at any message volume.  Queries
          that need the log ({!send_events}, {!fault_events},
          {!bits_on_edge}, and cut queries for a partition
          other than the registered one) raise [Invalid_argument]. *)

val create : ?mode:mode -> ?cut:int array -> unit -> t
(** [create ()] is a [Full] trace with no registered cut — drop-in for
    the historical [create].  [~cut:part] registers the node partition
    whose crossing traffic should be streamed: subsequent [cut_*] queries
    against that same partition are O(1) reads and work in [Light] mode.
    The array is captured, not copied; don't mutate it mid-run.  Raises
    [Invalid_argument] when a side in it is negative. *)

val mode : t -> mode

val registered_cut : t -> int array option

val record_send : t -> round:int -> src:int -> dst:int -> bits:int -> unit
(** Records one send.  In [Light] mode it folds [round], [src], [dst]
    and [bits], in that order, into the send digest through four
    dependent mixes, each [((h lxor x) * 0x100000001b3) lxor (h lsr 29)]
    on 63-bit ints (mod 2⁶³); the fold runs in untagged [Int64], whose
    low 63 bits equal that definition bit for bit, and allocates
    nothing. *)

val record_row :
  t -> round:int -> src:int -> adj:int array -> lo:int -> hi:int -> bits:int ->
  unit
(** [record_row t ~round ~src ~adj ~lo ~hi ~bits] records [bits] from
    [src] to each of [adj.(lo) .. adj.(hi - 1)], in that order: every
    query afterwards reads exactly as after the {!record_send} fold
    over the row.  In [Full] mode it is that fold; in [Light] mode it
    updates the totals and the open round once, then makes one pass
    over the row that folds the digest per recipient and counts the
    row's crossings of the registered cut.  That pass keeps the digest
    in one unboxed [Int64] (the {!record_send} fold, mod 2⁶³, untagged)
    and counts crossings without a branch.  [lo >= hi] records
    nothing.  {!record_staged} hands it every staged row. *)

val record_staged :
  t -> round:int -> st:int array -> len:int -> xadj:int array ->
  adj:int array -> unit
(** [record_staged t ~round ~st ~len ~xadj ~adj] records one shard's
    staged round, [len] quints [(dst, src, tag, word, bits)] laid out
    as [st.(5i) .. st.(5i + 4)] for [i < len].  [dst >= 0] is a point
    send of [bits] from [src] to [dst]; [dst < 0] is a row: [bits] from
    [src] to each of [adj.(xadj.(src)) .. adj.(xadj.(src + 1) - 1)].
    [tag] and [word] are not read.  Every query afterwards reads exactly
    as after the {!record_send} / {!record_row} fold over the quints in
    order.  In [Full] mode it is that fold.  In [Light] mode the point
    sends fold into one unboxed [Int64] digest accumulator, their
    message, bit and cut-crossing counts stay in locals, [by_side] is
    written per crossing, and the totals, the open round and the cut's
    per-round vector are touched once per call; a row goes through
    {!record_row} in place, so the fold order is unchanged.  [len = 0]
    records nothing.  {!Runtime.run_flat} replays each shard's staged
    round through it. *)

val send_digest_state : t -> int
(** Current Light-mode send-digest accumulator (also defined, but
    unused by {!digest}, in [Full] mode). *)

val record_fault :
  t -> round:int -> src:int -> dst:int -> bits:int -> kind:fault_kind -> unit
(** Recorded by the runtime for every injected event; [bits] is the size of
    the affected message (0 for [Crashed]). *)

val observe_edge_total : t -> int -> unit
(** The runtime reports each per-(round, directed edge) running total it
    already tracks for bandwidth enforcement; the trace keeps the max so
    {!max_bits_per_edge_round} works without the log in [Light] mode. *)

val rounds : t -> int
(** Number of rounds that sent or could have sent messages (1 + highest
    recorded round index; 0 when nothing was recorded). *)

val set_rounds : t -> int -> unit
(** The runtime stamps the actual executed round count (which can exceed
    the last round that sent a message). *)

val total_messages : t -> int
val total_bits : t -> int

val bits_in_round : t -> int -> int
val messages_in_round : t -> int -> int
(** O(1) reads of the streamed per-round accumulators (0 outside the
    recorded range). *)

val bits_on_edge : t -> src:int -> dst:int -> int
(** Directed accumulation over the whole run: one fold over the
    retained log per query.  Needs the log: raises in [Light] mode. *)

val cut_bits : t -> int array -> int
(** [cut_bits tr part] is the number of bits sent on edges whose endpoints
    lie in different parts — the blackboard cost of simulating the run in
    the multi-party model.  This counts {e attempted} sends: Theorem 5's
    cap bounds what the algorithm emits, whether or not an adversarial
    link then dropped it.  O(1) when [part] is the registered cut;
    otherwise a fold over the log ([Full] mode only). *)

val cut_messages : t -> int array -> int

val cut_bits_by_side : t -> int array -> int array
(** [cut_bits_by_side tr part]: slot [p] holds the bits {e written} by
    player [p] — attempted sends with [part.(src) = p] crossing the cut.
    Array length is [1 + max part value]; [Array.fold_left (+)] over it
    equals {!cut_bits}.  This is the per-player split of the Theorem-5
    blackboard currency, exported per player by [Core.Simulation]'s
    metrics. *)

val cut_bits_by_round : t -> int array -> int array
(** Per-round cut-crossing bits (length {!rounds}); sums to {!cut_bits}. *)

val max_bits_per_edge_round : t -> int
(** The largest per-(round, directed edge) total — must be at most the
    configured bandwidth (the runtime enforces it; the trace re-derives it
    for tests).  In [Light] mode this reads the {!observe_edge_total}
    maximum instead of re-deriving. *)

(** {1 The send log} *)

val send_events : t -> send array
(** All recorded sends in recording order (a fresh copy).  Raises in
    [Light] mode.  This is what the golden tests fold over to check the
    streamed accumulators. *)

(** {1 Injected-fault accounting} *)

val total_faults : t -> int

val fault_events : t -> fault array
(** All injected events in recording order (a copy).  Raises in [Light]
    mode. *)

val dropped_bits : t -> int
(** Bits of recorded sends that a fault plan then dropped. *)

val duplicated_bits : t -> int
(** Extra bits delivered beyond the recorded sends (one duplicate copy per
    [Duplicated] event). *)

val corrupted_bits : t -> int

val cut_bits_dropped : t -> int array -> int
(** Cut-crossing bits the plan dropped: the injected-lost share of
    {!cut_bits}. *)

val cut_bits_duplicated : t -> int array -> int

val cut_bits_delivered : t -> int array -> int
(** Cut-crossing bits that actually arrived:
    [cut_bits - cut_bits_dropped + cut_bits_duplicated]. *)

(** {1 Replay digest} *)

val digest : t -> int64
(** A deterministic digest over the executed round count, every recorded
    send and every injected event.  Two runs with identical
    [(config, plan)] produce identical digests — the replay guarantee the
    fault layer is tested against.  [Full] traces produce the historical
    fold-based values; [Light] traces stream an equivalent (but
    numerically different) digest as events arrive: the send and fault
    accumulators and their final combine with the round count are
    folds of the {!record_send} mix, defined mod 2⁶³ and computed in
    untagged [Int64].  test_congest's [Light digests pinned] case,
    perfbench's self-test and test_golden pin its values. *)

val pp : Format.formatter -> t -> unit
