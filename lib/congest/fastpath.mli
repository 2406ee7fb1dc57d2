(** Flat CONGEST programs: the single implementation of every library
    algorithm, written as kernels.

    {!Program.step} speaks in [(int * Msg.t) list], which allocates a
    cons cell, a tuple and a [Msg.t] record per message per round — the
    dominant cost at n ≥ 10⁵.  A flat program stages messages as
    [(dst, tag, bits, word)] int quads in preallocated buffers that
    {!Runtime.run_flat} reuses across rounds: once buffer sizes settle, a
    round allocates nothing.  test/test_perf_guard.ml pins that.

    {b The kernel contract.}  A program is instantiated once per run
    over a {!shape}: a block of node slots with their CSR rows.  It
    allocates its state there as per-slot arrays (indexed by node slot)
    and per-edge arrays (indexed by row position, the edge slot), and
    returns one {!kernel}:
    - [step ~v ~round inbox em] runs node slot [v] for one round: read
      the inbox, stage sends into the (already cleared) emitter, reading
      neighbours straight from the row [adj.(xadj.(v)) ..
      adj.(xadj.(v+1) - 1)].  It touches only slot [v]'s entries and the
      edge slots of its row, so the executor may step disjoint node
      ranges on different domains.
    - A node's round sends either one {e row} — {!emit_row}, the same
      message to every neighbour of its row, in row order — or any
      number of {e point} sends ({!emit}), each to a named neighbour.
      Mixing the two in one round raises [Invalid_argument] at the
      second call, on both engines.  A row costs the executor one
      staged entry and no per-edge validation (every recipient is a
      neighbour by construction), and a busy round in which no node
      point-sends is delivered with no per-message copy at all (its
      receivers pull the rows), so a kernel whose round is "tell every
      neighbour" should use it; a kernel that sends different words to
      different neighbours (gather) uses point sends.
    - [halted] is read by the executor, never through a call: a node
      whose byte is nonzero is skipped.
    - [output v] is slot [v]'s current output; {!Runtime.run_flat}
      reads it once per node, when the run ends.
    - A kernel that draws randomness calls [shape.rngs] once, at
      instantiation; one that never draws need not.

    {!Runtime.run_flat}, the only round loop, instantiates a kernel over
    the whole CSR graph (slot = node id).  {!to_program} derives the
    list-mode algorithms ({!Algo_flood}, {!Algo_bfs}, {!Algo_luby},
    {!Algo_greedy_mis}, {!Algo_gather}, {!Algo_coloring},
    {!Algo_matching}, {!Algo_convergecast}) by instantiating it per
    spawned node over that node's own row — one node slot, [deg] edge
    slots.  {!of_program} goes the other way: it runs any list-mode
    program (the derived forms above, and {!Faults.harden} and ad hoc
    test programs, which have no native kernel) as a kernel, shipping
    each [Msg.t] as one [tag_msg] entry.  {!Runtime.run} is [run_flat]
    over [of_program], so a flat program and its [to_program] form
    produce the same outputs, round counts and traces under any config
    (test/test_csr.ml pins this; test/test_golden.ml pins the
    fingerprints).

    Inbox order is ascending sender, ties in emit order; fault plans
    place messages released by a delay before their sender's current
    sends.  The library algorithms are order-insensitive, and new flat
    programs should be too. *)

(** {1 Message tags} *)

val tag_int : int
(** [word] is an integer payload of [bits] bits ([Msg.Int]). *)

val tag_true : int
(** A 1-bit [Msg.Bool true]; [word] ignored. *)

val tag_false : int
(** A 1-bit [Msg.Bool false]; [word] ignored. *)

(** A fourth tag, [tag_msg], is internal: its [word] names a [Msg.t] in
    the run's {!store}, and only {!of_program} sends it. *)

(** {1 Buffers} *)

type inbox
(** The messages a node receives in one round: entries [0 ..
    in_len - 1], read through {!in_src}/{!in_tag}/{!in_word}.  The
    executor alone decides where a view points (a window of a delivery
    arena, or a per-round copy of the senders' row records): a program
    reads entries, never storage. *)

type emitter = {
  mutable e_dst : int array;
  mutable e_tag : int array;
  mutable e_bits : int array;
  mutable e_word : int array;
  mutable e_len : int;
  mutable e_row : bool;
      (** set by {!emit_row}: entry 0 (with [e_len = 1]) is one message
          to every neighbour, and its [e_dst] slot is meaningless.
          Cleared together with [e_len] by {!clear}. *)
}

val make_inbox : unit -> inbox
(** An empty inbox. *)

val make_emitter : unit -> emitter

val aim : inbox -> int array -> off:int -> len:int -> unit
(** [aim b buf ~off ~len] points [b] at the [len] entries of [buf]
    starting at entry [off], stored as interleaved (src, tag, word)
    triples: entry [k] at [3(off+k) .. 3(off+k)+2].  For the executor;
    [buf] must hold [3(off+len)] ints. *)

val in_len : inbox -> int
(** Number of entries. *)

val in_src : inbox -> int -> int
(** Sender of entry [k].  Unchecked: the caller keeps [k < in_len]. *)

val in_tag : inbox -> int -> int
val in_word : inbox -> int -> int

val in_int : inbox -> int -> int
(** The word of entry [k] if it is a [tag_int] entry, else [-1]. *)

val clear : emitter -> unit
(** Empty the emitter: [e_len] and [e_row] together.  The executors
    call it before every step. *)

val emit : emitter -> dst:int -> tag:int -> bits:int -> word:int -> unit
(** Stage one point send.  Amortized O(1), allocation-free once the
    buffer has grown to the program's working size.  Raises
    [Invalid_argument] when [bits < 0], and when a [tag_int] message
    does not carry its word within its declared width, as
    {!Msg.int_msg} demands ([word] negative, or [bits < 63] and
    [word ≥ 2^bits]), so no send ships more bits than it is charged
    for.  Also raises [Invalid_argument] after an {!emit_row} in the
    same round. *)

val emit_row : emitter -> tag:int -> bits:int -> word:int -> unit
(** Stage one message to each neighbour of the sender's row, in row
    order: [deg] messages of [bits] bits each, so message, bit and
    trace totals count [deg] sends.  A degree-0 node's row sends and
    charges nothing.  Raises [Invalid_argument] on the same sizes as
    {!emit}, and when anything is already staged this round (a point
    send or another row).  An over-budget row raises
    [Runtime.Bandwidth_exceeded] naming the first row neighbour, with
    none of the row in the trace — what the per-edge sends would have
    raised. *)

val grow_strided : stride:int -> int array -> int -> int array
(** Double a staging buffer of [stride]-int records (capacity stays a
    multiple of [stride]), preserving the first [len] slots.  For
    {!Runtime.run_flat}, which stages [(dst, src, tag, word, bits)]
    quints, and for the inbox buffer's triples. *)

(** {1 The message store} *)

type store
(** The [Msg.t] values that [tag_msg] words name, for one run.  A word
    stays readable for the round after the one that staged it: two
    generations alternate by round. *)

val make_store : writable:bool -> store
(** {!Runtime.run_flat} makes a writable store without a pool and a
    read-only one with a pool, so a [tag_msg] send never races. *)

val store_advance : store -> unit
(** Start the next round: rewind the generation staged two rounds ago.
    The executor calls it once per round, before the stage phase. *)

val message : store -> tag:int -> bits:int -> word:int -> Msg.t
(** The [Msg.t] a staged entry carries: the stored message for
    [tag_msg], [Msg.Int word] for [tag_int], [Msg.Bool] for
    [tag_true]/[tag_false], and a contentless [Msg.Unit] for any other
    tag.  Fault plans corrupt this value. *)

val restage : store -> tag:int -> word:int -> Msg.t -> int * int
(** [restage s ~tag ~word m]: the [(tag, word)] that stages [m], a copy
    (possibly corrupted, hence of the same payload kind) of an entry
    staged as [(tag, word)].  A [tag_msg] copy gets a fresh word in
    [s] (raising [Invalid_argument] on a read-only store); an [Int] or
    [Bool] is re-encoded; anything else keeps [(tag, word)]. *)

(** {1 Programs} *)

type shape = {
  n : int;  (** nodes in the network *)
  base : int;  (** global id of node slot 0; slot [v] is node [base + v] *)
  slots : int;  (** node slots *)
  xadj : int array;
      (** [slots + 1] row offsets, [xadj.(0) = 0]: slot [v]'s edge slots
          are [xadj.(v) .. xadj.(v+1) - 1], [xadj.(slots)] in all.
          Read-only. *)
  adj : int array;
      (** global neighbour ids by edge slot, each row ascending.
          Read-only. *)
  weight : int -> int;  (** weight of a node slot *)
  rngs : unit -> Stdx.Prng.t array;
      (** one private stream per slot, split from the run's master
          stream in ascending node order — the streams {!to_program}
          hands the same nodes.  Call at most once. *)
  msgs : store;  (** the run's message store, for {!of_program} *)
}

type 'out kernel = {
  step : v:int -> round:int -> inbox -> emitter -> unit;
      (** Run node slot [v] for one round.  The emitter is already
          cleared; the inbox is only valid during the call. *)
  halted : Bytes.t;
      (** One byte per slot, nonzero once the node has halted; written
          by [step], read by the executor. *)
  output : int -> 'out option;  (** the output of a node slot *)
}

type 'out t = { fname : string; kernel : shape -> 'out kernel }
(** A named kernel.  [fname] labels metrics. *)

val to_program : 'out t -> 'out Program.t
(** The list-mode form of a flat program, named [fname] (metric labels
    follow the name).  Each spawned node instantiates the kernel over its
    own row — [base] its id, one slot, its view's neighbours, weight and
    stream — and gets its own inbox and emitter, so one [Program.t] may
    run on several domains at once.  Received [Msg.Int w] is delivered as
    [tag_int]/[w] and [Msg.Bool b] as [tag_true]/[tag_false], in list
    order; other payloads are ignored (a flat program never emits them,
    and fault injection keeps a payload's kind).  The emitter comes back
    in emit order as [(dst, { Msg.bits; payload })]; a row comes back as
    one such pair per neighbour, in row order.  The kernel's shape has a
    read-only store. *)

val of_program : 'out Program.t -> 'out t
(** The flat form of a list-mode program, named like it.  Each node slot
    spawns its instance over its own row, in ascending slot order, with
    the stream [shape.rngs] gives it.  Each round, a slot's inbox is
    rebuilt as a list (ascending sender) from its [tag_msg] entries, and
    its outbox goes out as point sends: tag [tag_msg], the message's
    declared [bits], and a word naming it in [shape.msgs].  Messages
    equal to the node's first of the round share its word.  The halted
    byte mirrors the instance's [halted ()] after each step.  Under a
    pool the store is read-only, so a node that sends raises
    [Invalid_argument].  Every library algorithm also has a native
    kernel, which needs no store; only {!Faults.harden} (whose 131-bit
    frame has no word encoding) and ad hoc test programs have none. *)

val find_slot : int array -> int -> int -> int -> int
(** [find_slot adj lo hi x]: the edge slot of neighbour [x] in the
    ascending row [adj.(lo) .. adj.(hi - 1)], or [-1].  A binary search,
    for kernels that keep per-neighbour state and must map an inbox
    sender to its edge slot. *)

(** {1 The library algorithms} *)

val max_id : rounds:int -> int t
(** Max-id flooding; list-mode form {!Algo_flood.max_id}. *)

val bfs_distances : root:int -> rounds:int -> int t
(** Single-source BFS distances; list-mode form {!Algo_bfs.distances}. *)

(** Luby and greedy MIS share one "local maxima join" skeleton.  Each
    3-round phase: undecided nodes send a priority, strict local maxima
    of (priority, id) among still-active neighbors join and announce it,
    and their neighbors drop out and announce that.  Output: [Some true]
    if the node joined, [Some false] if a neighbor did. *)

val luby_mis : bool t
(** The local-maxima skeleton with a fresh [2·⌈log n⌉]-bit random
    priority per phase; list-mode form {!Algo_luby.mis}. *)

val greedy_mis : bool t
(** The local-maxima skeleton with the static node weight as priority;
    list-mode form {!Algo_greedy_mis.mis}. *)
