(** Flat CONGEST programs: the single implementation of every library
    algorithm.

    {!Program.step} speaks in [(int * Msg.t) list], which allocates a
    cons cell, a tuple and a [Msg.t] record per message per round — the
    dominant cost at n ≥ 10⁵.  A flat program stages messages as
    [(src, tag, bits, word)] int quads in preallocated buffers that
    {!Runtime.run_flat} reuses across rounds: once buffer sizes settle, a
    round allocates nothing.  test/test_perf_guard.ml pins that.

    The ports below are the sources.  {!to_program} derives the
    list-mode algorithms ({!Algo_flood}, {!Algo_bfs}, {!Algo_luby},
    {!Algo_greedy_mis}, {!Algo_gather}) from them, so [run_flat] on a CSR
    graph and [run] of the derived program on the equivalent graph
    execute the same step functions and produce the same outputs, round
    counts and traces (test/test_csr.ml pins the executors against each
    other).

    Inbox order is ascending sender, ties in emit order, under
    {!Runtime.run_flat}, and arrival order under the list-mode executor;
    the library algorithms are order-insensitive, and new flat programs
    should be too.  Fault plans and [Broadcast] mode stay on the
    list-mode executor ({!Runtime.run_flat} rejects both), which runs a
    flat program through {!to_program}. *)

(** {1 Message tags} *)

val tag_int : int
(** [word] is an integer payload of [bits] bits ([Msg.Int]). *)

val tag_true : int
(** A 1-bit [Msg.Bool true]; [word] ignored. *)

val tag_false : int
(** A 1-bit [Msg.Bool false]; [word] ignored. *)

(** {1 Buffers}

    Concrete so the executor and tests can read them; programs only ever
    index [0 .. i_len-1] and call {!emit}. *)

type inbox = {
  mutable i_buf : int array;
      (** interleaved (src, tag, word) triples: entry [k] at
          [3(i_off+k) .. 3(i_off+k)+2].  Read through
          {!in_src}/{!in_tag}/{!in_word} — the packing is a
          cache-locality contract, not an API. *)
  mutable i_off : int;
      (** window start, in entries: the executor aims one reused view at
          successive slices of its per-round delivery arena.  [0] in a
          standalone inbox. *)
  mutable i_len : int;
}

type emitter = {
  mutable e_dst : int array;
  mutable e_tag : int array;
  mutable e_bits : int array;
  mutable e_word : int array;
  mutable e_len : int;
}

val make_inbox : unit -> inbox
val make_emitter : unit -> emitter

val in_src : inbox -> int -> int
(** Sender of entry [k].  Unchecked: the caller keeps [k < i_len]. *)

val in_tag : inbox -> int -> int
val in_word : inbox -> int -> int

val emit : emitter -> dst:int -> tag:int -> bits:int -> word:int -> unit
(** Stage one message.  Amortized O(1), allocation-free once the buffer
    has grown to the program's working size. *)

val push_inbox : inbox -> src:int -> tag:int -> word:int -> unit
(** Append one (src, tag, word) entry; used by tests to build inboxes by
    hand (the executor delivers via its own counting-sort arena). *)

val grow_strided : stride:int -> int array -> int -> int array
(** Double a staging buffer of [stride]-int records (capacity stays a
    multiple of [stride]), preserving the first [len] slots.  For
    {!Runtime.run_flat}, which stages quads without a pool and quints
    with one. *)

(** {1 Programs} *)

type 'out node = {
  fstep : round:int -> inbox:inbox -> emitter -> unit;
      (** Read the inbox, stage sends into the emitter.  The emitter is
          already cleared; the inbox is only valid during the call. *)
  fhalted : unit -> bool;
  foutput : unit -> 'out option;
}

type 'out t = { fname : string; fspawn : Program.view -> 'out node }
(** Spawned from the same {!Program.view} (same neighbor arrays, same
    split PRNG streams) by every executor, so a run is output-identical
    across executors under any seed. *)

val to_program : 'out t -> 'out Program.t
(** The list-mode form of a flat program, named [fname] (metric labels
    follow the name).  Each spawned node gets its own inbox and emitter,
    so one [Program.t] may run on several domains at once.  Received
    [Msg.Int w] is delivered as [tag_int]/[w] and [Msg.Bool b] as
    [tag_true]/[tag_false], in list order; other payloads are ignored (a
    flat program never emits them, and fault injection keeps a payload's
    kind).  The emitter comes back in emit order as
    [(dst, { Msg.bits; payload })]. *)

(** {1 The library algorithms} *)

val max_id : rounds:int -> int t
(** Max-id flooding; list-mode form {!Algo_flood.max_id}. *)

val bfs_distances : root:int -> rounds:int -> int t
(** Single-source BFS distances; list-mode form {!Algo_bfs.distances}. *)

val local_maxima :
  name:string ->
  width:(Program.view -> int) ->
  draw:(Program.view -> width:int -> int) ->
  bool t
(** The "local maxima join" MIS skeleton shared by Luby and greedy MIS.
    Each 3-round phase: undecided nodes send a [width]-bit priority,
    strict local maxima of (priority, id) among still-active neighbors
    join and announce it, and their neighbors drop out and announce
    that.  [width] is computed once per node at spawn; [draw] is called
    once per phase on each still-active node, with that width, and must
    return a value below [2^width].  Output: [Some true] if the node
    joined, [Some false] if a neighbor did. *)

val luby_mis : bool t
(** {!local_maxima} with a fresh [2·⌈log n⌉]-bit random priority per
    phase; list-mode form {!Algo_luby.mis}. *)

val greedy_mis : bool t
(** {!local_maxima} with the static node weight as priority; list-mode
    form {!Algo_greedy_mis.mis}. *)
