module Csr = Wgraph.Csr

exception
  Bandwidth_exceeded of {
    round : int;
    src : int;
    dst : int;
    bits : int;
    limit : int;
  }

exception Illegal_recipient of { round : int; src : int; dst : int }

exception Non_uniform_broadcast of { round : int; src : int }

type mode = Unicast | Broadcast

type config = {
  max_rounds : int;
  bandwidth_factor : int;
  mode : mode;
  seed : int;
  faults : Faults.plan option;
}

let default_config =
  {
    max_rounds = 10_000;
    bandwidth_factor = 4;
    mode = Unicast;
    seed = 42;
    faults = None;
  }

type 'out result = {
  outputs : 'out option array;
  rounds_executed : int;
  all_halted : bool;
  crashed : bool array;
  trace : Trace.t;
}

type failure_reason =
  | Oversend of { dst : int; bits : int; limit : int }
  | Non_neighbor of { dst : int }
  | Broadcast_mismatch

type failure = {
  round : int;
  src : int;
  reason : failure_reason;
  trace_prefix : Trace.t;
}

let pp_failure ppf f =
  match f.reason with
  | Oversend { dst; bits; limit } ->
      Format.fprintf ppf
        "round %d: node %d oversent to %d (%d bits > %d-bit edge budget)"
        f.round f.src dst bits limit
  | Non_neighbor { dst } ->
      Format.fprintf ppf "round %d: node %d addressed non-neighbor %d" f.round
        f.src dst
  | Broadcast_mismatch ->
      Format.fprintf ppf
        "round %d: node %d sent non-uniform messages in broadcast mode" f.round
        f.src

let bandwidth_bits config ~n = config.bandwidth_factor * Msg.id_width ~n

(* Metric handles are interned per (metric, algo) pair: re-deriving them
   here costs one registry lookup per run, and the round loop flushes its
   totals into them once per run (see docs/OBSERVABILITY.md for the
   catalog). *)
type metrics = {
  m_runs : Obs.Metrics.counter;
  m_rounds : Obs.Metrics.counter;
  m_messages : Obs.Metrics.counter;
  m_bits : Obs.Metrics.counter;
  m_deliveries : Obs.Metrics.counter;
}

let metrics_for algo =
  let labels = [ ("algo", algo) ] in
  {
    m_runs = Obs.Metrics.counter ~labels "congest_runs_total";
    m_rounds = Obs.Metrics.counter ~labels "congest_rounds_total";
    m_messages = Obs.Metrics.counter ~labels "congest_messages_total";
    m_bits = Obs.Metrics.counter ~labels "congest_bits_total";
    m_deliveries = Obs.Metrics.counter ~labels "congest_deliveries_total";
  }

(* Memory-footprint gauges for the flat executor: the resident size of
   the CSR graph being executed and the peak words held in the staging +
   delivery buffers, so large-n memory shows up in --metrics exports
   next to the time series. *)
let g_arena_peak = Obs.Metrics.gauge "runtime_arena_peak_words"

let g_graph_words = Obs.Metrics.gauge "graph_resident_words"

let fault_kind_label = function
  | Trace.Dropped -> "dropped"
  | Trace.Duplicated -> "duplicated"
  | Trace.Corrupted -> "corrupted"
  | Trace.Delayed _ -> "delayed"
  | Trace.Crashed -> "crashed"

let fault_counter algo kind =
  Obs.Metrics.counter
    ~labels:[ ("algo", algo); ("kind", fault_kind_label kind) ]
    "congest_fault_events_total"

let make_trace = function Some t -> t | None -> Trace.create ()

let checked body trace =
  match body trace with
  | result -> Ok result
  | exception Bandwidth_exceeded { round; src; dst; bits; limit } ->
      Error
        {
          round;
          src;
          reason = Oversend { dst; bits; limit };
          trace_prefix = trace;
        }
  | exception Illegal_recipient { round; src; dst } ->
      Error { round; src; reason = Non_neighbor { dst }; trace_prefix = trace }
  | exception Non_uniform_broadcast { round; src } ->
      Error { round; src; reason = Broadcast_mismatch; trace_prefix = trace }

(* ------------------------------------------------------------------ *)
(* The round loop, for [Fastpath] kernels (list-mode programs arrive
   through [Fastpath.of_program]).  No cons lists, no tuples, no [Msg.t]
   on a native kernel's per-round path — messages live in preallocated
   int buffers, counting-sorted into one shared delivery arena per
   round.  Broadcast mode wraps the kernel's step with a uniformity
   check, and a fault plan adds a delivery filter between the stage
   phase and the merge (both described where they are built), so
   neither costs a fault-free Unicast run anything per send or node.

   The node range [0, n) is split into contiguous chunks, one per shard:
   a single shard without a pool, [Exec.Pool.jobs pool] with one.  A
   round is four range phases — plain calls on the caller without a
   pool, {!Exec.Pool.run_range} barriers with one — arranged so the
   delivered inbox windows, and therefore outputs, round counts and
   trace digests, are byte-identical at every pool width (docs/PERF.md):

   - node [v] always lives in the same chunk (run_range splits [0, n)
     the same way every call), and every chunk owns private staging,
     tallies, bandwidth book, emitter and pull scratch — no cross-domain
     writes;
   - the merge assembles per-destination windows as
     [offs.(d) + Σ_{s' < s} counts_{s'}(d)]: shard segments concatenate
     in ascending shard = ascending source order, the (src asc, emit
     order) layout per-node inbox buffers would produce;
   - a pulled inbox lists the row senders among a receiver's ascending
     CSR row, one message each: the same window;
   - the kernel is instantiated once, on the caller, before the first
     round: a kernel that draws splits its streams from one master in
     ascending node order.

   The phases: (1) stage — each shard calls the kernel's [step ~v] on
   each live node (halting is read from the kernel's [halted] bytes, not
   through a call) against its inbox for the previous round, validates
   every point send against its own book, stages it and bumps its
   destination's tally, and stages a row send ([Fastpath.emit_row]) as
   one entry after one budget check, writing it into the sender's row
   record as well.  A round that staged no point send (and has no fault
   plan) and carried at least n messages ends there: next round each
   receiver pulls its inbox from its neighbours' row records, and
   phases 2-4 are skipped.  Any other round first runs a row-tally
   pass — each shard bumps the tallies of its staged rows' recipients —
   then the merge: (2) prefix pass A — each shard of the destination
   range turns the per-shard tallies into within-column prefixes and
   computes its chunk total, with the chunk bases then prefix-summed
   sequentially (O(jobs)); (3) prefix pass B — writes the global windows
   and lifts the within-column prefixes to absolute write cursors; (4)
   scatter — each shard copies its staged messages into its (disjoint)
   slots of the delivery arena, where next round's inboxes are windows.

   A staged entry is a (dst, src, tag, word, bits) quint.  A row entry
   has [dst = -1] — unambiguous, since a staged point [dst] has been
   validated into [0, n) — and its [src]'s CSR row names the
   recipients.  Rows are expanded one message at a time only where
   messages must exist one by one: the row-tally pass and scatter of a
   merged round, the fault filter, and the trace (through
   [Trace.record_row]).  Hence the per-shard tallies: [t_len] staged
   entries, [t_rows] of them rows, [t_msgs] messages.

   The trace is recorded one way, with or without a pool: after the
   stage barrier the calling domain replays the staged quints of every
   shard in ascending shard = source order.  Worker domains never touch
   the trace — the Light digest is an order-sensitive fold, and a
   registered cut or a Full log needs every (src, dst) in order — and
   the event sequence is the same at every width.  [bits] is the fifth
   word because both the replay and a fault plan's filter read a staged
   entry's size after stage.  Each shard's staged round is one
   [Trace.record_staged] call, which reads the quints in place: a Light
   trace folds the point sends into one unboxed Int64 accumulator and
   counts them (and their cut crossings) in locals, touching the
   trace's totals once per shard, and hands each row to
   [Trace.record_row].  The replay is a serial fold — four dependent
   mixes per message into a Light trace's digest — so it runs at that
   chain's latency; [Trace] computes the mix in untagged Int64,
   bit-identical to its mod-2⁶³ int definition (docs/PERF.md, "The
   Light digest's latency floor" and "Point-send replay").

   Worker deaths are never retried (a chunk mutates node state and PRNG
   streams in place, so re-running half a chunk would corrupt the run):
   the round is torn down, no trace is recorded for it, and the same
   width-independent [Error.Error (Worker_death _)] escapes at every
   [jobs], including 1.  A model violation (oversend / non-neighbor)
   replays the round's trace prefix — every staged message of lower
   shards plus the failing shard's prefix, i.e. every send validated
   before the failing one — before re-raising, so [run_flat_checked]
   returns identical post-mortem traces with or without a pool. *)

(* Per-shard hot tallies live in one int block: a leading [tally_pad]
   words, then [tally_stride] words per shard, its [tally_fields]
   tallies followed by [tally_pad] words nothing touches.  Every shard's
   tallies thus have at least 64 bytes on either side that no domain
   writes, so no two domains bump the same cache line, whatever the
   block's alignment and whatever was allocated next to it. *)
let t_token = 0 (* last (sender, round) token stamped into the book *)
let t_len = 1 (* staged entries *)
let t_msgs = 2
let t_rows = 3
let t_round_bits = 4
let t_halted = 5
let t_edge_obs = 6
let t_failed = 7
let t_ct = 8 (* pass A: the destination chunk's grand total *)
let tally_fields = 9
let tally_pad = 8
let tally_stride = tally_fields + tally_pad

(* Index of shard [s]'s first tally. *)
let tally_slot s = tally_pad + (s * tally_stride)

(* Slots of [run_flat]'s [phases] hook. *)
let phase_stage = 0
let phase_replay = 1
let phase_filter = 2
let phase_merge = 3

(* [lap phases mark i] adds the [Obs.Span.now] time since [mark.(0)] to
   phase [i] and moves the mark; [start_laps] sets it at the top of a
   round.  That clock is whatever [Obs.Span.set_clock] installed: by
   default [Sys.time], the process's CPU time summed over every domain,
   so under a pool the stage slot counts the workers' time too.
   Top-level, so that the hook allocates nothing in a run without it. *)
let start_laps phases mark =
  match phases with None -> () | Some _ -> mark.(0) <- Obs.Span.now ()

let lap phases mark i =
  match phases with
  | None -> ()
  | Some p ->
      let now = Obs.Span.now () in
      p.(i) <- p.(i) +. (now -. mark.(0));
      mark.(0) <- now

let run_flat ?(config = default_config) ?trace ?alloc_probe ?phases ?pool
    (fp : 'out Fastpath.t) c =
  let trace = make_trace trace in
  let n = Csr.n c in
  let jobs = match pool with None -> 1 | Some p -> Exec.Pool.jobs p in
  (match alloc_probe with
  | Some p when Array.length p < jobs ->
      invalid_arg "Runtime.run_flat: alloc_probe shorter than pool width"
  | _ -> ());
  (match phases with
  | Some p when Array.length p < 4 ->
      invalid_arg "Runtime.run_flat: phases shorter than 4"
  | _ -> ());
  let mark = match phases with None -> [||] | Some _ -> [| 0.0 |] in
  (match Trace.registered_cut trace with
  | Some part when Array.length part <> n ->
      invalid_arg
        (Printf.sprintf
           "Runtime.run_flat: registered cut has %d entries for %d nodes"
           (Array.length part) n)
  | _ -> ());
  let range f =
    match pool with
    | None -> f 0 n
    | Some p -> Exec.Pool.run_range p ~lo:0 ~hi:n f
  in
  let limit = bandwidth_bits config ~n in
  let mx = metrics_for fp.Fastpath.fname in
  (* One kernel instance over the whole graph, reading the CSR rows in
     place.  A kernel that draws gets one stream per node, split from
     the master in ascending order — what [Fastpath.to_program] hands
     each spawned node, so both forms draw alike. *)
  let xadj, adj = Csr.rows c in
  let store = Fastpath.make_store ~writable:(Option.is_none pool) in
  let kernel =
    fp.Fastpath.kernel
      {
        Fastpath.n;
        base = 0;
        slots = n;
        xadj;
        adj;
        weight = Csr.weight c;
        rngs =
          (fun () ->
            let master = Stdx.Prng.create config.seed in
            Array.init n (fun _ -> Stdx.Prng.split master));
        msgs = store;
      }
  in
  let halted_b = kernel.Fastpath.halted in
  (* Broadcast: a node's staged point sends must all be one message,
     checked right after its step, before any of them is recorded. *)
  let step =
    match config.mode with
    | Unicast -> kernel.Fastpath.step
    | Broadcast ->
        fun ~v ~round inbox (em : Fastpath.emitter) ->
          kernel.Fastpath.step ~v ~round inbox em;
          for k = 1 to em.Fastpath.e_len - 1 do
            if
              em.Fastpath.e_tag.(k) <> em.Fastpath.e_tag.(0)
              || em.Fastpath.e_bits.(k) <> em.Fastpath.e_bits.(0)
              || em.Fastpath.e_word.(k) <> em.Fastpath.e_word.(0)
            then raise (Non_uniform_broadcast { round; src = v })
          done
  in
  if Bytes.length halted_b < n then
    invalid_arg "Runtime.run_flat: kernel halted bytes shorter than n";
  (* Every rejection is behind us: only a run that starts counts. *)
  Obs.Metrics.set g_graph_words (Csr.resident_words c);
  Obs.Metrics.inc mx.m_runs;
  (* Chunk geometry is fixed for the run, so a chunk's lo bound inverts
     to its shard index in O(1).  Chunks that are empty (n < jobs) stay
     empty forever and their shard state is never touched. *)
  let q = n / jobs and r = n mod jobs in
  let shard_of clo =
    if q = 0 then clo
    else if clo < (q + 1) * r then clo / (q + 1)
    else r + ((clo - ((q + 1) * r)) / q)
  in
  (* Shards past [used] own empty chunks: their staging state is never
     reset by a stage phase, so the merge passes must not fold it in —
     pass B would otherwise leave stale cursors in their count arrays
     that the next round's pass A mistakes for real tallies. *)
  let used = if q = 0 then r else jobs in
  (* Global delivery state: written only between phases (arena
     replacement, offs.(n)) or in provably disjoint slots (pass B / the
     scatter).  Every node reads its messages through its shard's reused
     inbox view aimed at its [offs] window — no per-node inbox
     structures exist at all. *)
  let arena = ref [||] in
  let offs = Array.make (max n 1 + 1) 0 in
  let col = Array.make (max n 1) 0 in
  (* Pull delivery.  A row sender also writes (round, tag, word) to its
     record for the round's parity, [rowrec.(6v + 3(round land 1))]: two
     generations, because round r's receivers read round r-1's records in
     the same phase as round r's senders write theirs.  After a round
     with no point send (and no fault plan) that carried at least n
     messages, the next round's receiver reads its own CSR row and keeps
     the neighbours whose record is stamped with that round — ascending
     senders, one message each, exactly the window scatter would have
     built — copied into its shard's [sh_scratch].  [-1] stamps nothing:
     pulling starts at round 1.  [pull] changes only between phases. *)
  let rowrec = Array.make (6 * max n 1) (-1) in
  let pull = ref false in
  (* Per-shard private state.  [sh_book] packs per-destination
     bookkeeping two-to-a-slot so each send touches one cache line:
     [book.(2d)] is the (sender, round) token stamped while marking the
     sender's CSR row — neighbor validation is then one read instead of
     a [has_edge] binary search — and [book.(2d+1)] the bits already
     sent to [d] this round, reset by the same marking pass.  Row sends
     need neither: their recipients are the row, one message each. *)
  let sh_stage = Array.make jobs [||] in
  let sh_counts = Array.init jobs (fun _ -> Array.make (max n 1) 0) in
  let sh_book = Array.init jobs (fun _ -> Array.make (2 * max n 1) (-1)) in
  let sh_view = Array.init jobs (fun _ -> Fastpath.make_inbox ()) in
  let sh_scratch =
    Array.init jobs (fun _ -> Array.make (3 * Csr.max_degree c) 0)
  in
  let sh_em = Array.init jobs (fun _ -> Fastpath.make_emitter ()) in
  let tally = Array.make (tally_pad + (jobs * tally_stride)) 0 in
  let cb = Array.make jobs 0 in
  let round = ref 0 in
  (* Metric totals are flushed once per run, not per send: atomic bumps
     per message would dominate the otherwise allocation-free send path.
     Without a fault plan every message is delivered, so messages and
     deliveries share one counter. *)
  let sent = ref 0 in
  let sent_bits = ref 0 in
  (* Phase 1: step + stage.  The hot counters live in locals, written
     back to the shard's tallies at the end of the chunk; [t_len]
     is also written after every emitting node and before every raise,
     since a torn shard's staged prefix is what the violation replay
     reads. *)
  let stage_body clo chi s =
    let slot = tally_slot s in
    tally.(slot + t_len) <- 0;
    tally.(slot + t_failed) <- 0;
    let pulling = !pull and delivered = !arena and scratch = sh_scratch.(s) in
    let counts = sh_counts.(s) in
    (* A merged round leaves write cursors in the tallies; a pulled one
       leaves them zero. *)
    if not pulling then Array.fill counts 0 (Array.length counts) 0;
    let view = sh_view.(s) and em = sh_em.(s) in
    let book = sh_book.(s) in
    let rnd = !round in
    let len = ref 0 and msgs = ref 0 and round_bits = ref 0 in
    let rows = ref 0 in
    let halted = ref 0 in
    let edge_obs = ref tally.(slot + t_edge_obs) in
    let st = ref sh_stage.(s) in
    let prev = rnd - 1 and prev_rec = 3 * ((rnd - 1) land 1) in
    let cur_rec = 3 * (rnd land 1) in
    for v = clo to chi - 1 do
      if Bytes.unsafe_get halted_b v <> '\000' then incr halted
      else begin
        if pulling then begin
          let k = ref 0 in
          for r = Array.unsafe_get xadj v to Array.unsafe_get xadj (v + 1) - 1
          do
            let u = Array.unsafe_get adj r in
            let b = (6 * u) + prev_rec in
            if Array.unsafe_get rowrec b = prev then begin
              let o = 3 * !k in
              Array.unsafe_set scratch o u;
              Array.unsafe_set scratch (o + 1)
                (Array.unsafe_get rowrec (b + 1));
              Array.unsafe_set scratch (o + 2)
                (Array.unsafe_get rowrec (b + 2));
              incr k
            end
          done;
          Fastpath.aim view scratch ~off:0 ~len:!k
        end
        else begin
          (* [offs] holds the previous round's windows (all zero before
             the first round, i.e. empty inboxes). *)
          let o = Array.unsafe_get offs v in
          Fastpath.aim view delivered ~off:o
            ~len:(Array.unsafe_get offs (v + 1) - o)
        end;
        Fastpath.clear em;
        step ~v ~round:rnd view em;
        let e_len = em.Fastpath.e_len in
        if em.Fastpath.e_row then begin
          (* A row send: every recipient is a neighbour and gets exactly
             this message, so one budget check stands for the row, one
             staged entry, marked by a negative [dst], carries it, and
             the sender's record carries it to a pulling receiver. *)
          let lo = Array.unsafe_get xadj v
          and hi = Array.unsafe_get xadj (v + 1) in
          if hi > lo then begin
            let bits = Array.unsafe_get em.Fastpath.e_bits 0 in
            if bits > limit then begin
              tally.(slot + t_len) <- !len;
              raise
                (Bandwidth_exceeded
                   {
                     round = rnd;
                     src = v;
                     dst = Array.unsafe_get adj lo;
                     bits;
                     limit;
                   })
            end;
            if bits > !edge_obs then edge_obs := bits;
            let base = 5 * !len in
            if base = Array.length !st then begin
              st := Fastpath.grow_strided ~stride:5 !st base;
              sh_stage.(s) <- !st
            end;
            let a = !st in
            Array.unsafe_set a base (-1);
            Array.unsafe_set a (base + 1) v;
            Array.unsafe_set a (base + 2)
              (Array.unsafe_get em.Fastpath.e_tag 0);
            Array.unsafe_set a (base + 3)
              (Array.unsafe_get em.Fastpath.e_word 0);
            Array.unsafe_set a (base + 4) bits;
            incr len;
            incr rows;
            msgs := !msgs + (hi - lo);
            round_bits := !round_bits + ((hi - lo) * bits);
            let b = (6 * v) + cur_rec in
            Array.unsafe_set rowrec b rnd;
            Array.unsafe_set rowrec (b + 1)
              (Array.unsafe_get em.Fastpath.e_tag 0);
            Array.unsafe_set rowrec (b + 2)
              (Array.unsafe_get em.Fastpath.e_word 0);
            tally.(slot + t_len) <- !len
          end
        end
        else if e_len > 0 then begin
          let tok = tally.(slot + t_token) + 1 in
          tally.(slot + t_token) <- tok;
          (* Stamp the sender's row: neighbour validation is then one
             book read per send, and the same pass zeroes the per-edge
             bit tallies. *)
          let r0 = Array.unsafe_get xadj v in
          for r = r0 to Array.unsafe_get xadj (v + 1) - 1 do
            let u = Array.unsafe_get adj r in
            Array.unsafe_set book (2 * u) tok;
            Array.unsafe_set book ((2 * u) + 1) 0
          done;
          (* Unsafe reads/writes here are in range by construction: [k]
             is below the emitter's grown length, [dst] is range-checked
             before indexing the n-sized bookkeeping arrays, and the grow
             check precedes every staged write. *)
          let e_dst = em.Fastpath.e_dst
          and e_tag = em.Fastpath.e_tag
          and e_bits = em.Fastpath.e_bits
          and e_word = em.Fastpath.e_word in
          for k = 0 to e_len - 1 do
            let dst = Array.unsafe_get e_dst k in
            if dst < 0 || dst >= n || Array.unsafe_get book (2 * dst) <> tok
            then begin
              tally.(slot + t_len) <- !len;
              raise (Illegal_recipient { round = rnd; src = v; dst })
            end;
            let bits = Array.unsafe_get e_bits k in
            let total = Array.unsafe_get book ((2 * dst) + 1) + bits in
            if total > limit then begin
              tally.(slot + t_len) <- !len;
              raise
                (Bandwidth_exceeded
                   { round = rnd; src = v; dst; bits = total; limit })
            end;
            Array.unsafe_set book ((2 * dst) + 1) total;
            if total > !edge_obs then edge_obs := total;
            let base = 5 * !len in
            if base = Array.length !st then begin
              st := Fastpath.grow_strided ~stride:5 !st base;
              sh_stage.(s) <- !st
            end;
            let a = !st in
            Array.unsafe_set a base dst;
            Array.unsafe_set a (base + 1) v;
            Array.unsafe_set a (base + 2) (Array.unsafe_get e_tag k);
            Array.unsafe_set a (base + 3) (Array.unsafe_get e_word k);
            Array.unsafe_set a (base + 4) bits;
            incr len;
            round_bits := !round_bits + bits;
            Array.unsafe_set counts dst (Array.unsafe_get counts dst + 1)
          done;
          tally.(slot + t_len) <- !len;
          msgs := !msgs + e_len
        end;
        if Bytes.unsafe_get halted_b v <> '\000' then incr halted
      end
    done;
    tally.(slot + t_msgs) <- !msgs;
    tally.(slot + t_rows) <- !rows;
    tally.(slot + t_round_bits) <- !round_bits;
    tally.(slot + t_halted) <- !halted;
    tally.(slot + t_edge_obs) <- !edge_obs
  in
  let f_stage clo chi =
    if clo < chi then begin
      let s = shard_of clo in
      let a0 =
        match alloc_probe with None -> 0.0 | Some _ -> Gc.minor_words ()
      in
      (try stage_body clo chi s
       with
      | Exec.Pool.Chaos_kill as e -> raise e
      | e ->
          (* Model violation (or a program bug): remember which shard so
             the caller can replay the trace prefix. *)
          tally.(tally_slot s + t_failed) <- 1;
          raise e);
      match alloc_probe with
      | None -> ()
      | Some p -> p.(s) <- p.(s) +. (Gc.minor_words () -. a0)
    end
  in
  (* Before the merge of a round with point sends: each shard bumps its
     tallies for the recipients of its staged rows, which stage leaves
     out so that a row-only round never touches them. *)
  let f_row_tally clo chi =
    if clo < chi then begin
      let s = shard_of clo in
      let st = sh_stage.(s) and counts = sh_counts.(s) in
      for i = 0 to tally.(tally_slot s + t_len) - 1 do
        let bs = 5 * i in
        if Array.unsafe_get st bs < 0 then begin
          let src = Array.unsafe_get st (bs + 1) in
          for r = Array.unsafe_get xadj src
              to Array.unsafe_get xadj (src + 1) - 1 do
            let u = Array.unsafe_get adj r in
            Array.unsafe_set counts u (Array.unsafe_get counts u + 1)
          done
        end
      done
    end
  in
  (* Phase 2 (pass A): over destination chunks — turn the per-shard
     per-dst tallies into within-column prefixes, leaving the column
     total in [col] and this chunk's grand total in [t_ct]. *)
  let f_pass_a dlo dhi =
    if dlo < dhi then begin
      let s = shard_of dlo in
      let t = ref 0 in
      for d = dlo to dhi - 1 do
        let running = ref 0 in
        for s' = 0 to used - 1 do
          let cs = sh_counts.(s') in
          let c0 = Array.unsafe_get cs d in
          Array.unsafe_set cs d !running;
          running := !running + c0
        done;
        Array.unsafe_set col d !running;
        t := !t + !running
      done;
      tally.(tally_slot s + t_ct) <- !t
    end
  in
  (* Phase 3 (pass B): write the global windows and lift the per-shard
     prefixes to absolute arena write cursors. *)
  let f_pass_b dlo dhi =
    if dlo < dhi then begin
      let s = shard_of dlo in
      let acc = ref cb.(s) in
      for d = dlo to dhi - 1 do
        let o = !acc in
        Array.unsafe_set offs d o;
        for s' = 0 to used - 1 do
          let cs = sh_counts.(s') in
          Array.unsafe_set cs d (Array.unsafe_get cs d + o)
        done;
        acc := o + Array.unsafe_get col d
      done
    end
  in
  (* Phase 4: scatter each shard's staged messages into its disjoint
     arena slots ([sh_counts] now holds absolute write cursors), as
     interleaved (src, tag, word) triples; a row entry writes one triple
     per neighbour of its sender, in row order. *)
  let f_scatter clo chi =
    if clo < chi then begin
      let s = shard_of clo in
      let st = sh_stage.(s) and counts = sh_counts.(s) and a = !arena in
      for i = 0 to tally.(tally_slot s + t_len) - 1 do
        let bs = 5 * i in
        let dst = Array.unsafe_get st bs in
        let src = Array.unsafe_get st (bs + 1)
        and tag = Array.unsafe_get st (bs + 2)
        and word = Array.unsafe_get st (bs + 3) in
        if dst >= 0 then begin
          let pos = Array.unsafe_get counts dst in
          Array.unsafe_set counts dst (pos + 1);
          let b3 = 3 * pos in
          Array.unsafe_set a b3 src;
          Array.unsafe_set a (b3 + 1) tag;
          Array.unsafe_set a (b3 + 2) word
        end
        else
          for r = Array.unsafe_get xadj src
              to Array.unsafe_get xadj (src + 1) - 1 do
            let d = Array.unsafe_get adj r in
            let pos = Array.unsafe_get counts d in
            Array.unsafe_set counts d (pos + 1);
            let b3 = 3 * pos in
            Array.unsafe_set a b3 src;
            Array.unsafe_set a (b3 + 1) tag;
            Array.unsafe_set a (b3 + 2) word
          done
      done
    end
  in
  (* Record the staged quints of shards [0, last] into the trace, in
     ascending shard = source order. *)
  let replay_sends last =
    for s = 0 to last do
      Trace.record_staged trace ~round:!round ~st:sh_stage.(s)
        ~len:tally.(tally_slot s + t_len) ~xadj ~adj
    done
  in
  (* Trace prefix of a round torn by a model violation: every staged
     message of shards below the (lowest) failing one, then the failing
     shard's own staged prefix. *)
  let replay_violation_prefix () =
    List.init jobs Fun.id
    |> List.find_opt (fun s -> tally.(tally_slot s + t_failed) <> 0)
    |> Option.iter replay_sends
  in
  (* Fault plans.  The plan acts as one delivery filter on the calling
     domain, after the stage barrier and the trace replay,
     so a faulty run is the same at every pool width.  It walks the
     round's staged messages in send order — shards ascending, rows
     expanded in row order — through [Faults.apply], whose injector
     stream is therefore consumed in one fixed order, and restages what
     arrives next round into shard 0, so the merge passes deliver it
     unchanged.  Per destination that is ascending sender, messages
     released by a delay before the sender's current sends, current
     sends in emit order.  Crashes are taken at the start of a round by
     setting the node's halted byte: it is never stepped again, and
     messages in flight to it still deliver. *)
  let crashed = Array.make n false in
  let delivered = ref 0 in
  let faulty =
    Option.map
      (fun plan ->
        let crash_at = Array.make (max n 1) max_int in
        List.iter
          (fun (v, r) -> if v < n then crash_at.(v) <- min crash_at.(v) r)
          plan.Faults.crashes;
        (Faults.injector plan, crash_at))
      config.faults
  in
  let record_fault ~round ~src ~dst ~bits ~kind =
    Obs.Metrics.inc (fault_counter fp.Fastpath.fname kind);
    Trace.record_fault trace ~round ~src ~dst ~bits ~kind
  in
  let crash_due crash_at =
    for v = 0 to n - 1 do
      if (not crashed.(v)) && crash_at.(v) <= !round then begin
        crashed.(v) <- true;
        Bytes.set halted_b v '\001';
        record_fault ~round:!round ~src:v ~dst:v ~bits:0 ~kind:Trace.Crashed
      end
    done
  in
  (* Copies deferred by delay faults, newest first, each with the round
     whose inbox it joins (a send of round r normally joins round
     r+1's). *)
  let delayed = ref [] in
  let spare = ref [||] in
  let filter inj =
    let rnd = !round in
    for s = 0 to used - 1 do
      Array.fill sh_counts.(s) 0 n 0
    done;
    let counts = sh_counts.(0) in
    let out = ref !spare and len = ref 0 in
    let push ~dst ~src ~tag ~word ~bits =
      let base = 5 * !len in
      if base = Array.length !out then
        out := Fastpath.grow_strided ~stride:5 !out base;
      let a = !out in
      a.(base) <- dst;
      a.(base + 1) <- src;
      a.(base + 2) <- tag;
      a.(base + 3) <- word;
      a.(base + 4) <- bits;
      incr len;
      counts.(dst) <- counts.(dst) + 1
    in
    (* A copy of an entry staged as (tag, word), corrupted or not. *)
    let deliver ~src ~dst ~tag ~word (m : Msg.t) =
      let tag, word = Fastpath.restage store ~tag ~word m in
      push ~dst ~src ~tag ~word ~bits:m.Msg.bits
    in
    let due, later =
      List.partition (fun (at, _, _, _, _, _) -> at = rnd + 1) !delayed
    in
    delayed := later;
    let pending =
      ref
        (List.stable_sort
           (fun (_, a, _, _, _, _) (_, b, _, _, _, _) -> compare a b)
           (List.rev due))
    in
    let rec release_upto src =
      match !pending with
      | (_, s, dst, tag, word, m) :: rest when s <= src ->
          pending := rest;
          deliver ~src:s ~dst ~tag ~word m;
          release_upto src
      | _ -> ()
    in
    let attempt ~src ~dst ~tag ~word ~bits =
      release_upto src;
      let m = Fastpath.message store ~tag ~bits ~word in
      let copies, events = Faults.apply inj ~src ~dst m in
      List.iter
        (fun kind -> record_fault ~round:rnd ~src ~dst ~bits ~kind)
        events;
      List.iter
        (fun (d, m') ->
          incr delivered;
          if d > 0 then
            delayed := (rnd + 1 + d, src, dst, tag, word, m') :: !delayed
          else deliver ~src ~dst ~tag ~word m')
        copies
    in
    for s = 0 to jobs - 1 do
      let st = sh_stage.(s) in
      for i = 0 to tally.(tally_slot s + t_len) - 1 do
        let b = 5 * i in
        let dst = st.(b) and src = st.(b + 1) and tag = st.(b + 2)
        and word = st.(b + 3) and bits = st.(b + 4) in
        if dst >= 0 then attempt ~src ~dst ~tag ~word ~bits
        else
          for r = xadj.(src) to xadj.(src + 1) - 1 do
            attempt ~src ~dst:adj.(r) ~tag ~word ~bits
          done
      done;
      tally.(tally_slot s + t_len) <- 0
    done;
    release_upto max_int;
    spare := sh_stage.(0);
    sh_stage.(0) <- !out;
    tally.(tally_slot 0 + t_len) <- !len
  in
  (* Post-round halted totals come from the shard tallies; before the
     first round there are none, so scan once. *)
  let halted_sum = ref (-1) in
  let all_halted () =
    if !halted_sum >= 0 then !halted_sum = n
    else begin
      let ok = ref true in
      for v = 0 to n - 1 do
        if Bytes.get halted_b v = '\000' then ok := false
      done;
      !ok
    end
  in
  while !round < config.max_rounds && not (all_halted ()) do
    start_laps phases mark;
    Fastpath.store_advance store;
    Option.iter (fun (_, crash_at) -> crash_due crash_at) faulty;
    (match range f_stage with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (match e with
        | Exec.Error.Error (Exec.Error.Worker_death _) ->
            (* A torn round records no trace at any width: jobs = 1
               quarantines the kill through the same path. *)
            ()
        | _ -> replay_violation_prefix ());
        Printexc.raise_with_backtrace e bt);
    lap phases mark phase_stage;
    replay_sends (jobs - 1);
    lap phases mark phase_replay;
    Option.iter (fun (inj, _) -> filter inj) faulty;
    lap phases mark phase_filter;
    let halted = ref 0 and staged = ref 0 and rows = ref 0 in
    let msgs = ref 0 in
    for s = 0 to jobs - 1 do
      msgs := !msgs + tally.(tally_slot s + t_msgs);
      sent := !sent + tally.(tally_slot s + t_msgs);
      sent_bits := !sent_bits + tally.(tally_slot s + t_round_bits);
      halted := !halted + tally.(tally_slot s + t_halted);
      staged := !staged + tally.(tally_slot s + t_len);
      rows := !rows + tally.(tally_slot s + t_rows)
    done;
    halted_sum := !halted;
    (* A round without point sends, carrying at least one message per
       node on average, is pulled by its receivers next round.  A
       sparser one (a BFS frontier, a late Luby phase, a silent round)
       is cheaper to merge: pulling walks every live receiver's whole
       row whatever the round carried, merging costs O(n) passes plus
       O(messages).  A merged round's staged entries are all points
       under a fault plan, which restaged and tallied them; otherwise
       its rows' tallies are bumped first.  Then a two-pass prefix-sum
       merge with an O(jobs) sequential seam. *)
    pull := Option.is_none faulty && !staged = !rows && !msgs >= n;
    if not !pull then begin
      if Option.is_none faulty && !rows > 0 then range f_row_tally;
      range f_pass_a;
      let accb = ref 0 in
      for s = 0 to jobs - 1 do
        cb.(s) <- !accb;
        accb := !accb + tally.(tally_slot s + t_ct)
      done;
      let total = !accb in
      offs.(n) <- total;
      if 3 * total > Array.length !arena then
        arena := Array.make (max 24 (2 * (3 * total))) 0;
      range f_pass_b;
      range f_scatter
    end;
    lap phases mark phase_merge;
    incr round
  done;
  Trace.set_rounds trace !round;
  let edge_obs = ref 0 in
  for s = 0 to jobs - 1 do
    edge_obs := max !edge_obs tally.(tally_slot s + t_edge_obs)
  done;
  Trace.observe_edge_total trace !edge_obs;
  Obs.Metrics.add mx.m_rounds !round;
  Obs.Metrics.add mx.m_messages !sent;
  Obs.Metrics.add mx.m_bits !sent_bits;
  Obs.Metrics.add mx.m_deliveries
    (if Option.is_some faulty then !delivered else !sent);
  let words = Array.fold_left (fun acc a -> acc + Array.length a) 0 in
  Obs.Metrics.set g_arena_peak
    (Array.length !arena + words sh_stage + Array.length rowrec
   + words sh_scratch);
  {
    outputs = Array.init n kernel.Fastpath.output;
    rounds_executed = !round;
    all_halted = all_halted ();
    crashed;
    trace;
  }

let run_flat_par ?config ?trace ?alloc_probe ~pool fp c =
  run_flat ?config ?trace ?alloc_probe ~pool fp c

let run_flat_checked ?(config = default_config) ?trace ?pool
    (fp : 'out Fastpath.t) c =
  checked (fun trace -> run_flat ~config ~trace ?pool fp c) (make_trace trace)

let run ?config ?trace program g =
  run_flat ?config ?trace (Fastpath.of_program program) (Csr.of_graph g)

let run_checked ?config ?trace program g =
  run_flat_checked ?config ?trace (Fastpath.of_program program)
    (Csr.of_graph g)
