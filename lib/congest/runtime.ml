module Graph = Wgraph.Graph
module Csr = Wgraph.Csr
module Dynvec = Stdx.Dynvec

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

let check_broadcast_uniform round src outbox =
  match outbox with
  | [] | [ _ ] -> ()
  | (_, first) :: rest ->
      List.iter
        (fun (_, (m : Msg.t)) ->
          if m.Msg.payload <> first.Msg.payload || m.Msg.bits <> first.Msg.bits
          then raise (Non_uniform_broadcast { round; src }))
        rest

(* Metric handles are interned per (metric, algo) pair: re-deriving them
   here costs one registry lookup per run, and the per-send updates below
   are plain atomic bumps (see docs/OBSERVABILITY.md for the catalog). *)
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

(* ------------------------------------------------------------------ *)
(* Topology abstraction: one executor body serves both graph
   representations.  [t_neighbors] returns a fresh ascending array (the
   per-node view owned by the spawned instance). *)

type topo = {
  t_n : int;
  t_weight : int -> int;
  t_neighbors : int -> int array;
  t_has_edge : int -> int -> bool;
}

let topo_of_graph g =
  {
    t_n = Graph.n g;
    t_weight = Graph.weight g;
    t_neighbors = (fun v -> Stdx.Bitset.to_array (Graph.neighbors g v));
    t_has_edge = Graph.has_edge g;
  }

let topo_of_csr c =
  {
    t_n = Csr.n c;
    t_weight = Csr.weight c;
    t_neighbors = Csr.neighbors_array c;
    t_has_edge = Csr.has_edge c;
  }

(* ------------------------------------------------------------------ *)
(* Message arena: preallocated structure-of-arrays buffers reused across
   rounds instead of the historical per-round [next_inboxes] cons lists
   plus a per-round [List.sort].

   Messages append chronologically into per-destination chains.  The
   required inbox order is the historical one: ascending sender, ties in
   reverse chronological order (consing then stable-sorting by sender
   produced exactly that).  While senders arrive strictly ascending —
   the common case, since nodes step in ascending order — the chain is
   already in final order and delivery is a straight copy-out; otherwise
   the chain is sorted by (src, ord) where [ord] is descending append
   order for round sends and ascending defer order (before all same-src
   round sends) for delay-fault arrivals, reproducing the historical
   order exactly. *)

type arena = {
  mutable ar_src : int array;
  mutable ar_ord : int array;
  mutable ar_msg : Msg.t array;
  mutable ar_next : int array;
  mutable ar_used : int;
  head : int array;  (* per dst; valid when count > 0 *)
  tail : int array;
  count : int array;
  last_src : int array;
  unsorted : bool array;
  touched : int Dynvec.t;  (* dsts with a nonempty chain this round *)
  mutable scratch : int array;  (* chain slots, collected at delivery *)
}

let arena_create n =
  {
    ar_src = [||];
    ar_ord = [||];
    ar_msg = [||];
    ar_next = [||];
    ar_used = 0;
    head = Array.make (max n 1) (-1);
    tail = Array.make (max n 1) (-1);
    count = Array.make (max n 1) 0;
    last_src = Array.make (max n 1) (-1);
    unsorted = Array.make (max n 1) false;
    touched = Dynvec.create ();
    scratch = [||];
  }

let arena_append a ~dst ~src ~ord m =
  if a.ar_used = Array.length a.ar_src then begin
    let cap = max 16 (2 * a.ar_used) in
    let grow_int old =
      let b = Array.make cap 0 in
      Array.blit old 0 b 0 a.ar_used;
      b
    in
    a.ar_src <- grow_int a.ar_src;
    a.ar_ord <- grow_int a.ar_ord;
    a.ar_next <- grow_int a.ar_next;
    let msgs = Array.make cap Msg.unit_msg in
    Array.blit a.ar_msg 0 msgs 0 a.ar_used;
    a.ar_msg <- msgs
  end;
  let slot = a.ar_used in
  a.ar_used <- slot + 1;
  a.ar_src.(slot) <- src;
  a.ar_ord.(slot) <- ord;
  a.ar_msg.(slot) <- m;
  a.ar_next.(slot) <- -1;
  if a.count.(dst) = 0 then begin
    a.head.(dst) <- slot;
    a.unsorted.(dst) <- false;
    Dynvec.push a.touched dst
  end
  else begin
    a.ar_next.(a.tail.(dst)) <- slot;
    if src <= a.last_src.(dst) then a.unsorted.(dst) <- true
  end;
  a.tail.(dst) <- slot;
  a.last_src.(dst) <- src;
  a.count.(dst) <- a.count.(dst) + 1

(* Insertion sort of scratch[0, cnt) by (src asc, ord asc): chains only
   need sorting on the rare fault/multi-send paths, where counts are
   small. *)
let sort_slots a cnt =
  let s = a.scratch and src = a.ar_src and ord = a.ar_ord in
  for i = 1 to cnt - 1 do
    let x = s.(i) in
    let kx_src = src.(x) and kx_ord = ord.(x) in
    let j = ref (i - 1) in
    while
      !j >= 0
      && (src.(s.(!j)) > kx_src || (src.(s.(!j)) = kx_src && ord.(s.(!j)) > kx_ord))
    do
      s.(!j + 1) <- s.(!j);
      decr j
    done;
    s.(!j + 1) <- x
  done

(* Build dst's inbox list (head = smallest sender) and reset its chain. *)
let arena_deliver a dst =
  let cnt = a.count.(dst) in
  if Array.length a.scratch < cnt then a.scratch <- Array.make (max 16 (2 * cnt)) 0;
  let slot = ref a.head.(dst) in
  for i = 0 to cnt - 1 do
    a.scratch.(i) <- !slot;
    slot := a.ar_next.(!slot)
  done;
  if a.unsorted.(dst) then sort_slots a cnt;
  let acc = ref [] in
  for i = cnt - 1 downto 0 do
    let s = a.scratch.(i) in
    acc := (a.ar_src.(s), a.ar_msg.(s)) :: !acc
  done;
  a.count.(dst) <- 0;
  !acc

(* Drop message references so the arena doesn't retain the last round's
   payloads, and rewind. *)
let arena_reset a =
  for i = 0 to a.ar_used - 1 do
    a.ar_msg.(i) <- Msg.unit_msg
  done;
  a.ar_used <- 0;
  Dynvec.clear a.touched

(* ------------------------------------------------------------------ *)
(* List-mode executor *)

let exec ~config (program : 'out Program.t) topo trace =
  let n = topo.t_n in
  let limit = bandwidth_bits config ~n in
  let mx = metrics_for program.Program.name in
  Obs.Metrics.inc mx.m_runs;
  (* Trace faults and meter them in one move; the counter handles exist
     only for runs that actually inject. *)
  let record_fault ~round ~src ~dst ~bits ~kind =
    Obs.Metrics.inc (fault_counter program.Program.name kind);
    Trace.record_fault trace ~round ~src ~dst ~bits ~kind
  in
  let master_rng = Stdx.Prng.create config.seed in
  (* Spawn in ascending node order: per-node randomness streams are then a
     pure function of (seed, node id), which Maxis_core.Player_sim relies
     on to replay identical executions. *)
  let spawn v =
    let view =
      {
        Program.id = v;
        n;
        weight = topo.t_weight v;
        neighbors = topo.t_neighbors v;
        rng = Stdx.Prng.split master_rng;
      }
    in
    program.Program.spawn view
  in
  let instances =
    let rec build v acc =
      if v = n then List.rev acc else build (v + 1) (spawn v :: acc)
    in
    Array.of_list (build 0 [])
  in
  (* Fault machinery: the injector draws from its own stream in the
     deterministic send order below, so the faulty run replays exactly from
     (config, plan). *)
  let injector = Option.map Faults.injector config.faults in
  let crash_at = Array.make (max n 1) max_int in
  (match config.faults with
  | None -> ()
  | Some plan ->
      List.iter
        (fun (v, r) -> if v < n then crash_at.(v) <- min crash_at.(v) r)
        plan.Faults.crashes);
  let crashed = Array.make n false in
  (* Messages deferred by delay faults, keyed by the round whose inbox they
     join (a message sent at round r normally joins round r+1's inbox; a
     delay of d defers it to round r+1+d). *)
  let delayed : (int, (int * int * Msg.t) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let defer ~at ~src ~dst m =
    match Hashtbl.find_opt delayed at with
    | Some l -> l := (dst, src, m) :: !l
    | None -> Hashtbl.replace delayed at (ref [ (dst, src, m) ])
  in
  (* inboxes.(v) holds the messages delivered to v at the start of the
     current round, as (sender, msg) pairs; [filled] tracks which entries
     are nonempty so clearing costs O(deliveries), not O(n). *)
  let inboxes : (int * Msg.t) list array = Array.make n [] in
  let filled = Dynvec.create () in
  let arena = arena_create n in
  (* Per-round, per-directed-edge bit budget: [bw_used.(dst)] is live for
     the current (round, src) when stamped with the current token — an
     O(1) reset replacing the historical hashtable. *)
  let bw_used = Array.make (max n 1) 0 in
  let bw_stamp = Array.make (max n 1) (-1) in
  let token = ref 0 in
  let round = ref 0 in
  let all_halted () =
    let ok = ref true in
    for v = 0 to n - 1 do
      if not (crashed.(v) || instances.(v).Program.halted ()) then ok := false
    done;
    !ok
  in
  while !round < config.max_rounds && not (all_halted ()) do
    (* Crash-stop: scheduled nodes die at the start of the round — never
       stepped again, sending nothing; messages already in flight to them
       still deliver (into an inbox nobody reads). *)
    for v = 0 to n - 1 do
      if (not crashed.(v)) && crash_at.(v) <= !round then begin
        crashed.(v) <- true;
        record_fault ~round:!round ~src:v ~dst:v ~bits:0 ~kind:Trace.Crashed
      end
    done;
    for v = 0 to n - 1 do
      let inst = instances.(v) in
      if not (crashed.(v) || inst.Program.halted ()) then begin
        let outbox = inst.Program.step ~round:!round ~inbox:inboxes.(v) in
        (match config.mode with
        | Unicast -> ()
        | Broadcast -> check_broadcast_uniform !round v outbox);
        incr token;
        List.iter
          (fun (dst, (m : Msg.t)) ->
            if not (topo.t_has_edge v dst) then
              raise (Illegal_recipient { round = !round; src = v; dst });
            if bw_stamp.(dst) <> !token then begin
              bw_stamp.(dst) <- !token;
              bw_used.(dst) <- 0
            end;
            let total = bw_used.(dst) + m.Msg.bits in
            if total > limit then
              raise
                (Bandwidth_exceeded
                   { round = !round; src = v; dst; bits = total; limit });
            bw_used.(dst) <- total;
            Trace.observe_edge_total trace total;
            Trace.record_send trace ~round:!round ~src:v ~dst ~bits:m.Msg.bits;
            Obs.Metrics.inc mx.m_messages;
            Obs.Metrics.add mx.m_bits m.Msg.bits;
            match injector with
            | None ->
                Obs.Metrics.inc mx.m_deliveries;
                arena_append arena ~dst ~src:v ~ord:(- arena.ar_used) m
            | Some inj ->
                let deliveries, events = Faults.apply inj ~src:v ~dst m in
                List.iter
                  (fun kind ->
                    record_fault ~round:!round ~src:v ~dst ~bits:m.Msg.bits
                      ~kind)
                  events;
                List.iter
                  (fun (d, m') ->
                    Obs.Metrics.inc mx.m_deliveries;
                    if d = 0 then
                      arena_append arena ~dst ~src:v ~ord:(- arena.ar_used) m'
                    else defer ~at:(!round + 1 + d) ~src:v ~dst m')
                  deliveries)
          outbox
      end
    done;
    (* Delay faults scheduled for the next round's inboxes join now, in
       forward defer order and keyed to sort before this round's same-src
       sends — where consing placed them historically. *)
    (match Hashtbl.find_opt delayed (!round + 1) with
    | None -> ()
    | Some l ->
        List.iteri
          (fun j (dst, src, m) ->
            arena_append arena ~dst ~src ~ord:(min_int + j) m)
          (List.rev !l);
        Hashtbl.remove delayed (!round + 1));
    (* Deliver: clear the previous round's inboxes, then copy each
       touched chain out in sender order. *)
    Dynvec.iter (fun v -> inboxes.(v) <- []) filled;
    Dynvec.clear filled;
    Dynvec.iter
      (fun dst ->
        inboxes.(dst) <- arena_deliver arena dst;
        Dynvec.push filled dst)
      arena.touched;
    arena_reset arena;
    incr round
  done;
  Trace.set_rounds trace !round;
  Obs.Metrics.add mx.m_rounds !round;
  {
    outputs = Array.map (fun inst -> inst.Program.output ()) instances;
    rounds_executed = !round;
    all_halted = all_halted ();
    crashed;
    trace;
  }

let make_trace = function Some t -> t | None -> Trace.create ()

let run ?(config = default_config) ?trace (program : 'out Program.t) g =
  exec ~config program (topo_of_graph g) (make_trace trace)

let run_csr ?(config = default_config) ?trace (program : 'out Program.t) c =
  exec ~config program (topo_of_csr c) (make_trace trace)

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

let run_checked ?(config = default_config) ?trace (program : 'out Program.t) g
    =
  checked (exec ~config program (topo_of_graph g)) (make_trace trace)

(* ------------------------------------------------------------------ *)
(* Flat executor: the zero-allocation hot path for [Fastpath] programs.
   No cons lists, no tuples, no [Msg.t] on the per-round path — messages
   live in preallocated int buffers, counting-sorted into one shared
   delivery arena per round.  Fault plans and [Broadcast] mode keep to
   the list-mode executor.

   The node range [0, n) is split into contiguous chunks, one per shard:
   a single shard without a pool, [Exec.Pool.jobs pool] with one.  A
   round is four range phases — plain calls on the caller without a
   pool, {!Exec.Pool.run_range} barriers with one — arranged so the
   delivered inbox windows, and therefore outputs, round counts and
   trace digests, are byte-identical at every pool width (docs/PERF.md):

   - node [v] always lives in the same chunk (run_range splits [0, n)
     the same way every call), and every chunk owns private staging,
     tallies, bandwidth book and emitter — no cross-domain writes;
   - the merge assembles per-destination windows as
     [offs.(d) + Σ_{s' < s} counts_{s'}(d)]: shard segments concatenate
     in ascending shard = ascending source order, the (src asc, emit
     order) layout per-node inbox buffers would produce;
   - spawning stays sequential: PRNG splitting is one master stream.

   The phases: (1) stage — each shard steps its nodes against the
   previous round's windows, validates every send against its own book
   and stages it; (2) prefix pass A — each shard of the destination
   range turns the per-shard tallies into within-column prefixes and
   computes its chunk total, with the chunk bases then prefix-summed
   sequentially (O(jobs)); (3) prefix pass B — writes the global windows
   and lifts the within-column prefixes to absolute write cursors;
   (4) scatter — each shard copies its staged messages into its
   (disjoint) arena slots.

   Staging has two layouts.  Without a pool the one shard stages
   (dst, src, tag, word) quads and records each node's validated sends
   into the trace straight from its emitter.  With a pool
   (any width, 1 included) worker domains must not touch the trace — the
   Light digest is an order-sensitive fold — so shards stage
   (dst, src, tag, word, bits) quints and the calling domain replays
   them in ascending shard order after the barrier, giving the identical
   event sequence.  The fifth word and the replay pass cost ~13% on a
   dense cut-metered flood, which is why the pool-less path keeps the
   narrower layout.

   Worker deaths are never retried (a chunk mutates node state and PRNG
   streams in place, so re-running half a chunk would corrupt the run):
   the round is torn down, no trace is recorded for it, and the same
   width-independent [Error.Error (Worker_death _)] escapes at every
   [jobs], including 1.  A model violation (oversend / non-neighbor)
   under a pool replays the trace prefix the inline path would have
   recorded — every staged message of lower shards plus the failing
   shard's prefix — before re-raising, so [run_flat_checked] returns
   identical post-mortem traces with or without a pool. *)

(* Per-shard hot tallies are spread [shard_pad] ints apart so two
   domains never bump the same cache line. *)
let shard_pad = 8

let run_flat ?(config = default_config) ?trace ?alloc_probe ?pool
    (fp : 'out Fastpath.t) c =
  if Option.is_some config.faults then
    invalid_arg "Runtime.run_flat: fault plans need the list-mode runtime";
  if config.mode = Broadcast then
    invalid_arg "Runtime.run_flat: Broadcast mode needs the list-mode runtime";
  let trace = make_trace trace in
  let n = Csr.n c in
  let jobs = match pool with None -> 1 | Some p -> Exec.Pool.jobs p in
  (match alloc_probe with
  | Some p when Array.length p < jobs ->
      invalid_arg "Runtime.run_flat: alloc_probe shorter than pool width"
  | _ -> ());
  let inline = Option.is_none pool in
  let stride = if inline then 4 else 5 in
  let range f =
    match pool with
    | None -> f 0 n
    | Some p -> Exec.Pool.run_range p ~lo:0 ~hi:n f
  in
  Obs.Metrics.set g_graph_words (Csr.resident_words c);
  let limit = bandwidth_bits config ~n in
  let mx = metrics_for fp.Fastpath.fname in
  Obs.Metrics.inc mx.m_runs;
  let master_rng = Stdx.Prng.create config.seed in
  (* Same spawn order and PRNG splitting as the list-mode executor, so a
     faithful flat port is output-identical under any seed. *)
  let spawn v =
    let view =
      {
        Program.id = v;
        n;
        weight = Csr.weight c v;
        neighbors = Csr.neighbors_array c v;
        rng = Stdx.Prng.split master_rng;
      }
    in
    fp.Fastpath.fspawn view
  in
  (* [Array.init] applies [spawn] in ascending order. *)
  let instances = Array.init n spawn in
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
  (* Per-shard private state.  [sh_book] packs per-destination
     bookkeeping two-to-a-slot so each send touches one cache line:
     [book.(2d)] is the (sender, round) token stamped while marking the
     sender's CSR row — neighbor validation is then one read instead of
     a [has_edge] binary search — and [book.(2d+1)] the bits already
     sent to [d] this round, reset by the same marking pass. *)
  let sh_stage = Array.make jobs [||] in
  let sh_counts = Array.init jobs (fun _ -> Array.make (max n 1) 0) in
  let sh_book = Array.init jobs (fun _ -> Array.make (2 * max n 1) (-1)) in
  let sh_view = Array.init jobs (fun _ -> Fastpath.make_inbox ()) in
  let sh_em = Array.init jobs (fun _ -> Fastpath.make_emitter ()) in
  let sh_token = Array.make (jobs * shard_pad) 0 in
  let sh_len = Array.make (jobs * shard_pad) 0 in
  let sh_round_bits = Array.make (jobs * shard_pad) 0 in
  let sh_halted = Array.make (jobs * shard_pad) 0 in
  let sh_edge_obs = Array.make (jobs * shard_pad) 0 in
  let sh_failed = Array.make (jobs * shard_pad) 0 in
  let ct = Array.make (jobs * shard_pad) 0 in
  let cb = Array.make jobs 0 in
  (* One mark closure per shard for the whole run — allocating it per
     node-round would show up in the perf guard. *)
  let sh_mark =
    Array.init jobs (fun s ->
        let book = sh_book.(s) in
        let tok = s * shard_pad in
        fun u ->
          Array.unsafe_set book (2 * u) (Array.unsafe_get sh_token tok);
          Array.unsafe_set book ((2 * u) + 1) 0)
  in
  let round = ref 0 in
  (* Metric totals are flushed once per run, not per send: atomic bumps
     per message would dominate the otherwise allocation-free send path.
     Every delivery succeeds here (no fault plans), so messages and
     deliveries share one counter. *)
  let sent = ref 0 in
  let sent_bits = ref 0 in
  (* The inline trace of one node's first [upto] sends, read back from
     its emitter once they are validated (no-pool path only; [upto] is
     at most the emitter's length).  Called once per node, after its
     message loop, so that loop makes no trace call. *)
  let record_node rnd v (em : Fastpath.emitter) upto =
    for k = 0 to upto - 1 do
      Trace.record_send trace ~round:rnd ~src:v
        ~dst:(Array.unsafe_get em.Fastpath.e_dst k)
        ~bits:(Array.unsafe_get em.Fastpath.e_bits k)
    done
  in
  (* Phase 1: step + stage.  The hot counters live in locals, written
     back to the shard's padded slots at the end of the chunk; [sh_len]
     is also written after every emitting node and before every raise,
     since a torn shard's staged prefix is what the violation replay
     reads. *)
  let stage_body clo chi s =
    let slot = s * shard_pad in
    sh_len.(slot) <- 0;
    sh_failed.(slot) <- 0;
    let counts = sh_counts.(s) in
    Array.fill counts 0 (Array.length counts) 0;
    let view = sh_view.(s) and em = sh_em.(s) in
    let mark = sh_mark.(s) and book = sh_book.(s) in
    let rnd = !round in
    let len = ref 0 and round_bits = ref 0 and halted = ref 0 in
    let edge_obs = ref sh_edge_obs.(slot) in
    let st = ref sh_stage.(s) in
    for v = clo to chi - 1 do
      let inst = instances.(v) in
      if inst.Fastpath.fhalted () then incr halted
      else begin
        (* [offs] holds the previous round's windows (all zero before the
           first round, i.e. empty inboxes); re-aim the view since the
           arena array may have been replaced by growth. *)
        view.Fastpath.i_buf <- !arena;
        view.Fastpath.i_off <- Array.unsafe_get offs v;
        view.Fastpath.i_len <-
          Array.unsafe_get offs (v + 1) - view.Fastpath.i_off;
        em.Fastpath.e_len <- 0;
        inst.Fastpath.fstep ~round:rnd ~inbox:view em;
        let e_len = em.Fastpath.e_len in
        if e_len > 0 then begin
          let tok = sh_token.(slot) + 1 in
          sh_token.(slot) <- tok;
          Csr.iter_neighbors mark c v;
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
              sh_len.(slot) <- !len;
              if inline then record_node rnd v em k;
              raise (Illegal_recipient { round = rnd; src = v; dst })
            end;
            let bits = Array.unsafe_get e_bits k in
            let total = Array.unsafe_get book ((2 * dst) + 1) + bits in
            if total > limit then begin
              sh_len.(slot) <- !len;
              if inline then record_node rnd v em k;
              raise
                (Bandwidth_exceeded
                   { round = rnd; src = v; dst; bits = total; limit })
            end;
            Array.unsafe_set book ((2 * dst) + 1) total;
            if total > !edge_obs then edge_obs := total;
            let base = stride * !len in
            if base = Array.length !st then begin
              st := Fastpath.grow_strided ~stride !st base;
              sh_stage.(s) <- !st
            end;
            let a = !st in
            Array.unsafe_set a base dst;
            Array.unsafe_set a (base + 1) v;
            Array.unsafe_set a (base + 2) (Array.unsafe_get e_tag k);
            Array.unsafe_set a (base + 3) (Array.unsafe_get e_word k);
            if not inline then Array.unsafe_set a (base + 4) bits;
            incr len;
            round_bits := !round_bits + bits;
            Array.unsafe_set counts dst (Array.unsafe_get counts dst + 1)
          done;
          sh_len.(slot) <- !len;
          if inline then record_node rnd v em e_len
        end;
        if inst.Fastpath.fhalted () then incr halted
      end
    done;
    sh_round_bits.(slot) <- !round_bits;
    sh_halted.(slot) <- !halted;
    sh_edge_obs.(slot) <- !edge_obs
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
          sh_failed.(shard_pad * s) <- 1;
          raise e);
      match alloc_probe with
      | None -> ()
      | Some p -> p.(s) <- p.(s) +. (Gc.minor_words () -. a0)
    end
  in
  (* Phase 2 (pass A): over destination chunks — turn the per-shard
     per-dst tallies into within-column prefixes, leaving the column
     total in [col] and this chunk's grand total in [ct]. *)
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
      ct.(s * shard_pad) <- !t
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
     interleaved (src, tag, word) triples. *)
  let f_scatter clo chi =
    if clo < chi then begin
      let s = shard_of clo in
      let st = sh_stage.(s) and counts = sh_counts.(s) and a = !arena in
      for i = 0 to sh_len.(s * shard_pad) - 1 do
        let bs = stride * i in
        let dst = Array.unsafe_get st bs in
        let pos = Array.unsafe_get counts dst in
        Array.unsafe_set counts dst (pos + 1);
        let b3 = 3 * pos in
        Array.unsafe_set a b3 (Array.unsafe_get st (bs + 1));
        Array.unsafe_set a (b3 + 1) (Array.unsafe_get st (bs + 2));
        Array.unsafe_set a (b3 + 2) (Array.unsafe_get st (bs + 3))
      done
    end
  in
  (* Replay the staged quints of shards [0, last] into the trace, in
     ascending shard = source order (pool path only). *)
  let replay_sends last =
    let rnd = !round in
    for s = 0 to last do
      let st = sh_stage.(s) in
      for i = 0 to sh_len.(s * shard_pad) - 1 do
        let b = 5 * i in
        Trace.record_send trace ~round:rnd ~src:(Array.unsafe_get st (b + 1))
          ~dst:(Array.unsafe_get st b)
          ~bits:(Array.unsafe_get st (b + 4))
      done
    done
  in
  (* Trace prefix of a round torn by a model violation: every staged
     message of shards below the (lowest) failing one, then the failing
     shard's own staged prefix — exactly what the inline path had
     recorded when it raised. *)
  let replay_violation_prefix () =
    List.init jobs Fun.id
    |> List.find_opt (fun s -> sh_failed.(s * shard_pad) <> 0)
    |> Option.iter replay_sends
  in
  (* The post-barrier trace merge of the pool path.  Per-send events
     (Full mode or a registered cut) replay one by one; otherwise the
     round is recorded in bulk and the Light digest — an order-sensitive
     fold, the one inherently sequential part of the round — is re-folded
     from the staged quints in a tight loop. *)
  let record_round () =
    let rnd = !round in
    if Trace.per_send_required trace then replay_sends (jobs - 1)
    else begin
      let cnt = ref 0 and bits = ref 0 in
      for s = 0 to jobs - 1 do
        cnt := !cnt + sh_len.(s * shard_pad);
        bits := !bits + sh_round_bits.(s * shard_pad)
      done;
      Trace.record_send_bulk trace ~round:rnd ~count:!cnt ~bits:!bits;
      if !cnt > 0 then begin
        let h = ref (Trace.send_digest_state trace) in
        for s = 0 to jobs - 1 do
          let st = sh_stage.(s) in
          for i = 0 to sh_len.(s * shard_pad) - 1 do
            let b = 5 * i in
            h :=
              Trace.send_mix ~h:!h ~round:rnd
                ~src:(Array.unsafe_get st (b + 1))
                ~dst:(Array.unsafe_get st b)
                ~bits:(Array.unsafe_get st (b + 4))
          done
        done;
        Trace.set_send_digest_state trace !h
      end
    end
  in
  (* Post-round halted totals come from the shard tallies; before the
     first round there are none, so scan once. *)
  let halted_sum = ref (-1) in
  let all_halted () =
    if !halted_sum >= 0 then !halted_sum = n
    else begin
      let ok = ref true in
      for v = 0 to n - 1 do
        if not (instances.(v).Fastpath.fhalted ()) then ok := false
      done;
      !ok
    end
  in
  while !round < config.max_rounds && not (all_halted ()) do
    (match range f_stage with
    | () -> ()
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        (match e with
        | Exec.Error.Error (Exec.Error.Worker_death _) ->
            (* A torn round records no trace at any width: jobs = 1
               quarantines the kill through the same path. *)
            ()
        | _ -> if not inline then replay_violation_prefix ());
        Printexc.raise_with_backtrace e bt);
    if not inline then record_round ();
    let halted = ref 0 in
    for s = 0 to jobs - 1 do
      sent := !sent + sh_len.(s * shard_pad);
      sent_bits := !sent_bits + sh_round_bits.(s * shard_pad);
      halted := !halted + sh_halted.(s * shard_pad)
    done;
    halted_sum := !halted;
    (* Two-pass prefix-sum merge with an O(jobs) sequential seam. *)
    range f_pass_a;
    let accb = ref 0 in
    for s = 0 to jobs - 1 do
      cb.(s) <- !accb;
      accb := !accb + ct.(s * shard_pad)
    done;
    let total = !accb in
    offs.(n) <- total;
    if 3 * total > Array.length !arena then
      arena := Array.make (max 24 (2 * (3 * total))) 0;
    range f_pass_b;
    range f_scatter;
    incr round
  done;
  Trace.set_rounds trace !round;
  let edge_obs = ref 0 in
  for s = 0 to jobs - 1 do
    edge_obs := max !edge_obs sh_edge_obs.(s * shard_pad)
  done;
  Trace.observe_edge_total trace !edge_obs;
  Obs.Metrics.add mx.m_rounds !round;
  Obs.Metrics.add mx.m_messages !sent;
  Obs.Metrics.add mx.m_bits !sent_bits;
  Obs.Metrics.add mx.m_deliveries !sent;
  let stage_words =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 sh_stage
  in
  Obs.Metrics.set g_arena_peak (Array.length !arena + stage_words);
  {
    outputs = Array.map (fun inst -> inst.Fastpath.foutput ()) instances;
    rounds_executed = !round;
    all_halted = all_halted ();
    crashed = Array.make n false;
    trace;
  }

let run_flat_par ?config ?trace ?alloc_probe ~pool fp c =
  run_flat ?config ?trace ?alloc_probe ~pool fp c

let run_flat_checked ?(config = default_config) ?trace ?pool
    (fp : 'out Fastpath.t) c =
  checked (fun trace -> run_flat ~config ~trace ?pool fp c) (make_trace trace)
