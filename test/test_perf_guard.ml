(* Allocation-regression guard for the zero-allocation CONGEST hot path.

   [Runtime.run_flat] stages messages in preallocated int buffers and the
   Light trace streams scalars, with or without a pool, so once buffer sizes settle a round
   allocates (next to) nothing on the minor heap.  Any per-message record,
   tuple or cons creeping back into the hot path shows up as thousands of
   minor words per round — orders of magnitude above the pinned ceiling.

   Methodology: flood on a cycle propagates for ~n/2 rounds at 2 messages
   per node per round, so two runs of the same workload differing only in
   round count isolate the steady-state per-round cost — spawn cost,
   buffer growth and the measurement harness cancel in the difference. *)

module Build = Wgraph.Build
module Csr = Wgraph.Csr

let cycle_csr n = Csr.of_graph (Build.cycle n)

let minor_words_for ?cut ?pool rounds c =
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let fp = Congest.Fastpath.max_id ~rounds in
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light ?cut () in
  let before = Gc.minor_words () in
  let result = Congest.Runtime.run_flat ~config ~trace ?pool fp c in
  let after = Gc.minor_words () in
  Alcotest.(check int) "ran all rounds" rounds result.Congest.Runtime.rounds_executed;
  after -. before

(* The cycle is long enough that the max id is still propagating in every
   measured round: message volume stays at 2 per node per round. *)
let n = 512
let short_rounds = 40
let long_rounds = 200

(* Ceiling in minor words per steady-state round.  The true settled cost
   is ~0; 256 gives slack for GC bookkeeping while staying far below the
   ~3 words x 1024 messages a single per-message allocation would add. *)
let ceiling_words_per_round = 256.0

let check_flat_alloc_per_round ?cut ?pool what =
  let c = cycle_csr n in
  (* Warm-up run settles shared metric handles and any lazy state. *)
  ignore (minor_words_for ?cut ?pool 8 c);
  let short = minor_words_for ?cut ?pool short_rounds c in
  let long = minor_words_for ?cut ?pool long_rounds c in
  let per_round =
    (long -. short) /. float_of_int (long_rounds - short_rounds)
  in
  if per_round > ceiling_words_per_round then
    Alcotest.failf
      "flat hot path%s allocates %.1f minor words/round (ceiling %.0f): a \
       per-message allocation has crept back in"
      what per_round ceiling_words_per_round

let test_flat_alloc_per_round () = check_flat_alloc_per_round ""

(* The same bar with the cut registered, as the gadget flood of
   perfbench's gadget-cut runs: every row is classified against the cut
   as it is recorded.  Alternating sides put every edge of the cycle on
   the cut. *)
let test_flat_cut_alloc_per_round () =
  check_flat_alloc_per_round ~cut:(Array.init n (fun v -> v land 1))
    " (cut-metered trace)"

(* Under a pool the calling domain records every round into the trace
   after the stage barrier, replaying the shards' staged entries, and
   drives the barriers themselves, each of which allocates one small
   batch record (see the run_range case).  Its whole-run minor words (minor
   heaps are per-domain, so this is the caller's share only) are held
   to the same ceiling, with the cut registered so the replay classifies
   every send. *)
let test_par_replay_alloc_per_round () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      check_flat_alloc_per_round ~pool
        ~cut:(Array.init n (fun v -> v land 1))
        " (calling domain, 2-pool, cut-metered trace)")

(* The pool-less path above is pinned whole-run; with a pool the
   executor must hold the same bar per domain: once arenas settle, a
   shard's stage phase allocates nothing.  [alloc_probe]
   accumulates each shard's own minor-word delta around its stage body
   (measured on the domain that ran the chunk — minor heaps are
   per-domain), so the long-minus-short difference isolates the settled
   per-round cost of every shard at once.  The per-domain ceiling is
   tighter than the whole-run one: a shard touches only its node range,
   so there is even less bookkeeping to hide behind. *)
let per_domain_ceiling = 64.0

let par_minor_words_for pool probe rounds c =
  Array.fill probe 0 (Array.length probe) 0.0;
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let fp = Congest.Fastpath.max_id ~rounds in
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
  let result =
    Congest.Runtime.run_flat ~config ~trace ~alloc_probe:probe ~pool fp c
  in
  Alcotest.(check int)
    "ran all rounds" rounds result.Congest.Runtime.rounds_executed;
  Array.copy probe

let test_par_stage_alloc_per_round () =
  let c = cycle_csr n in
  let jobs = 4 in
  Exec.Pool.with_pool ~jobs (fun pool ->
      let probe = Array.make jobs 0.0 in
      ignore (par_minor_words_for pool probe 8 c);
      let short = par_minor_words_for pool probe short_rounds c in
      let long = par_minor_words_for pool probe long_rounds c in
      let dr = float_of_int (long_rounds - short_rounds) in
      Array.iteri
        (fun s _ ->
          let per_round = (long.(s) -. short.(s)) /. dr in
          if per_round > per_domain_ceiling then
            Alcotest.failf
              "shard %d of %d stages %.1f minor words/round (ceiling %.0f): \
               the parallel stage phase is no longer allocation-free"
              s jobs per_round per_domain_ceiling)
        probe)

(* Every [Exec.Pool.run_range] call installs one fresh batch record
   (its own claim counter, completion count and chunk closures) and
   reuses the pool's publication flags, error slots and kill tallies,
   so on the calling domain a barrier costs a few dozen minor words
   whatever the width; anything allocated per chunk would grow with
   [jobs]. *)
let test_run_range_alloc_per_call () =
  let calls = 10_000 in
  List.iter
    (fun jobs ->
      Exec.Pool.with_pool ~jobs (fun pool ->
          let body _ _ = () in
          for _ = 1 to 1000 do
            Exec.Pool.run_range pool ~lo:0 ~hi:jobs body
          done;
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            Exec.Pool.run_range pool ~lo:0 ~hi:jobs body
          done;
          let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
          if per_call > 64.0 then
            Alcotest.failf
              "run_range at jobs=%d allocates %.1f minor words per call \
               (ceiling 64)"
              jobs per_call))
    [ 2; 3; 8 ]

(* Point sends reach the trace through [Trace.record_send] one at a
   time (the theorem5-gather path), never through a row, so the guards
   above, whose kernel sends rows only, do not see them.  Once the open
   round and the cut's per-round vector exist, a point send into a
   cut-registered Light trace streams scalars only: 10⁵ of them within
   one round stay under a ceiling a single boxed word per send would
   pass 10⁵-fold. *)
let test_point_send_alloc () =
  let module T = Congest.Trace in
  let cut = Array.init n (fun v -> v land 1) in
  let trace = T.create ~mode:T.Light ~cut () in
  let sends k =
    for i = 0 to k - 1 do
      T.record_send trace ~round:3 ~src:(i land (n - 1))
        ~dst:(((i * 7) + 1) land (n - 1)) ~bits:9
    done
  in
  sends 1_000;
  let before = Gc.minor_words () in
  sends 100_000;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then
    Alcotest.failf
      "10^5 point sends into a cut-metered Light trace allocate %.0f minor \
       words (ceiling 64)"
      words

(* The round loop's replay of a shard's staged point sends: 10⁵
   (dst, src, tag, word, bits) quints, one [record_staged] call, into a
   warmed cut-metered Light trace within one round.  The digest stays in
   one unboxed Int64 and the counts in locals, so the call allocates
   nothing per send. *)
let test_staged_point_alloc () =
  let module T = Congest.Trace in
  let cut = Array.init n (fun v -> v land 1) in
  let trace = T.create ~mode:T.Light ~cut () in
  let sends = 100_000 in
  let st = Array.make (5 * sends) 0 in
  for i = 0 to sends - 1 do
    st.(5 * i) <- ((i * 7) + 1) land (n - 1);
    st.((5 * i) + 1) <- i land (n - 1);
    st.((5 * i) + 4) <- 9
  done;
  let xadj = Array.make (n + 1) 0 and adj = [||] in
  T.record_staged trace ~round:3 ~st ~len:1_000 ~xadj ~adj;
  let before = Gc.minor_words () in
  T.record_staged trace ~round:3 ~st ~len:sends ~xadj ~adj;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every quint recorded" (1_000 + sends)
    (T.total_messages trace);
  if words > 64.0 then
    Alcotest.failf
      "replaying 10^5 staged point sends into a cut-metered Light trace \
       allocates %.0f minor words (ceiling 64)"
      words

(* A list-mode program is not zero-allocation (Program.step speaks in
   lists, and Fastpath.of_program rebuilds each inbox as one), but its
   run on the flat loop must stay linear in delivered messages.  The
   ceiling covers the lists, the Msg records and the message store's
   slack with room to spare; the guard catches anything quadratic or a
   new per-round O(n) term. *)
let test_list_alloc_per_message () =
  let g = Build.cycle n in
  let rounds = 120 in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let prog = Congest.Algo_flood.max_id ~rounds in
  ignore (Congest.Runtime.run ~config prog g);
  let before = Gc.minor_words () in
  let result = Congest.Runtime.run ~config prog g in
  let after = Gc.minor_words () in
  let msgs =
    Congest.Trace.total_messages result.Congest.Runtime.trace
  in
  let per_msg = (after -. before) /. float_of_int (max msgs 1) in
  if per_msg > 60.0 then
    Alcotest.failf "list-mode path allocates %.1f minor words/message" per_msg

(* Pull delivery: a round without point sends reaches its receivers
   through the senders' row records, so a row-only run builds no
   delivery arena.  [runtime_arena_peak_words] counts everything the
   round loop holds for messages (arena, staging, row records, pull
   scratch); any arena needs 3 words per message of its largest round.
   On the complete graph every node tells every neighbour its id each
   round: as rows the gauge stays below one round's arena, as the same
   messages sent point by point it cannot. *)
let chatter ~row : unit Congest.Fastpath.t =
  let module F = Congest.Fastpath in
  {
    F.fname = "chatter";
    kernel =
      (fun sh ->
        let width = Congest.Msg.id_width ~n:sh.F.n in
        let xadj = sh.F.xadj and adj = sh.F.adj in
        let halted = Bytes.make sh.F.slots '\000' in
        let step ~v ~round _ em =
          let word = sh.F.base + v in
          if row then F.emit_row em ~tag:F.tag_int ~bits:width ~word
          else
            for r = xadj.(v) to xadj.(v + 1) - 1 do
              F.emit em ~dst:adj.(r) ~tag:F.tag_int ~bits:width ~word
            done;
          if round = 3 then Bytes.set halted v '\001'
        in
        { F.step; halted; output = (fun _ -> None) });
  }

let test_row_rounds_hold_no_arena () =
  let k = 64 in
  let c = Csr.of_graph (Build.complete k) in
  let arena_words = 3 * k * (k - 1) in
  let peak = Obs.Metrics.gauge "runtime_arena_peak_words" in
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      List.iter
        (fun (what, pool) ->
          let gauge ~row =
            ignore (Congest.Runtime.run_flat ?pool (chatter ~row) c);
            Obs.Metrics.gauge_value peak
          in
          let rows = gauge ~row:true and points = gauge ~row:false in
          if rows >= arena_words then
            Alcotest.failf
              "%s: a row-only flood holds %d words for messages, no less than \
               a %d-word arena"
              what rows arena_words;
          if points < arena_words then
            Alcotest.failf
              "%s: the point-send flood reports %d words, less than its \
               %d-word arena"
              what points arena_words)
        [ ("no pool", None); ("jobs=2", Some pool) ])

let () =
  Alcotest.run "perf_guard"
    [
      ( "allocation",
        [
          Alcotest.test_case "flat rounds are allocation-free" `Quick
            test_flat_alloc_per_round;
          Alcotest.test_case "cut-metered flat rounds are allocation-free"
            `Quick test_flat_cut_alloc_per_round;
          Alcotest.test_case "sharded stage phase is allocation-free" `Quick
            test_par_stage_alloc_per_round;
          Alcotest.test_case "trace replay under a pool is allocation-free"
            `Quick test_par_replay_alloc_per_round;
          Alcotest.test_case "run_range allocates one small record per call"
            `Quick test_run_range_alloc_per_call;
          Alcotest.test_case "Light point sends are allocation-free" `Quick
            test_point_send_alloc;
          Alcotest.test_case "staged point replay is allocation-free" `Quick
            test_staged_point_alloc;
          Alcotest.test_case "list mode stays linear" `Quick
            test_list_alloc_per_message;
          Alcotest.test_case "row-only rounds hold no delivery arena" `Quick
            test_row_rounds_hold_no_arena;
        ] );
    ]
