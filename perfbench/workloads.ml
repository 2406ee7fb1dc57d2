(* The four workloads.

   Each one builds its inputs from the seed (set-up, repeated and timed
   by its median), computes an oracle reference outside the clock, then
   runs timed passes for the requested number of seconds and checks
   every pass against the reference.  An untraced run reports the
   end-to-end metrics; a traced run alternates traced and untraced
   passes and reports the per-layer metrics, measured from outside by
   spans around adapter calls and by counter deltas at the same
   boundaries. *)

module H = Harness
module A = Adapter
module S = Spans

(* ------------------------------------------------------------------ *)
(* Sizes.  Fixed across sizes: 16 flood/BFS rounds and a 2-domain pool
   for sparse-sweep, 4 flood rounds for gadget-cut, 2 client connections
   for serve-solve. *)

let sweep_rounds = 16
let sweep_jobs = 2
let gadget_rounds = 4
let serve_clients = 2

type size = {
  min_passes : int;
  sweep_setups : int;
  sweep_n : int;
  gadget_setups : int;
  gadget_target : int;
  t5_setups : int;
  t5_ell : int;
  t5_players : int;
  t5_batch : int;
  serve_setups : int;
  serve_per_client : int;  (** requests per client connection per pass *)
  serve_cold_every : int;  (** one request in this many is a unique seed *)
  serve_corpus : int;
}

let full =
  {
    min_passes = 5;
    sweep_setups = 7;
    sweep_n = 100_000;
    gadget_setups = 5;
    gadget_target = 7_000;
    t5_setups = 15;
    t5_ell = 4;
    t5_players = 3;
    t5_batch = 64;
    serve_setups = 15;
    serve_per_client = 1_000;
    serve_cold_every = 20;
    serve_corpus = 16;
  }

(* The self-test size: every code path, a fraction of a second each. *)
let tiny =
  {
    min_passes = 2;
    sweep_setups = 2;
    sweep_n = 2_000;
    gadget_setups = 2;
    gadget_target = 400;
    t5_setups = 2;
    t5_ell = 3;
    t5_players = 2;
    t5_batch = 4;
    serve_setups = 2;
    serve_per_client = 40;
    serve_cold_every = 10;
    serve_corpus = 4;
  }

type ctx = {
  size : size;
  seed : int;
  seconds : float;
  traced : bool;
  dir : string;  (** scratch directory for the daemon's socket *)
}

(* ------------------------------------------------------------------ *)
(* Metric catalogue.  BENCHMARK.json lists exactly these names. *)

let end_to_end =
  [ ("setup_s", "s"); ("run_s", "s"); ("work_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("graph.build_s", "s");
    ("graph.edges", "count");
    ("graph.resident_words", "words");
    ("core.instance_s", "s");
    ("core.decide_s", "s");
    ("core.decisions", "count");
    ("core.blackboard_bits", "bits");
    ("congest.flood_s", "s");
    ("congest.bfs_s", "s");
    ("congest.luby_s", "s");
    ("congest.run_s", "s");
    ("congest.rounds", "count");
    ("congest.messages", "count");
    ("congest.bits", "bits");
    ("congest.arena_peak_words", "words");
    ("congest.minor_words", "words");
    ("congest.major_gcs", "count");
    ("exec.range_batches", "count");
    ("exec.cache_lookups", "count");
    ("exec.cache_hits", "count");
    ("exec.cache_misses", "count");
    ("exec.cache_hit_ratio", "ratio");
    ("exec.cache_written_bytes", "bytes");
    ("exec.admission_rejected", "count");
    ("mis.solves", "count");
    ("mis.nodes", "count");
    ("mis.prunes", "count");
    ("mis.solve_s", "s");
    ("serve.requests", "count");
    ("serve.client_mean_ms", "ms");
    ("serve.server_mean_ms", "ms");
    ("serve.batches", "count");
    ("serve.batch_size_mean", "count");
    ("serve.proto_s", "s");
    ("serve.request_bytes", "bytes");
    ("serve.reply_bytes", "bytes");
    ("self.bench_s", "s");
    ("self.core_s", "s");
    ("self.congest_s", "s");
    ("self.serve_s", "s");
    ("trace.run_s", "s");
    ("trace.untraced_run_s", "s");
    ("trace.overhead_frac", "ratio");
    ("trace.self_sum_s", "s");
    ("trace.spans", "count");
  ]

(* ------------------------------------------------------------------ *)
(* Per-layer accumulation over the traced passes.  [sums] are totals
   over traced passes (reported per pass or per call); [levels] are
   sizes and gauges reported as they stand. *)

type acc = {
  sums : (string, float) Hashtbl.t;
  levels : (string, float) Hashtbl.t;
  mutable traced_passes : int;
  mutable traced_walls : (int * float) list;  (** (pass kind, raw wall) *)
  mutable untraced_walls : (int * float) list;
}

(* Fresh per-layer state for one workload run; the span recorder starts
   empty too. *)
let acc () =
  S.reset ();
  {
    sums = Hashtbl.create 64;
    levels = Hashtbl.create 16;
    traced_passes = 0;
    traced_walls = [];
    untraced_walls = [];
  }

let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0.0
let add a k v = Hashtbl.replace a.sums k (get a.sums k +. v)
let level a k v = Hashtbl.replace a.levels k v
let level_max a k v = Hashtbl.replace a.levels k (Float.max v (get a.levels k))

(* Counter deltas of one call or pass, folded into the layer metrics. *)
let fold_counters a d =
  let c name = A.counter d name in
  add a "congest.rounds" (c "congest_rounds_total");
  add a "congest.messages" (c "congest_messages_total");
  add a "congest.bits" (c "congest_bits_total");
  level_max a "congest.arena_peak_words" (c "runtime_arena_peak_words");
  add a "core.blackboard_bits" (c "blackboard_bits_total");
  add a "exec.range_batches" (c "pool_range_batches_total");
  add a "exec.cache_hits" (c "cache_hits_total");
  add a "exec.cache_misses" (c "cache_misses_total");
  add a "exec.cache_written_bytes" (c "cache_written_bytes_total");
  add a "exec.admission_rejected" (c "admission_rejected_total");
  add a "mis.solves" (c "solver_solves_total");
  add a "mis.nodes" (c "solver_nodes_total");
  add a "mis.prunes" (c "solver_prunes_total");
  add a "serve.batches" (c "serve_batches_total");
  add a "serve.request_bytes" (c "serve_request_bytes_total");
  add a "serve.reply_bytes" (c "serve_reply_bytes_total");
  let sum, count = A.histogram_sum_count d "serve_latency_seconds" in
  add a "serve.server_latency_sum_s" sum;
  add a "serve.server_latency_count" count

(* One call into the library under a span named "<layer>.<what>".  In a
   traced pass its wall time lands in "<layer>.<what>_s" and its GC and
   counter deltas in the layer metrics; otherwise it is a plain call. *)
let call a ~traced ~op ~parent name f =
  if not traced then f ()
  else begin
    let before = A.counters () in
    let g0 = Gc.quick_stat () in
    let t0 = H.now () in
    let v = S.span ~op ~parent name (fun _ -> f ()) in
    let dt = H.now () -. t0 in
    let g1 = Gc.quick_stat () in
    let d = A.delta ~before ~after:(A.counters ()) in
    add a (name ^ "_s") dt;
    add a "congest.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
    add a "congest.major_gcs"
      (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    fold_counters a d;
    v
  end

(* Even passes of a traced run are traced, odd ones are not, so both
   run on the same host state and their difference is the overhead. *)
let traced_pass ctx i = ctx.traced && i mod 2 = 0

(* A workload may cycle through [kinds] kinds of pass (pass [i] is of
   kind [i mod kinds]); its time per round of kinds is the sum of the
   per-kind medians. *)
let sum_of_medians ~kinds samples =
  List.init kinds (fun k ->
      H.median (List.filter_map (fun (j, x) -> if j = k then Some x else None) samples))
  |> List.fold_left ( +. ) 0.0

let by_kind ~kinds xs = List.mapi (fun i x -> (i mod kinds, x)) xs

(* The per-layer metric list, in catalogue order, with self times taken
   under spans rooted at [root].  Sums are reported per round of pass
   kinds. *)
let layer_metrics a ~kinds ~root =
  let passes = float_of_int (max 1 a.traced_passes) /. float_of_int kinds in
  let per_pass k = get a.sums k /. passes in
  let selfs = S.self_times ~root in
  let self l = Option.value (Hashtbl.find_opt selfs l) ~default:0.0 /. passes in
  let ratio num den = if den > 0.0 then num /. den else 0.0 in
  let lookups = get a.sums "exec.cache_hits" +. get a.sums "exec.cache_misses" in
  let traced_run = sum_of_medians ~kinds a.traced_walls in
  let untraced_run = sum_of_medians ~kinds a.untraced_walls in
  let value = function
    | "graph.build_s" | "graph.edges" | "graph.resident_words" | "core.instance_s"
    | "congest.arena_peak_words" as k ->
        get a.levels k
    | "congest.run_s" ->
        per_pass "congest.flood_s" +. per_pass "congest.bfs_s" +. per_pass "congest.luby_s"
    | "core.decide_s" -> ratio (get a.sums "core.decide_s") (get a.sums "core.decisions")
    | "mis.solve_s" -> ratio (get a.sums "mis.solve_s") (get a.sums "mis.direct_solves")
    | "exec.cache_lookups" -> lookups /. passes
    | "exec.cache_hit_ratio" -> ratio (get a.sums "exec.cache_hits") lookups
    | "serve.client_mean_ms" ->
        1000.0 *. ratio (get a.sums "serve.client_s") (get a.sums "serve.requests")
    | "serve.server_mean_ms" ->
        1000.0
        *. ratio (get a.sums "serve.server_latency_sum_s")
             (get a.sums "serve.server_latency_count")
    | "serve.batch_size_mean" ->
        ratio (get a.sums "serve.requests") (get a.sums "serve.batches")
    | "self.bench_s" -> self "bench"
    | "self.core_s" -> self "core"
    | "self.congest_s" -> self "congest"
    | "self.serve_s" -> self "serve"
    | "trace.run_s" -> traced_run
    | "trace.untraced_run_s" -> untraced_run
    | "trace.overhead_frac" -> (traced_run /. untraced_run) -. 1.0
    | "trace.self_sum_s" ->
        Hashtbl.fold (fun _ v s -> s +. v) selfs 0.0 /. passes
    | "trace.spans" -> float_of_int (S.count ()) /. passes
    | k -> per_pass k
  in
  List.map (fun (k, u) -> H.m k u (value k)) per_layer

(* The common tail of every workload: end-to-end or per-layer metrics.
   End-to-end timings are medians of drift-corrected samples; the raw
   medians and the host probe go to the human block. *)
let finish ?(kinds = 1) ctx a ~root ~setup ~passes ~work_per_pass ~tally ~info =
  List.iteri
    (fun i s ->
      let kw = (i mod kinds, s.H.wall) in
      if traced_pass ctx i then begin
        a.traced_passes <- a.traced_passes + 1;
        a.traced_walls <- kw :: a.traced_walls
      end
      else a.untraced_walls <- kw :: a.untraced_walls)
    passes;
  let setup_s = H.median (H.corrected setup) in
  let run_s = sum_of_medians ~kinds (by_kind ~kinds (H.corrected passes)) in
  let info =
    info
    @ [
        ("passes", string_of_int (List.length passes));
        ("work_per_pass", Printf.sprintf "%.0f" work_per_pass);
        ("raw_setup_s", Printf.sprintf "%.6f" (H.median (H.walls setup)));
        ("raw_run_s",
          Printf.sprintf "%.6f" (sum_of_medians ~kinds (by_kind ~kinds (H.walls passes))));
        ("probe_s", Printf.sprintf "%.6f" (H.median (H.probes passes)));
      ]
  in
  let end_to_end =
    if ctx.traced then []
    else
      [
        H.m "setup_s" "s" setup_s;
        H.m "run_s" "s" run_s;
        H.m "work_per_s" "1/s" (work_per_pass /. run_s);
        H.m "peak_rss_mb" "MB" (H.peak_rss_mb ());
      ]
  in
  let layers = if ctx.traced then layer_metrics a ~kinds ~root else [] in
  let samples =
    List.map (fun s -> ("setup", s)) setup
    @ List.mapi (fun i s -> (Printf.sprintf "pass%d" (i mod kinds), s)) passes
  in
  { H.end_to_end; layers; info; tally; samples }

(* ------------------------------------------------------------------ *)
(* sparse-sweep: flood, BFS and Luby on a sparse random graph through
   the sharded executor on a pool of two domains.  Passes cycle through
   the three algorithms, so each gets its own median and its own probe
   bracket; a sweep is their sum. *)

let sparse_sweep ctx =
  let sz = ctx.size in
  let tally = H.tally () and a = acc () in
  let g, setup =
    H.repeat_setup ~probe:H.Cpu ~times:sz.sweep_setups (fun () ->
        A.sparse_graph ~seed:ctx.seed ~n:sz.sweep_n)
  in
  level a "graph.build_s" (H.median (H.walls setup));
  level a "graph.edges" (float_of_int (A.edges g));
  level a "graph.resident_words" (float_of_int (A.resident_words g));
  let algos = [ A.Flood sweep_rounds; A.Bfs sweep_rounds; A.Luby ] in
  (* Oracle: the sequential executor on the same graph.  The sharded
     runs must match it exactly: rounds, messages, bits, Light-trace
     digest and every node's output. *)
  let reference = List.map (fun al -> A.run_algo A.Sequential al g) algos in
  List.iter2
    (fun al (r : A.run) -> H.expect tally r.A.halted (A.algo_name al ^ " halted"))
    algos reference;
  let work_per_pass =
    float_of_int (List.fold_left (fun s (r : A.run) -> s + r.A.messages) 0 reference)
  in
  let kinds = List.length algos in
  let pool = A.pool ~jobs:sweep_jobs in
  let pass i =
    let traced = traced_pass ctx i in
    let al = List.nth algos (i mod kinds) in
    S.enable traced;
    let op = S.new_op () in
    S.span ~op ~parent:(-1) "bench.pass" (fun root ->
        call a ~traced ~op ~parent:root ("congest." ^ A.algo_name al) (fun () ->
            A.run_algo (A.Sharded pool) al g))
  in
  let passes =
    H.timed_passes ~quantum:(2 * kinds) ~probe:H.Cpu2 ~seconds:ctx.seconds
      ~min_passes:(kinds * sz.min_passes) ~pass
      ~check:(fun i r ->
        let k = i mod kinds in
        H.expect tally (r = List.nth reference k)
          (A.algo_name (List.nth algos k) ^ " = sequential"))
      ()
  in
  S.enable false;
  A.shutdown_pool pool;
  finish ~kinds ctx a ~root:"bench.pass" ~setup ~passes ~work_per_pass ~tally
    ~info:
      [
        ("n", string_of_int (A.nodes g));
        ("edges", string_of_int (A.edges g));
        ("jobs", string_of_int sweep_jobs);
        ("luby_rounds", string_of_int (List.nth reference 2).A.rounds);
      ]

(* ------------------------------------------------------------------ *)
(* gadget-cut: the Theorem-1 linear gadget at n ≈ 7·10³, flooded for a
   few rounds on one domain with the player cut registered, so every
   send is classified against the cut. *)

let gadget_cut ctx =
  let sz = ctx.size in
  let tally = H.tally () and a = acc () in
  let p = A.gadget_params ~target:sz.gadget_target in
  let (g, part), setup =
    H.repeat_setup ~probe:H.Cpu ~times:sz.gadget_setups (fun () ->
        let x = A.promise_input ~seed:ctx.seed p ~intersecting:(ctx.seed mod 2 = 0) in
        A.gadget_instance p x)
  in
  level a "core.instance_s" (H.median (H.walls setup));
  level a "graph.edges" (float_of_int (A.edges g));
  level a "graph.resident_words" (float_of_int (A.resident_words g));
  let algo = A.Flood gadget_rounds in
  (* Oracle: the sharded executor at width 1, a different code path from
     the sequential executor the timed passes use, plus Theorem 5's cap
     on the cut bits. *)
  let reference =
    let one = A.pool ~jobs:1 in
    let r = A.run_algo ~cut:part (A.Sharded one) algo g in
    A.shutdown_pool one;
    r
  in
  let cap = A.cut_cap p ~rounds:reference.A.rounds ~n:(A.nodes g) in
  H.expect tally (reference.A.cut_bits > 0 && reference.A.cut_bits <= cap) "cut bits within cap";
  let pass i =
    let traced = traced_pass ctx i in
    S.enable traced;
    let op = S.new_op () in
    S.span ~op ~parent:(-1) "bench.pass" (fun root ->
        call a ~traced ~op ~parent:root "congest.flood" (fun () ->
            A.run_algo ~cut:part A.Sequential algo g))
  in
  let passes =
    H.timed_passes ~probe:H.Cpu ~seconds:ctx.seconds ~min_passes:sz.min_passes ~pass
      ~check:(fun _ r -> H.expect tally (r = reference) "flood = sharded reference")
      ()
  in
  S.enable false;
  finish ctx a ~root:"bench.pass" ~setup ~passes
    ~work_per_pass:(float_of_int reference.A.messages) ~tally
    ~info:
      [
        ("ell", string_of_int (A.ell p));
        ("n", string_of_int (A.nodes g));
        ("edges", string_of_int (A.edges g));
        ("cut_edges", string_of_int (A.expected_cut_size p));
        ("cut_bits", string_of_int reference.A.cut_bits);
        ("cut_cap_bits", string_of_int cap);
      ]

(* ------------------------------------------------------------------ *)
(* theorem5-gather: the reduction end to end, one decision per pass,
   cycling through a seeded batch that alternates uniquely intersecting
   and disjoint inputs.  Each input is decided by two consecutive
   passes, so in a traced run both kinds of input are traced and
   untraced alike, and every run re-checks exact counts. *)

let theorem5_gather ctx =
  let sz = ctx.size in
  let tally = H.tally () and a = acc () in
  let p = A.linear_params ~ell:sz.t5_ell ~players:sz.t5_players in
  let batch, setup =
    H.repeat_setup ~probe:H.Cpu ~times:sz.t5_setups (fun () ->
        Array.init sz.t5_batch (fun j ->
            let x =
              A.promise_input ~seed:((ctx.seed * 1_000) + j) p ~intersecting:(j mod 2 = 0)
            in
            (A.decision_instance p x, A.disjoint x)))
  in
  level a "core.instance_s" (H.median (H.walls setup) /. float_of_int sz.t5_batch);
  (* Exact counts must repeat: the first decision of each input pins
     its blackboard bits and rounds for every later one. *)
  let pinned = Array.make sz.t5_batch None in
  let messages = ref [] in
  let before = ref (A.counters ()) in
  let pass i =
    let traced = traced_pass ctx i in
    S.enable traced;
    let op = S.new_op () in
    let j = i / 2 mod sz.t5_batch in
    let inst, _ = batch.(j) in
    if traced then add a "core.decisions" 1.0;
    S.span ~op ~parent:(-1) "bench.pass" (fun root ->
        (j, call a ~traced ~op ~parent:root "core.decide" (fun () -> A.decide inst)))
  in
  let check _ (j, (d : A.decision)) =
    let after = A.counters () in
    messages := A.counter (A.delta ~before:!before ~after) "congest_messages_total" :: !messages;
    before := after;
    H.expect tally (d.A.answer = Some (snd batch.(j))) "decision = promise answer";
    H.expect tally d.A.within_bound "within Theorem 5 bound";
    let counts = (d.A.blackboard_bits, d.A.decide_rounds, d.A.total_bits) in
    match pinned.(j) with
    | None -> pinned.(j) <- Some counts
    | Some c -> H.expect tally (c = counts) "exact counts repeat"
  in
  let passes =
    H.timed_passes ~probe:H.Cpu ~seconds:ctx.seconds ~min_passes:sz.min_passes ~pass ~check ()
  in
  S.enable false;
  let work_per_pass = H.median !messages in
  H.expect tally (work_per_pass > 0.0) "messages counted";
  let d0 = match pinned.(0) with Some (b, r, _) -> (b, r) | None -> (0, 0) in
  finish ctx a ~root:"bench.pass" ~setup ~passes ~work_per_pass ~tally
    ~info:
      [
        ("ell", string_of_int sz.t5_ell);
        ("players", string_of_int sz.t5_players);
        ("batch", string_of_int sz.t5_batch);
        ("rounds_per_decision", string_of_int (snd d0));
        ("blackboard_bits_input0", string_of_int (fst d0));
      ]

(* ------------------------------------------------------------------ *)
(* serve-solve: a closed loop of linear-family solves from two client
   connections against an in-process daemon; most requests hit a corpus
   warmed during set-up, one in [serve_cold_every] carries a unique
   seed.  One thread drives both connections in lockstep: each sends
   its request, then each reads its reply, so every connection sends
   its next request only after its previous reply. *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type sent = { req : A.solve_request; corpus_index : int; cold : bool; payload : string option; lat : float }

let serve_solve ctx =
  let sz = ctx.size in
  let tally = H.tally () and a = acc () in
  let corpus =
    Array.init sz.serve_corpus (fun j ->
        A.solve_request ~ell:(3 + (j mod 2)) ~players:2
          ~seed:((ctx.seed * 64) + j)
          ~intersecting:(j mod 4 >= 2))
  in
  (* Set-up is warming the corpus into a fresh cache through the
     daemon's own solve path; the daemon then starts on that cache,
     outside the clock (its start is a cross-domain wake-up, bimodal on
     a shared VM). *)
  let fs, setup =
    H.repeat_setup ~probe:H.Cpu ~times:sz.serve_setups (fun () ->
        let fs = A.memory_fs () in
        A.warm_cache fs (Array.to_list corpus);
        fs)
  in
  A.keep fs;
  let dir = Filename.concat ctx.dir "serve" in
  Sys.mkdir dir 0o755;
  let daemon = A.start_daemon fs ~dir in
  let conns = Array.init serve_clients (fun _ -> A.connect daemon) in
  let teardown () =
    Array.iter A.close conns;
    A.stop_daemon daemon;
    rm_rf dir
  in
  let expected = Array.map A.offline_solve corpus in
  let cold_id = ref 0 in
  let client_streams =
    Array.init serve_clients (fun c -> Random.State.make [| ctx.seed; c |])
  in
  (* A request for client [c]: a corpus entry, or with probability
     1/[serve_cold_every] the same parameters under a fresh seed. *)
  let next_request c =
    let st = client_streams.(c) in
    let j = Random.State.int st sz.serve_corpus in
    if Random.State.int st sz.serve_cold_every = 0 then begin
      incr cold_id;
      let ell, players, _, intersecting = A.request_fields corpus.(j) in
      (A.solve_request ~ell ~players ~seed:((ctx.seed lsl 24) + (1 lsl 20) + !cold_id) ~intersecting, true, j)
    end
    else (corpus.(j), false, j)
  in
  let latencies = H.latencies () in
  let pass i =
    let traced = traced_pass ctx i in
    S.enable traced;
    let before = if traced then A.counters () else [] in
    let results =
      Array.init sz.serve_per_client (fun r ->
          let inflight =
            Array.init serve_clients (fun c ->
                let req, cold, corpus_index = next_request c in
                let op = S.new_op () in
                let t0 = H.now () in
                let root = S.start ~op ~parent:(-1) "serve.request" in
                let line =
                  S.span ~op ~parent:root "serve.proto" (fun _ ->
                      A.encode_solve ~id:((i * 1_000_000) + (r * serve_clients) + c) req)
                in
                A.send_line conns.(c) line;
                (req, cold, corpus_index, op, root, t0))
          in
          Array.mapi
            (fun c (req, cold, corpus_index, op, root, t0) ->
              let reply = A.recv_line conns.(c) in
              let payload =
                S.span ~op ~parent:root "serve.proto" (fun _ -> A.decode_payload reply)
              in
              S.stop root;
              { req; corpus_index; cold; payload; lat = H.now () -. t0 })
            inflight)
    in
    if traced then begin
      fold_counters a (A.delta ~before ~after:(A.counters ()));
      Array.iter
        (Array.iter (fun s ->
             add a "serve.requests" 1.0;
             add a "serve.client_s" s.lat))
        results
    end;
    (traced, results)
  in
  let check _ (traced, results) =
    A.drop_others fs;
    Array.iter
      (Array.iter (fun s ->
           H.record_latency latencies s.lat;
           let want =
             if s.cold then A.offline_solve s.req else expected.(s.corpus_index)
           in
           H.expect tally (s.payload = Some want) "reply ok and = offline Ops.solve";
           (* mis.solve_s: the solver alone, called directly on each cold
              request's instance. *)
           if traced && s.cold then begin
             let ell, players, seed, intersecting = A.request_fields s.req in
             let g = A.request_instance ~ell ~players ~seed ~intersecting in
             let t0 = H.now () in
             ignore (A.solve_direct g);
             add a "mis.solve_s" (H.now () -. t0);
             add a "mis.direct_solves" 1.0
           end))
      results
  in
  let passes =
    H.timed_passes ~probe:H.Echo ~seconds:ctx.seconds ~min_passes:sz.min_passes ~pass ~check ()
  in
  S.enable false;
  (* The proto share of client time is the proto spans' total. *)
  add a "serve.proto_s" (S.total "serve.proto");
  teardown ();
  let p50, _ = H.percentile_ms latencies 50.0 and p99, beyond = H.percentile_ms latencies 99.0 in
  let requests_per_pass = float_of_int (serve_clients * sz.serve_per_client) in
  finish ctx a ~root:"serve.request" ~setup ~passes ~work_per_pass:requests_per_pass ~tally
    ~info:
      ([
         ("clients", string_of_int serve_clients);
         ("cold_share", Printf.sprintf "1/%d" sz.serve_cold_every);
         ("requests", string_of_int latencies.H.total);
       ]
      @
      if beyond >= 10 && not ctx.traced then
        [
          ("req_p50_ms", Printf.sprintf "%.4f" p50);
          ("req_p99_ms", Printf.sprintf "%.4f (%d samples beyond)" p99 beyond);
        ]
      else [])

(* ------------------------------------------------------------------ *)

let all =
  [
    ("sparse-sweep", sparse_sweep);
    ("gadget-cut", gadget_cut);
    ("theorem5-gather", theorem5_gather);
    ("serve-solve", serve_solve);
  ]
