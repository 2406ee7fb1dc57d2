(* Golden-trace regression tests: pinned-seed runs of five CONGEST
   algorithms on three small graphs, asserting the EXACT round, message,
   bit and delivery counts observed through Obs.Metrics snapshot diffs.
   Any change to the runtime's charging rules, the algorithms' send
   patterns, or the metrics plumbing shows up as a diff against the
   table below.  A second table pins every list-mode program (hardened
   wrappers included) under one adversarial fault plan, down to the
   trace digest.  A third pins the flat executor's fingerprint of every
   flat program on seeded sparse CSR graphs, with and without a pool.

   All runs use Runtime.default_config's seed 42; Luby's only randomness
   derives from that seed (and the fault table's from its plan seed), so
   every count is deterministic.

   Regenerate the tables after an intentional change with

     MAXIS_GOLDEN_PRINT=1 dune exec test/test_golden.exe -- -v 2>/dev/null

   and paste the printed rows over [goldens] / [fault_goldens] /
   [flat_goldens] below. *)

module M = Obs.Metrics
module Build = Wgraph.Build

let check_int = Alcotest.(check int)

type prog = P : 'o Congest.Program.t -> prog

let graphs () =
  [ ("path6", Build.path 6); ("cycle7", Build.cycle 7); ("k5", Build.complete 5) ]

(* The local algorithms: cheap enough to stream over 10⁴ nodes. *)
let local_programs () =
  [
    P (Congest.Algo_flood.max_id ~rounds:4);
    P (Congest.Algo_bfs.distances ~root:0 ~rounds:4);
    P Congest.Algo_luby.mis;
    P Congest.Algo_greedy_mis.mis;
  ]

(* Gathering floods the whole topology (and is told its edge count), so
   it only runs on the small graphs. *)
let programs g =
  local_programs ()
  @ [ P (Congest.Algo_gather.exact_maxis ~m:(Wgraph.Graph.edge_count g)) ]

type counts = { rounds : int; messages : int; bits : int; deliveries : int }

(* Counts for one pinned run, read back through the metrics layer (so
   this also regression-tests the instrumentation itself, not just the
   runtime). *)
let measure (P program) g =
  let algo = program.Congest.Program.name in
  let labels = [ ("algo", algo) ] in
  let before = M.snapshot () in
  ignore (Congest.Runtime.run program g);
  let d = M.diff ~before ~after:(M.snapshot ()) in
  let c name = int_of_float (M.get ~labels d name) in
  ( algo,
    {
      rounds = c "congest_rounds_total";
      messages = c "congest_messages_total";
      bits = c "congest_bits_total";
      deliveries = c "congest_deliveries_total";
    } )

(* (algo, graph) -> exact counts.  Pinned from a run of this file; see
   the header for how to regenerate. *)
let goldens =
  [
    (("max-id-flood", "path6"), { rounds = 4; messages = 31; bits = 93; deliveries = 31 });
    (("bfs-distances", "path6"), { rounds = 4; messages = 7; bits = 21; deliveries = 7 });
    (("luby-mis", "path6"), { rounds = 3; messages = 20; bits = 70; deliveries = 20 });
    (("max-id-flood", "cycle7"), { rounds = 4; messages = 38; bits = 114; deliveries = 38 });
    (("bfs-distances", "cycle7"), { rounds = 4; messages = 14; bits = 42; deliveries = 14 });
    (("luby-mis", "cycle7"), { rounds = 6; messages = 32; bits = 122; deliveries = 32 });
    (("max-id-flood", "k5"), { rounds = 4; messages = 36; bits = 108; deliveries = 36 });
    (("bfs-distances", "k5"), { rounds = 4; messages = 20; bits = 60; deliveries = 20 });
    (("luby-mis", "k5"), { rounds = 3; messages = 40; bits = 140; deliveries = 40 });
    (("greedy-weight-mis", "path6"), { rounds = 9; messages = 30; bits = 30; deliveries = 30 });
    (("gather-topology", "path6"), { rounds = 13; messages = 110; bits = 1100; deliveries = 110 });
    (("greedy-weight-mis", "cycle7"), { rounds = 9; messages = 40; bits = 40; deliveries = 40 });
    (("gather-topology", "cycle7"), { rounds = 14; messages = 196; bits = 1960; deliveries = 196 });
    (("greedy-weight-mis", "k5"), { rounds = 3; messages = 40; bits = 40; deliveries = 40 });
    (("gather-topology", "k5"), { rounds = 15; messages = 300; bits = 3000; deliveries = 300 });
  ]

(* ------------------------------------------------------------------ *)
(* Faulty-run goldens: every list-mode program, hardened wrappers
   included, under one pinned plan of drops, duplicates, corruption,
   delays and a crash.  Gathering runs without corruption: its facts
   carry no checksum, so a flipped bit yields a garbage fact (often one
   that fails reconstruction), and which bit flips depends on how facts
   are encoded rather than on the protocol. *)

let fault_plan ~corrupt =
  Congest.Faults.plan
    ~default:
      (Congest.Faults.link ~drop:0.1 ~duplicate:0.1
         ~corrupt:(if corrupt then 0.1 else 0.0)
         ~max_delay:2 ())
    ~crashes:[ (2, 3) ]
    0x901d

(* factor 64: hardened 131-bit frames fit at id_width 3. *)
let fault_config ~corrupt =
  {
    Congest.Runtime.default_config with
    Congest.Runtime.max_rounds = 120;
    bandwidth_factor = 64;
    faults = Some (fault_plan ~corrupt);
  }

let fault_programs g =
  let m = Wgraph.Graph.edge_count g in
  [
    (true, P (Congest.Algo_flood.max_id ~rounds:6));
    (true, P (Congest.Algo_flood.leader_election ~rounds:6));
    (true, P (Congest.Algo_bfs.distances ~root:0 ~rounds:6));
    (true, P Congest.Algo_luby.mis);
    (true, P Congest.Algo_greedy_mis.mis);
    (false, P (Congest.Algo_gather.exact_maxis ~m));
    (true, P (Congest.Faults.harden (Congest.Algo_flood.max_id ~rounds:6)));
    (true, P (Congest.Faults.harden Congest.Algo_luby.mis));
  ]

type fault_counts = {
  digest : string;
  f_rounds : int;
  f_messages : int;
  f_bits : int;
  faults : int;
}

let measure_faulty ~corrupt (P program) g =
  let r = Congest.Runtime.run ~config:(fault_config ~corrupt) program g in
  let t = r.Congest.Runtime.trace in
  {
    digest = Int64.to_string (Congest.Trace.digest t);
    f_rounds = Congest.Trace.rounds t;
    f_messages = Congest.Trace.total_messages t;
    f_bits = Congest.Trace.total_bits t;
    faults = Congest.Trace.total_faults t;
  }

(* (algo, graph) -> exact trace summary of the faulty run. *)
let fault_goldens =
  [
    (("max-id-flood", "path6"), { digest = "-7683758422594252436"; f_rounds = 6; f_messages = 21; f_bits = 63; faults = 21 });
    (("leader-election", "path6"), { digest = "-7683758422594252436"; f_rounds = 6; f_messages = 21; f_bits = 63; faults = 21 });
    (("bfs-distances", "path6"), { digest = "-4338247783013316492"; f_rounds = 6; f_messages = 1; f_bits = 3; faults = 2 });
    (("luby-mis", "path6"), { digest = "4705450642748736973"; f_rounds = 6; f_messages = 20; f_bits = 80; faults = 21 });
    (("greedy-weight-mis", "path6"), { digest = "-1011856784586126369"; f_rounds = 4; f_messages = 18; f_bits = 18; faults = 19 });
    (("gather-topology", "path6"), { digest = "-2401284248754015054"; f_rounds = 120; f_messages = 55; f_bits = 550; faults = 47 });
    (("max-id-flood+hardened", "path6"), { digest = "9187349962366774042"; f_rounds = 120; f_messages = 357; f_bits = 46767; faults = 326 });
    (("luby-mis+hardened", "path6"), { digest = "-3721970503413958785"; f_rounds = 120; f_messages = 362; f_bits = 47422; faults = 329 });
    (("max-id-flood", "cycle7"), { digest = "7170614958084287031"; f_rounds = 6; f_messages = 28; f_bits = 84; faults = 28 });
    (("leader-election", "cycle7"), { digest = "7170614958084287031"; f_rounds = 6; f_messages = 28; f_bits = 84; faults = 28 });
    (("bfs-distances", "cycle7"), { digest = "-4734940267438675159"; f_rounds = 6; f_messages = 6; f_bits = 18; faults = 6 });
    (("luby-mis", "cycle7"), { digest = "-1500264263836605710"; f_rounds = 4; f_messages = 26; f_bits = 96; faults = 29 });
    (("greedy-weight-mis", "cycle7"), { digest = "3409755192514751549"; f_rounds = 6; f_messages = 30; f_bits = 30; faults = 31 });
    (("gather-topology", "cycle7"), { digest = "-4605343631525900655"; f_rounds = 120; f_messages = 154; f_bits = 1540; faults = 119 });
    (("max-id-flood+hardened", "cycle7"), { digest = "-8345688969315891012"; f_rounds = 120; f_messages = 418; f_bits = 54758; faults = 368 });
    (("luby-mis+hardened", "cycle7"), { digest = "4363458769401781005"; f_rounds = 120; f_messages = 428; f_bits = 56068; faults = 375 });
    (("max-id-flood", "k5"), { digest = "3825209026910161082"; f_rounds = 6; f_messages = 60; f_bits = 180; faults = 49 });
    (("leader-election", "k5"), { digest = "3825209026910161082"; f_rounds = 6; f_messages = 60; f_bits = 180; faults = 49 });
    (("bfs-distances", "k5"), { digest = "-5900428338552294234"; f_rounds = 6; f_messages = 20; f_bits = 60; faults = 21 });
    (("luby-mis", "k5"), { digest = "-9193975646070506892"; f_rounds = 3; f_messages = 40; f_bits = 140; faults = 37 });
    (("greedy-weight-mis", "k5"), { digest = "2841279732030106690"; f_rounds = 3; f_messages = 40; f_bits = 40; faults = 37 });
    (("gather-topology", "k5"), { digest = "-6069265703409466408"; f_rounds = 15; f_messages = 252; f_bits = 2520; faults = 196 });
    (("max-id-flood+hardened", "k5"), { digest = "1275050290311250298"; f_rounds = 120; f_messages = 607; f_bits = 79517; faults = 543 });
    (("luby-mis+hardened", "k5"), { digest = "1275050290311250298"; f_rounds = 120; f_messages = 607; f_bits = 79517; faults = 543 });
  ]

let print_mode = Sys.getenv_opt "MAXIS_GOLDEN_PRINT" = Some "1"

let fault_cell gname g ~corrupt (P prog as p) () =
  let algo = prog.Congest.Program.name in
  let c = measure_faulty ~corrupt p g in
  if print_mode then
    Printf.printf
      "((%S, %S), { digest = %S; f_rounds = %d; f_messages = %d; f_bits = %d; faults = %d });\n"
      algo gname c.digest c.f_rounds c.f_messages c.f_bits c.faults
  else begin
    let exp =
      match List.assoc_opt (algo, gname) fault_goldens with
      | Some e -> e
      | None ->
          Alcotest.fail (Printf.sprintf "no fault golden for (%s, %s)" algo gname)
    in
    Alcotest.(check string) "digest" exp.digest c.digest;
    check_int "rounds" exp.f_rounds c.f_rounds;
    check_int "messages" exp.f_messages c.f_messages;
    check_int "bits" exp.f_bits c.f_bits;
    check_int "total_faults" exp.faults c.faults
  end

let run_cell gname g p () =
  let algo, c = measure p g in
  if print_mode then
    Printf.printf
      "((%S, %S), { rounds = %d; messages = %d; bits = %d; deliveries = %d });\n"
      algo gname c.rounds c.messages c.bits c.deliveries
  else begin
    let exp =
      match List.assoc_opt (algo, gname) goldens with
      | Some e -> e
      | None -> Alcotest.fail (Printf.sprintf "no golden for (%s, %s)" algo gname)
    in
    check_int "rounds" exp.rounds c.rounds;
    check_int "messages" exp.messages c.messages;
    check_int "bits" exp.bits c.bits;
    check_int "deliveries" exp.deliveries c.deliveries
  end

(* ------------------------------------------------------------------ *)
(* The acceptance invariant of the metrics layer: the blackboard bits
   counter agrees exactly with Core.Simulation's internal accounting
   (Theorem 5's currency) — the meter is not a second, drifting
   implementation. *)

let test_blackboard_metric_matches_report () =
  let p = Maxis_core.Params.make ~alpha:1 ~ell:4 ~players:3 in
  let rng = Stdx.Prng.create 0x601d in
  let x =
    Commcx.Inputs.gen_promise rng ~k:(Maxis_core.Params.k p) ~t:3
      ~intersecting:false
  in
  let inst = Maxis_core.Linear_family.instance p x in
  let program = Congest.Algo_luby.mis in
  let labels = [ ("algo", program.Congest.Program.name) ] in
  let before = M.snapshot () in
  let _, report = Maxis_core.Simulation.simulate program inst in
  let d = M.diff ~before ~after:(M.snapshot ()) in
  check_int "blackboard_bits_total == report.blackboard_bits"
    report.Maxis_core.Simulation.blackboard_bits
    (int_of_float (M.get ~labels d "blackboard_bits_total"));
  check_int "blackboard_writes_total == report.blackboard_writes"
    report.Maxis_core.Simulation.blackboard_writes
    (int_of_float (M.get ~labels d "blackboard_writes_total"));
  check_int "simulation_runs_total bumped" 1
    (int_of_float (M.get ~labels d "simulation_runs_total"));
  (* The per-player split partitions the total exactly. *)
  let per_player =
    List.fold_left
      (fun acc (s : M.sample) ->
        if s.M.name = "blackboard_player_bits_total" then
          acc + int_of_float s.M.value
        else acc)
      0 d
  in
  check_int "per-player bits sum to the total"
    report.Maxis_core.Simulation.blackboard_bits per_player;
  (* And the per-round histogram saw one observation per round with the
     same total sum. *)
  match M.find ~labels d "blackboard_round_bits" with
  | None -> Alcotest.fail "blackboard_round_bits missing"
  | Some s ->
      check_int "one histogram observation per round"
        report.Maxis_core.Simulation.rounds
        (int_of_float s.M.value);
      check_int "histogram sum = blackboard bits"
        report.Maxis_core.Simulation.blackboard_bits
        (int_of_float s.M.sum)

(* ------------------------------------------------------------------ *)
(* Streaming-trace parity: the trace's O(1) accumulators (the single
   source of truth since the arena rewrite) must agree exactly with a
   fold over the full recorded send log, and a Light-mode trace of the
   same run must agree with the Full one on every streamed query. *)

let sparse_random_graph ~seed n =
  let g = Wgraph.Graph.create n in
  let rng = Stdx.Prng.create seed in
  for v = 0 to n - 1 do
    for _ = 1 to 3 do
      let u = Stdx.Prng.int rng n in
      if u <> v then Wgraph.Graph.add_edge g v u
    done
  done;
  g

let halves n = Array.init n (fun v -> if 2 * v < n then 0 else 1)

let streaming_parity_cell gname g (P program) () =
  let n = Wgraph.Graph.n g in
  let part = halves n in
  let full = Congest.Trace.create ~cut:part () in
  ignore (Congest.Runtime.run ~trace:full program g);
  let sends = Congest.Trace.send_events full in
  let fold f init = Array.fold_left f init sends in
  (* Scalar accumulators vs the log. *)
  check_int "total_messages" (Array.length sends)
    (Congest.Trace.total_messages full);
  check_int "total_bits"
    (fold (fun acc (s : Congest.Trace.send) -> acc + s.Congest.Trace.bits) 0)
    (Congest.Trace.total_bits full);
  (* Per-round accumulators, over every executed round. *)
  for r = 0 to Congest.Trace.rounds full - 1 do
    check_int
      (Printf.sprintf "bits_in_round %d" r)
      (fold
         (fun acc (s : Congest.Trace.send) ->
           if s.Congest.Trace.round = r then acc + s.Congest.Trace.bits
           else acc)
         0)
      (Congest.Trace.bits_in_round full r);
    check_int
      (Printf.sprintf "messages_in_round %d" r)
      (fold
         (fun acc (s : Congest.Trace.send) ->
           if s.Congest.Trace.round = r then acc + 1 else acc)
         0)
      (Congest.Trace.messages_in_round full r)
  done;
  (* Registered-cut accumulators vs the log. *)
  let crossing (s : Congest.Trace.send) =
    part.(s.Congest.Trace.src) <> part.(s.Congest.Trace.dst)
  in
  check_int "cut_bits"
    (fold
       (fun acc s -> if crossing s then acc + s.Congest.Trace.bits else acc)
       0)
    (Congest.Trace.cut_bits full part);
  check_int "cut_messages"
    (fold (fun acc s -> if crossing s then acc + 1 else acc) 0)
    (Congest.Trace.cut_messages full part);
  let by_side = Congest.Trace.cut_bits_by_side full part in
  Array.iteri
    (fun p want ->
      check_int
        (Printf.sprintf "cut_bits_by_side %d" p)
        (fold
           (fun acc (s : Congest.Trace.send) ->
             if crossing s && part.(s.Congest.Trace.src) = p then
               acc + s.Congest.Trace.bits
             else acc)
           0)
        want)
    by_side;
  check_int "by_side sums to cut_bits"
    (Congest.Trace.cut_bits full part)
    (Array.fold_left ( + ) 0 by_side);
  let by_round = Congest.Trace.cut_bits_by_round full part in
  check_int "by_round length" (Congest.Trace.rounds full)
    (Array.length by_round);
  check_int "by_round sums to cut_bits"
    (Congest.Trace.cut_bits full part)
    (Array.fold_left ( + ) 0 by_round);
  (* max per (round, edge) — fold recomputation vs the trace's answer. *)
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun (s : Congest.Trace.send) ->
      let key =
        (s.Congest.Trace.round, s.Congest.Trace.src, s.Congest.Trace.dst)
      in
      Hashtbl.replace tbl key
        (s.Congest.Trace.bits
        + Option.value ~default:0 (Hashtbl.find_opt tbl key)))
    sends;
  check_int "max_bits_per_edge_round"
    (Hashtbl.fold (fun _ v acc -> max acc v) tbl 0)
    (Congest.Trace.max_bits_per_edge_round full);
  (* A Light-mode replay of the identical run agrees on every streamed
     query. *)
  let light = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
  ignore (Congest.Runtime.run ~trace:light program g);
  check_int (gname ^ ": light rounds") (Congest.Trace.rounds full)
    (Congest.Trace.rounds light);
  check_int "light total_messages"
    (Congest.Trace.total_messages full)
    (Congest.Trace.total_messages light);
  check_int "light total_bits" (Congest.Trace.total_bits full)
    (Congest.Trace.total_bits light);
  for r = 0 to Congest.Trace.rounds full - 1 do
    check_int "light bits_in_round"
      (Congest.Trace.bits_in_round full r)
      (Congest.Trace.bits_in_round light r)
  done;
  check_int "light cut_bits"
    (Congest.Trace.cut_bits full part)
    (Congest.Trace.cut_bits light part);
  check_int "light cut_messages"
    (Congest.Trace.cut_messages full part)
    (Congest.Trace.cut_messages light part);
  check_int "light max_bits_per_edge_round"
    (Congest.Trace.max_bits_per_edge_round full)
    (Congest.Trace.max_bits_per_edge_round light);
  (* Log-shaped queries are unavailable without the log. *)
  (try
     ignore (Congest.Trace.send_events light);
     Alcotest.fail "Light send_events should raise"
   with Invalid_argument _ -> ());
  try
    ignore (Congest.Trace.cut_bits light (Array.map (fun p -> 1 - p) part));
    Alcotest.fail "Light foreign-cut query should raise"
  with Invalid_argument _ -> ()

(* Fault accumulators against a fold over the recorded fault events. *)
let test_streaming_fault_parity () =
  let g = Build.cycle 7 in
  let part = halves 7 in
  let plan =
    Congest.Faults.plan
      ~default:
        (Congest.Faults.link ~drop:0.2 ~duplicate:0.2 ~max_delay:2 ())
      0xfa17
  in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.faults = Some plan }
  in
  let full = Congest.Trace.create ~cut:part () in
  ignore (Congest.Runtime.run ~config ~trace:full Congest.Algo_luby.mis g);
  let faults = Congest.Trace.fault_events full in
  let sum pred =
    Array.fold_left
      (fun acc (f : Congest.Trace.fault) ->
        if pred f then acc + f.Congest.Trace.bits else acc)
      0 faults
  in
  check_int "dropped_bits"
    (sum (fun f -> f.Congest.Trace.kind = Congest.Trace.Dropped))
    (Congest.Trace.dropped_bits full);
  check_int "duplicated_bits"
    (sum (fun f -> f.Congest.Trace.kind = Congest.Trace.Duplicated))
    (Congest.Trace.duplicated_bits full);
  check_int "corrupted_bits"
    (sum (fun f -> f.Congest.Trace.kind = Congest.Trace.Corrupted))
    (Congest.Trace.corrupted_bits full);
  check_int "total_faults" (Array.length faults)
    (Congest.Trace.total_faults full);
  let crossing (f : Congest.Trace.fault) =
    part.(f.Congest.Trace.src) <> part.(f.Congest.Trace.dst)
  in
  check_int "cut_bits_dropped"
    (sum (fun f -> f.Congest.Trace.kind = Congest.Trace.Dropped && crossing f))
    (Congest.Trace.cut_bits_dropped full part);
  check_int "cut_bits_duplicated"
    (sum
       (fun f -> f.Congest.Trace.kind = Congest.Trace.Duplicated && crossing f))
    (Congest.Trace.cut_bits_duplicated full part);
  check_int "delivered identity"
    (Congest.Trace.cut_bits full part
    - Congest.Trace.cut_bits_dropped full part
    + Congest.Trace.cut_bits_duplicated full part)
    (Congest.Trace.cut_bits_delivered full part);
  (* Same faulty run, Light trace: streamed fault accounting matches. *)
  let light = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
  ignore (Congest.Runtime.run ~config ~trace:light Congest.Algo_luby.mis g);
  check_int "light dropped_bits" (Congest.Trace.dropped_bits full)
    (Congest.Trace.dropped_bits light);
  check_int "light duplicated_bits"
    (Congest.Trace.duplicated_bits full)
    (Congest.Trace.duplicated_bits light);
  check_int "light total_faults" (Congest.Trace.total_faults full)
    (Congest.Trace.total_faults light);
  check_int "light cut_bits_delivered"
    (Congest.Trace.cut_bits_delivered full part)
    (Congest.Trace.cut_bits_delivered light part)

(* ------------------------------------------------------------------ *)
(* Flat-executor fingerprints: [Runtime.run_flat] of every library flat
   program, with no pool and on pools of width 2 and 3, pinned field by
   field.  The list-mode programs derive from the same flat sources, so
   executor-parity tests cannot catch a wrong flat program; this table
   can.  Each run records into a Light trace with a seeded bipartition
   registered, and pins rounds, messages, bits, the trace digest, the
   cut bits and a fold over every node's output. *)

type flat = F : 'o Congest.Fastpath.t * ('o -> int) -> flat

(* The sparse random edge rule of test_csr and perfbench (three uniform
   endpoints per node, self-draws skipped) plus seeded weights, so
   greedy MIS sees distinct priorities.  Gathering packs a weight into
   2·⌈log n⌉ bits, so the small graph keeps its weights below 2⁸. *)
let seeded_csr ?(max_weight = 1000) ~seed n =
  let rng = Stdx.Prng.create seed in
  let b = Wgraph.Csr.Builder.create n in
  for v = 0 to n - 1 do
    for _ = 1 to 3 do
      let u = Stdx.Prng.int rng n in
      if u <> v then Wgraph.Csr.Builder.add_edge b v u
    done
  done;
  for v = 0 to n - 1 do
    Wgraph.Csr.Builder.set_weight b v (Stdx.Prng.int rng max_weight)
  done;
  Wgraph.Csr.Builder.finish b

let flat_graphs () =
  [
    ("sparse-a", seeded_csr ~seed:0xf1a7 2000, false);
    ("sparse-b", seeded_csr ~seed:0xf1a8 2048, false);
    ("sparse-c", seeded_csr ~seed:0xf1a9 1999, false);
    ("small", seeded_csr ~max_weight:200 ~seed:0xf1aa 14, true);
  ]

let flat_programs c ~gather =
  let of_bool b = if b then 1 else 0 in
  [
    F (Congest.Fastpath.max_id ~rounds:16, Fun.id);
    F (Congest.Fastpath.bfs_distances ~root:0 ~rounds:16, Fun.id);
    F (Congest.Fastpath.luby_mis, of_bool);
    F (Congest.Fastpath.greedy_mis, of_bool);
  ]
  @
  if gather then
    [ F (Congest.Algo_gather.exact_maxis_flat ~m:(Wgraph.Csr.edge_count c), Fun.id) ]
  else []

type fingerprint = {
  fp_rounds : int;
  fp_messages : int;
  fp_bits : int;
  fp_digest : string;
  fp_cut_bits : int;
  fp_outputs : int;
}

let seeded_bipartition ~seed n =
  let rng = Stdx.Prng.create seed in
  Array.init n (fun _ -> Stdx.Prng.int rng 2)

let flat_fingerprint ?pool (F (fp, encode)) c =
  let part = seeded_bipartition ~seed:0xc07 (Wgraph.Csr.n c) in
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light ~cut:part () in
  let r = Congest.Runtime.run_flat ~trace ?pool fp c in
  {
    fp_rounds = r.Congest.Runtime.rounds_executed;
    fp_messages = Congest.Trace.total_messages trace;
    fp_bits = Congest.Trace.total_bits trace;
    fp_digest = Int64.to_string (Congest.Trace.digest trace);
    fp_cut_bits = Congest.Trace.cut_bits trace part;
    fp_outputs =
      Array.fold_left
        (fun h o ->
          let v = match o with None -> -1 | Some x -> encode x in
          (h * 1_000_003) + v + 1)
        17 r.Congest.Runtime.outputs;
  }

(* (algo, graph) -> the fingerprint every executor must reproduce. *)
let flat_goldens =
  [
    (("max-id-flood", "sparse-a"), { fp_rounds = 16; fp_messages = 58621; fp_bits = 644831; fp_digest = "2598107046368129332"; fp_cut_bits = 318494; fp_outputs = -2839384250665802671 });
    (("bfs-distances", "sparse-a"), { fp_rounds = 16; fp_messages = 11986; fp_bits = 131846; fp_digest = "821042707540527371"; fp_cut_bits = 64988; fp_outputs = 2715849112193587803 });
    (("luby-mis", "sparse-a"), { fp_rounds = 12; fp_messages = 27734; fp_bits = 358442; fp_digest = "3442018783885616468"; fp_cut_bits = 176034; fp_outputs = 37674525093354134 });
    (("greedy-weight-mis", "sparse-a"), { fp_rounds = 15; fp_messages = 27509; fp_bits = 150253; fp_digest = "-1823534009227125776"; fp_cut_bits = 74452; fp_outputs = -2356025543148932191 });
    (("max-id-flood", "sparse-b"), { fp_rounds = 16; fp_messages = 59435; fp_bits = 653785; fp_digest = "-2214586800037429479"; fp_cut_bits = 324720; fp_outputs = -4028593833458032623 });
    (("bfs-distances", "sparse-b"), { fp_rounds = 16; fp_messages = 12276; fp_bits = 135036; fp_digest = "-4245789594333194591"; fp_cut_bits = 67210; fp_outputs = -2293319918204583052 });
    (("luby-mis", "sparse-b"), { fp_rounds = 9; fp_messages = 27722; fp_bits = 352088; fp_digest = "2152599248804163549"; fp_cut_bits = 176192; fp_outputs = 3490964796770722230 });
    (("greedy-weight-mis", "sparse-b"), { fp_rounds = 12; fp_messages = 28626; fp_bits = 158141; fp_digest = "-3800079677475888791"; fp_cut_bits = 79286; fp_outputs = -2295737023205671503 });
    (("max-id-flood", "sparse-c"), { fp_rounds = 16; fp_messages = 58254; fp_bits = 640794; fp_digest = "1049344269627642595"; fp_cut_bits = 323697; fp_outputs = 1590659703421142006 });
    (("bfs-distances", "sparse-c"), { fp_rounds = 16; fp_messages = 11974; fp_bits = 131714; fp_digest = "1305731383319383054"; fp_cut_bits = 66396; fp_outputs = 3778896499465049012 });
    (("luby-mis", "sparse-c"), { fp_rounds = 12; fp_messages = 27831; fp_bits = 360828; fp_digest = "-1769429461441492547"; fp_cut_bits = 181706; fp_outputs = 1880047584332120885 });
    (("greedy-weight-mis", "sparse-c"), { fp_rounds = 12; fp_messages = 27860; fp_bits = 153327; fp_digest = "3193528953080699964"; fp_cut_bits = 77326; fp_outputs = 2199985144999893099 });
    (("max-id-flood", "small"), { fp_rounds = 16; fp_messages = 184; fp_bits = 736; fp_digest = "-4161818864649292340"; fp_cut_bits = 356; fp_outputs = 125049946294701649 });
    (("bfs-distances", "small"), { fp_rounds = 16; fp_messages = 72; fp_bits = 288; fp_digest = "-3760130041684729062"; fp_cut_bits = 136; fp_outputs = -1026959767865218162 });
    (("luby-mis", "small"), { fp_rounds = 6; fp_messages = 162; fp_bits = 792; fp_digest = "-1651611518311952879"; fp_cut_bits = 378; fp_outputs = 4319169778273572430 });
    (("greedy-weight-mis", "small"), { fp_rounds = 6; fp_messages = 153; fp_bits = 584; fp_digest = "2866542066613049738"; fp_cut_bits = 266; fp_outputs = -3375607933258927050 });
    (("gather-topology", "small"), { fp_rounds = 50; fp_messages = 3600; fp_bits = 46800; fp_digest = "2736438602393620132"; fp_cut_bits = 22100; fp_outputs = -624597848138976939 });
  ]

let flat_pools = lazy (List.map (fun jobs -> Exec.Pool.create ~jobs ()) [ 2; 3 ])

let flat_cell gname c (F (fp, _) as p) () =
  let algo = fp.Congest.Fastpath.fname in
  let got = flat_fingerprint p c in
  if print_mode then
    Printf.printf
      "((%S, %S), { fp_rounds = %d; fp_messages = %d; fp_bits = %d; fp_digest = %S; fp_cut_bits = %d; fp_outputs = %d });\n"
      algo gname got.fp_rounds got.fp_messages got.fp_bits got.fp_digest
      got.fp_cut_bits got.fp_outputs
  else begin
    let exp =
      match List.assoc_opt (algo, gname) flat_goldens with
      | Some e -> e
      | None ->
          Alcotest.fail (Printf.sprintf "no flat golden for (%s, %s)" algo gname)
    in
    let check_fp what (f : fingerprint) =
      let lbl x = Printf.sprintf "%s: %s" what x in
      check_int (lbl "rounds") exp.fp_rounds f.fp_rounds;
      check_int (lbl "messages") exp.fp_messages f.fp_messages;
      check_int (lbl "bits") exp.fp_bits f.fp_bits;
      Alcotest.(check string) (lbl "digest") exp.fp_digest f.fp_digest;
      check_int (lbl "cut_bits") exp.fp_cut_bits f.fp_cut_bits;
      check_int (lbl "outputs") exp.fp_outputs f.fp_outputs
    in
    check_fp "no pool" got;
    List.iter
      (fun pool ->
        check_fp
          (Printf.sprintf "jobs=%d" (Exec.Pool.jobs pool))
          (flat_fingerprint ~pool p c))
      (Lazy.force flat_pools)
  end

let () =
  let cells =
    List.concat_map
      (fun (gname, g) ->
        List.map
          (fun (P prog as p) ->
            Alcotest.test_case
              (Printf.sprintf "%s on %s" prog.Congest.Program.name gname)
              `Quick (run_cell gname g p))
          (programs g))
      (graphs ())
  in
  let fault_cells =
    List.concat_map
      (fun (gname, g) ->
        List.map
          (fun (corrupt, (P prog as p)) ->
            Alcotest.test_case
              (Printf.sprintf "%s on %s" prog.Congest.Program.name gname)
              `Quick
              (fault_cell gname g ~corrupt p))
          (fault_programs g))
      (graphs ())
  in
  let flat_cells =
    List.concat_map
      (fun (gname, c, gather) ->
        List.map
          (fun (F (fp, _) as p) ->
            Alcotest.test_case
              (Printf.sprintf "%s on %s" fp.Congest.Fastpath.fname gname)
              `Quick (flat_cell gname c p))
          (flat_programs c ~gather))
      (flat_graphs ())
  in
  let streaming_cells =
    let graphs =
      List.map (fun (gname, g) -> (gname, g, programs g)) (graphs ())
      @ [
          ( "rand1e4",
            sparse_random_graph ~seed:0x5eed 10_000,
            local_programs () );
        ]
    in
    List.concat_map
      (fun (gname, g, programs) ->
        List.map
          (fun (P prog as p) ->
            Alcotest.test_case
              (Printf.sprintf "streaming %s on %s" prog.Congest.Program.name
                 gname)
              `Quick
              (streaming_parity_cell gname g p))
          programs)
      graphs
  in
  (* Group names stay within 16 characters: alcotest sizes its name
     column by the longest group, so a longer one would change how the
     names of every existing case print. *)
  Alcotest.run "golden"
    [
      ("trace-counts", cells);
      ("fault-traces", fault_cells);
      ("flat-fingerprint", flat_cells);
      ("streaming", streaming_cells);
      ( "streaming-faults",
        [
          Alcotest.test_case "fault accumulators == fold" `Quick
            test_streaming_fault_parity;
        ] );
      ( "blackboard",
        [
          Alcotest.test_case "metric == simulation report" `Quick
            test_blackboard_metric_matches_report;
        ] );
    ]
