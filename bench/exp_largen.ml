(* Experiment LARGEN: the large-n CSR engine at n in the 10³–10⁵(10⁶)
   range.

   Three legs:

   - an algorithm sweep — flood (max-id), BFS distances, and Luby MIS on
     sparse random CSR graphs, executed through the allocation-free
     [Runtime.run_flat] with [Trace.Light] streaming accumulators.  The
     verdict table (rounds, messages, bits, halted) is deterministic for
     a given size gate and lands on stdout; wall-clock throughput goes
     to stderr, results/largen.csv and BENCH_largen.json, never stdout;

   - a gadget-family sweep — the linear construction at α = 1, t = 2
     scaled to each target n via [Linear_family.fixed_csr] /
     [instance_csr], then flooded for a few rounds with the player cut
     registered so the blackboard accounting stays O(1) per event.  At
     the smallest size the CSR build is cross-checked edge-for-edge
     against the bitset path ([Csr.of_graph (fst (fixed p))]);

   - a pinned seed-vs-flat comparison at n = 10⁴ — the historical path
     ([Runtime.run] on {!Wgraph.Graph.t} with a [Full] trace) against
     the large-n path ([run_flat] on {!Wgraph.Csr.t} with a [Light]
     trace) on the same graph and workload, with the output parity
     asserted and the rounds/s ratio recorded in the trajectory file.

   MAXIS_LARGEN_MAX_N caps the sweep sizes (default 100_000; set
   1_000_000 to include the top size, 10_000 for a CI-speed smoke). *)

module T = Stdx.Tablefmt
module J = Stdx.Jsonx
module Csr = Wgraph.Csr
module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
open Exp_common

let bench_json = "BENCH_largen.json"

let largen_csv = Filename.concat "results" "largen.csv"

let max_n =
  match Sys.getenv_opt "MAXIS_LARGEN_MAX_N" with
  | None | Some "" -> 100_000
  | Some s -> ( try int_of_string s with Failure _ -> 100_000)

let sizes = List.filter (fun n -> n <= max_n) [ 1_000; 10_000; 100_000; 1_000_000 ]

(* Sweep workloads converge well before this on the random graphs below
   (diameter ~ log n); flood and BFS still execute all 16 rounds, so the
   rounds/s figures compare like with like across sizes. *)
let sweep_rounds = 16

(* ------------------------------------------------------------------ *)
(* Sparse random graphs: every node draws three partners, so the degree
   is 3–6 in expectation and m ≈ 3n — the regime where CSR beats the
   n²-bit matrix by orders of magnitude.  PARLARGEN sweeps the same
   graphs. *)

let sparse_csr n =
  let rng = rng_for (Printf.sprintf "largen-graph-%d" n) in
  let b = Csr.Builder.create n in
  for v = 0 to n - 1 do
    for _ = 1 to 3 do
      let u = Stdx.Prng.int rng n in
      if u <> v then Csr.Builder.add_edge b v u
    done
  done;
  Csr.Builder.finish b

(* ------------------------------------------------------------------ *)
(* Measurements.  Only [wall_s] is run-dependent; everything else is
   fixed by the seeds. *)

type measure = {
  m_leg : string;
  m_n : int;
  m_algo : string;
  m_rounds : int;
  m_messages : int;
  m_bits : int;
  m_halted : bool;
  m_wall_s : float;
  m_peak_words : int;
}

let config rounds =
  { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }

let run_flat_timed ~leg ~algo ?cut ~rounds fp c =
  let trace = Congest.Trace.create ~mode:Congest.Trace.Light ?cut () in
  let t0 = Unix.gettimeofday () in
  let result = Congest.Runtime.run_flat ~config:(config rounds) ~trace fp c in
  let wall_s = Unix.gettimeofday () -. t0 in
  ( {
      m_leg = leg;
      m_n = Csr.n c;
      m_algo = algo;
      m_rounds = result.Congest.Runtime.rounds_executed;
      m_messages = Congest.Trace.total_messages trace;
      m_bits = Congest.Trace.total_bits trace;
      m_halted = result.Congest.Runtime.all_halted;
      m_wall_s = wall_s;
      m_peak_words = Csr.resident_words c;
    },
    result,
    trace )

let per_s count wall = if wall <= 0.0 then 0.0 else float_of_int count /. wall

(* ------------------------------------------------------------------ *)
(* Gadget parameters: α = 1, t = 2, the largest ℓ whose construction
   fits the target node count.  n ≈ 2(ℓ+1)(q+1) ~ 2ℓ², so targets 10³,
   10⁴ and 10⁵ land around ℓ = 21, 69 and 222. *)

let gadget_params target =
  let rec grow ell best =
    let p = P.make ~alpha:1 ~ell ~players:2 in
    if LF.n_nodes p > target then best else grow (ell + 1) (Some p)
  in
  grow 2 None

(* ------------------------------------------------------------------ *)

let run () =
  section "LARGEN" "large-n CSR engine: flood/BFS/Luby + gadget sweep";
  note "sizes up to %d (MAXIS_LARGEN_MAX_N); wall-clock on stderr, %s and %s"
    max_n largen_csv bench_json;
  let measures = ref [] in
  let record m =
    measures := m :: !measures;
    Printf.eprintf "  [largen] %-8s n=%-8d %-9s %.3fs (%.0f rounds/s, %.0f msgs/s)\n%!"
      m.m_leg m.m_n m.m_algo m.m_wall_s
      (per_s m.m_rounds m.m_wall_s)
      (per_s m.m_messages m.m_wall_s)
  in

  (* ---------------- algorithm sweep (deterministic table) ---------- *)
  let table =
    T.create
      [
        T.column ~align:T.Right "n";
        T.column ~align:T.Left "algo";
        T.column ~align:T.Right "rounds";
        T.column ~align:T.Right "messages";
        T.column ~align:T.Right "bits";
        T.column ~align:T.Left "halted";
      ]
  in
  List.iter
    (fun n ->
      let c = sparse_csr n in
      let legs =
        [
          ("flood", fun () -> Congest.Fastpath.max_id ~rounds:sweep_rounds);
          ("bfs", fun () -> Congest.Fastpath.bfs_distances ~root:0 ~rounds:sweep_rounds);
        ]
      in
      List.iter
        (fun (algo, fp) ->
          let m, _, _ =
            run_flat_timed ~leg:"sweep" ~algo ~rounds:sweep_rounds (fp ()) c
          in
          record m;
          T.add_row table
            [
              T.cell_int m.m_n;
              algo;
              T.cell_int m.m_rounds;
              T.cell_int m.m_messages;
              T.cell_int m.m_bits;
              T.cell_bool m.m_halted;
            ])
        legs;
      let m, result, _ =
        run_flat_timed ~leg:"sweep" ~algo:"luby"
          ~rounds:Congest.Runtime.default_config.Congest.Runtime.max_rounds
          Congest.Fastpath.luby_mis c
      in
      record m;
      let in_mis =
        Array.fold_left
          (fun acc o -> if o = Some true then acc + 1 else acc)
          0 result.Congest.Runtime.outputs
      in
      T.add_row table
        [
          T.cell_int m.m_n;
          Printf.sprintf "luby(|MIS|=%d)" in_mis;
          T.cell_int m.m_rounds;
          T.cell_int m.m_messages;
          T.cell_int m.m_bits;
          T.cell_bool m.m_halted;
        ])
    sizes;
  T.print ~title:"flat executor sweep on sparse random graphs" table;

  (* ---------------- seed-vs-flat comparison at n = 10⁴ -------------

     Three executors on the same graph and workload: the frozen seed
     path ({!Baseline.run}: per-send records, hashtable bandwidth
     bookkeeping, cons-and-sort delivery), the current list-mode arena
     ({!Runtime.run}, byte-identical outputs to seed), and the flat
     large-n path ({!Runtime.run_flat}).  [Algo_flood.max_id] is
     [Fastpath.to_program] of the flat flood, so the seed and list
     columns time their executor plus that adapter (inbox pushes, one
     [Msg.t] per emitted message), running the same step function as
     the flat column.  Best-of-3 walls; outputs are asserted identical
     across all three. *)
  let speedup =
    if max_n < 10_000 then None
    else begin
      let c = sparse_csr 10_000 in
      let g = Csr.to_graph c in
      (* Runs before the gadget leg on purpose: its 4×10⁷-edge instance
         bloats the major heap enough to skew all three walls.  Compact
         so the executors time against the same clean memory state. *)
      Gc.compact ();
      (* Samples are sized to comparable wall-clock (the flat run is ~10×
         shorter, so each of its samples times 10 back-to-back runs):
         scheduler jitter then perturbs every executor's best-of-3
         equally instead of swamping the shortest. *)
      let repeats = 3 in
      let best ~iters f =
        let w = ref infinity in
        let out = ref None in
        for _ = 1 to repeats do
          let t0 = Unix.gettimeofday () in
          for _ = 1 to iters - 1 do
            ignore (f ())
          done;
          let r = f () in
          let dt = (Unix.gettimeofday () -. t0) /. float_of_int iters in
          if dt < !w then begin
            w := dt;
            out := Some r
          end
        done;
        (Option.get !out, !w)
      in
      let seed_result, seed_wall =
        best ~iters:1 (fun () ->
            Baseline.run ~config:(config sweep_rounds)
              (Congest.Algo_flood.max_id ~rounds:sweep_rounds)
              g)
      in
      let list_result, list_wall =
        best ~iters:2 (fun () ->
            Congest.Runtime.run ~config:(config sweep_rounds)
              (Congest.Algo_flood.max_id ~rounds:sweep_rounds)
              g)
      in
      let flat_result, flat_wall =
        best ~iters:10 (fun () ->
            let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
            Congest.Runtime.run_flat ~config:(config sweep_rounds) ~trace
              (Congest.Fastpath.max_id ~rounds:sweep_rounds)
              c)
      in
      let parity =
        seed_result.Baseline.outputs = flat_result.Congest.Runtime.outputs
        && seed_result.Baseline.outputs = list_result.Congest.Runtime.outputs
        && seed_result.Baseline.rounds_executed
           = flat_result.Congest.Runtime.rounds_executed
        && Baseline.total_messages seed_result.Baseline.trace
           = Congest.Trace.total_messages list_result.Congest.Runtime.trace
        && Baseline.total_bits seed_result.Baseline.trace
           = Congest.Trace.total_bits list_result.Congest.Runtime.trace
      in
      note "seed-vs-flat at n=10000: outputs, rounds and traffic totals %s"
        (if parity then "agree across all three executors" else "DISAGREE");
      let ratio = seed_wall /. flat_wall in
      Printf.eprintf
        "  [largen] speedup  n=10000   flood     seed %.3fs / list %.3fs / \
         flat %.3fs -> %.1fx (list %.1fx)\n%!"
        seed_wall list_wall flat_wall ratio (seed_wall /. list_wall);
      Some (seed_wall, list_wall, flat_wall, ratio, parity)
    end
  in

  (* ---------------- gadget-family sweep ---------------------------- *)
  let gtable =
    T.create
      [
        T.column ~align:T.Right "target";
        T.column ~align:T.Right "ell";
        T.column ~align:T.Right "nodes";
        T.column ~align:T.Right "edges";
        T.column ~align:T.Right "cut edges";
        T.column ~align:T.Right "cut bits";
        T.column ~align:T.Left "csr = bitset";
      ]
  in
  List.iter
    (fun target ->
      match gadget_params target with
      | None -> ()
      | Some p ->
          let t0 = Unix.gettimeofday () in
          let fixed, part = LF.fixed_csr p in
          let build_s = Unix.gettimeofday () -. t0 in
          let rng = rng_for (Printf.sprintf "largen-gadget-%d" target) in
          let x =
            Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players
              ~intersecting:true
          in
          let inst, _ = LF.instance_csr p x in
          let m, _, trace =
            run_flat_timed ~leg:"gadget" ~algo:"flood" ~cut:part ~rounds:4
              (Congest.Fastpath.max_id ~rounds:4)
              inst
          in
          record { m with m_wall_s = m.m_wall_s +. build_s };
          Printf.eprintf "  [largen] gadget   ell=%d build %.3fs (%d edges)\n%!"
            (P.ell p) build_s (Csr.edge_count fixed);
          (* Small sizes: the CSR builder path must agree edge-for-edge
             with the historical bitset construction. *)
          let agrees =
            if LF.n_nodes p <= 2_000 then
              T.cell_bool (Csr.equal fixed (Csr.of_graph (fst (LF.fixed p))))
            else "skipped"
          in
          T.add_row gtable
            [
              T.cell_int target;
              T.cell_int (P.ell p);
              T.cell_int (Csr.n fixed);
              T.cell_int (Csr.edge_count fixed);
              T.cell_int (LF.expected_cut_size p);
              T.cell_int (Congest.Trace.cut_bits trace part);
              agrees;
            ])
    sizes;
  T.print ~title:"linear family at alpha=1, t=2 (flood, 4 rounds, cut registered)"
    gtable;

  (* ---------------- CSV + trajectory ------------------------------- *)
  let rows = List.rev !measures in
  Exec.Cache.mkdir_p "results";
  let oc = open_out largen_csv in
  output_string oc
    "leg,n,algo,rounds,messages,bits,wall_s,rounds_per_s,msgs_per_s,peak_words\n";
  List.iter
    (fun m ->
      Printf.fprintf oc "%s,%d,%s,%d,%d,%d,%.4f,%.1f,%.1f,%d\n" m.m_leg m.m_n
        m.m_algo m.m_rounds m.m_messages m.m_bits m.m_wall_s
        (per_s m.m_rounds m.m_wall_s)
        (per_s m.m_messages m.m_wall_s)
        m.m_peak_words)
    rows;
  (match speedup with
  | None -> ()
  | Some (seed_wall, list_wall, flat_wall, ratio, _) ->
      let row algo wall =
        Printf.fprintf oc "speedup,10000,%s,%d,0,0,%.4f,%.1f,0,0\n" algo
          sweep_rounds wall
          (per_s sweep_rounds wall)
      in
      row "flood-seed" seed_wall;
      row "flood-list" list_wall;
      row "flood-flat" flat_wall;
      Printf.fprintf oc "# flat %.1fx over seed, list %.1fx over seed\n" ratio
        (seed_wall /. list_wall));
  close_out oc;
  let today () =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let run_entry m =
    J.Obj
      [
        ("leg", J.Str m.m_leg);
        ("n", J.Int m.m_n);
        ("algo", J.Str m.m_algo);
        ("rounds", J.Int m.m_rounds);
        ("messages", J.Int m.m_messages);
        ("bits", J.Int m.m_bits);
        ("wall_s", J.Float m.m_wall_s);
        ("rounds_per_s", J.Float (per_s m.m_rounds m.m_wall_s));
        ("messages_per_s", J.Float (per_s m.m_messages m.m_wall_s));
        ("peak_words", J.Int m.m_peak_words);
      ]
  in
  let entries = List.map run_entry rows in
  let entries =
    match speedup with
    | None -> entries
    | Some (seed_wall, list_wall, flat_wall, ratio, parity) ->
        entries
        @ [
            J.Obj
              [
                ("leg", J.Str "speedup");
                ("n", J.Int 10_000);
                ("algo", J.Str "flood");
                ("rounds", J.Int sweep_rounds);
                ("seed_wall_s", J.Float seed_wall);
                ("list_wall_s", J.Float list_wall);
                ("flat_wall_s", J.Float flat_wall);
                ("seed_rounds_per_s", J.Float (per_s sweep_rounds seed_wall));
                ("flat_rounds_per_s", J.Float (per_s sweep_rounds flat_wall));
                ("speedup", J.Float ratio);
                ("list_speedup", J.Float (seed_wall /. list_wall));
                ("outputs_agree", J.Bool parity);
              ];
          ]
  in
  J.append_entry ~path:bench_json
    ~header:[ ("bench", J.Str "largen"); ("schema", J.Int 1) ]
    (J.Obj
       [
         ("date", J.Str (today ()));
         ("max_n", J.Int max_n);
         ("runs", J.Arr entries);
       ]);
  note "throughput written to %s and %s" largen_csv bench_json
