(* Experiment PARLARGEN: the flat runtime sharded across a pool
   ([Runtime.run_flat ~pool]) against the same executor without a pool
   at n in the 10³–10⁵(10⁶) range, across pool widths.

   Three legs:

   - an algorithm sweep — flood, BFS and Luby on the same sparse random
     CSR graphs as LARGEN, run once without a pool and then at every
     width in [jobs_widths].  Outputs, round counts and Light-trace
     digests are asserted byte-identical at every width; the
     deterministic parity table lands on stdout, wall-clock and the
     scaling-efficiency table (speedup and efficiency per width) on
     stderr, results/parlargen.csv and BENCH_largen.json;

   - a gadget-construction sweep — [Linear_family.fixed_csr] and (at
     the smaller sizes) [Quadratic_family.fixed_csr] built with the
     row-sorting pass sharded across each width via
     [Csr.Builder.finish ~shard], asserted [Csr.equal] to the
     sequential build.  Gadget targets stop at 10⁵ (a 10⁶-node gadget
     instance carries ~10¹⁰ edges — out of memory range);

   - the trajectory append — one dated entry per run, recorded with the
     host's domain count so single-core CI numbers read as what they
     are.

   MAXIS_LARGEN_MAX_N caps the sweep sizes exactly as in LARGEN. *)

module T = Stdx.Tablefmt
module J = Stdx.Jsonx
module Csr = Wgraph.Csr
module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module QF = Maxis_core.Quadratic_family
open Exp_common

let bench_json = "BENCH_largen.json"
let parlargen_csv = Filename.concat "results" "parlargen.csv"

let max_n =
  match Sys.getenv_opt "MAXIS_LARGEN_MAX_N" with
  | None | Some "" -> 100_000
  | Some s -> ( try int_of_string s with Failure _ -> 100_000)

let sizes = List.filter (fun n -> n <= max_n) [ 1_000; 10_000; 100_000; 1_000_000 ]
let gadget_sizes = List.filter (fun n -> n <= 100_000) sizes
let jobs_widths = [ 1; 2; 4; 8 ]
let sweep_rounds = 16

(* Same seeded construction as LARGEN, so the two experiments measure
   the same graphs. *)
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

let config rounds =
  { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }

type row = {
  r_n : int;
  r_algo : string;
  r_jobs : int;  (* 0 = the no-pool reference run *)
  r_rounds : int;
  r_messages : int;
  r_bits : int;
  r_wall_s : float;
  r_parity : bool;
}

let per_s count wall = if wall <= 0.0 then 0.0 else float_of_int count /. wall

let run () =
  section "PARLARGEN" "domain-sharded flat runtime: parity + scaling";
  let host_domains = Domain.recommended_domain_count () in
  note "sizes up to %d (MAXIS_LARGEN_MAX_N), jobs in {1,2,4,8}; host has %d domains"
    max_n host_domains;
  note "wall-clock and scaling table on stderr; %s and %s" parlargen_csv
    bench_json;
  let rows = ref [] in
  let record r =
    rows := r :: !rows;
    Printf.eprintf
      "  [parlargen] n=%-8d %-6s jobs=%d %8.3fs (%.0f rounds/s) parity=%b\n%!"
      r.r_n r.r_algo r.r_jobs r.r_wall_s
      (per_s r.r_rounds r.r_wall_s)
      r.r_parity
  in
  let pools = List.map (fun j -> (j, Exec.Pool.create ~jobs:j ())) jobs_widths in

  (* ---------------- algorithm sweep -------------------------------- *)
  let table =
    T.create
      [
        T.column ~align:T.Right "n";
        T.column ~align:T.Left "algo";
        T.column ~align:T.Right "rounds";
        T.column ~align:T.Right "messages";
        T.column ~align:T.Right "bits";
        T.column ~align:T.Left "parity (jobs 1,2,4,8)";
      ]
  in
  let all_parity = ref true in
  let sweep_algo n c algo rounds fp =
    let run_once runner =
            let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
            let t0 = Unix.gettimeofday () in
            let result = runner ~trace (fp ()) in
            let wall = Unix.gettimeofday () -. t0 in
            (result, trace, wall)
          in
          let seq, seq_trace, seq_wall =
            run_once (fun ~trace fp ->
                Congest.Runtime.run_flat ~config:(config rounds) ~trace fp c)
          in
          record
            {
              r_n = n;
              r_algo = algo;
              r_jobs = 0;
              r_rounds = seq.Congest.Runtime.rounds_executed;
              r_messages = Congest.Trace.total_messages seq_trace;
              r_bits = Congest.Trace.total_bits seq_trace;
              r_wall_s = seq_wall;
              r_parity = true;
            };
          let walls =
            List.map
              (fun (j, pool) ->
                let par, par_trace, wall =
                  run_once (fun ~trace fp ->
                      Congest.Runtime.run_flat ~config:(config rounds)
                        ~trace ~pool fp c)
                in
                let parity =
                  par.Congest.Runtime.outputs = seq.Congest.Runtime.outputs
                  && par.Congest.Runtime.rounds_executed
                     = seq.Congest.Runtime.rounds_executed
                  && Congest.Trace.digest par_trace
                     = Congest.Trace.digest seq_trace
                  && Congest.Trace.total_bits par_trace
                     = Congest.Trace.total_bits seq_trace
                in
                if not parity then all_parity := false;
                record
                  {
                    r_n = n;
                    r_algo = algo;
                    r_jobs = j;
                    r_rounds = par.Congest.Runtime.rounds_executed;
                    r_messages = Congest.Trace.total_messages par_trace;
                    r_bits = Congest.Trace.total_bits par_trace;
                    r_wall_s = wall;
                    r_parity = parity;
                  };
                (j, wall, parity))
              pools
          in
          (* Scaling-efficiency table row (stderr: walls are
             run-dependent). *)
          Printf.eprintf "  [parlargen] scaling n=%-8d %-6s seq %.3fs |" n algo
            seq_wall;
          List.iter
            (fun (j, wall, _) ->
              Printf.eprintf " j%d %.3fs (%.2fx, eff %.0f%%)" j wall
                (if wall > 0.0 then seq_wall /. wall else 0.0)
                (if wall > 0.0 then
                   100.0 *. seq_wall /. wall /. float_of_int j
                 else 0.0))
            walls;
          prerr_newline ();
          T.add_row table
            [
              T.cell_int n;
              algo;
              T.cell_int seq.Congest.Runtime.rounds_executed;
              T.cell_int (Congest.Trace.total_messages seq_trace);
              T.cell_int (Congest.Trace.total_bits seq_trace);
              T.cell_bool (List.for_all (fun (_, _, p) -> p) walls);
            ]
  in
  List.iter
    (fun n ->
      let c = sparse_csr n in
      sweep_algo n c "flood" sweep_rounds (fun () ->
          Congest.Fastpath.max_id ~rounds:sweep_rounds);
      sweep_algo n c "bfs" sweep_rounds (fun () ->
          Congest.Fastpath.bfs_distances ~root:0 ~rounds:sweep_rounds);
      sweep_algo n c "luby"
        Congest.Runtime.default_config.Congest.Runtime.max_rounds
        (fun () -> Congest.Fastpath.luby_mis))
    sizes;
  T.print
    ~title:"run_flat with a pool = without one, at every width (sparse random graphs)"
    table;
  note "parity verdict: %s"
    (if !all_parity then "all widths byte-identical" else "PARITY FAILURE");

  (* ---------------- gadget-construction sweep ---------------------- *)
  let gtable =
    T.create
      [
        T.column ~align:T.Right "target";
        T.column ~align:T.Left "family";
        T.column ~align:T.Right "nodes";
        T.column ~align:T.Right "edges";
        T.column ~align:T.Left "sharded = sequential";
      ]
  in
  let gadget_params_for ~quadratic target =
    let nodes p = if quadratic then QF.n_nodes p else LF.n_nodes p in
    let rec grow ell best =
      let p = P.make ~alpha:1 ~ell ~players:2 in
      if nodes p > target then best else grow (ell + 1) (Some p)
    in
    grow 2 None
  in
  List.iter
    (fun target ->
      List.iter
        (fun quadratic ->
          match gadget_params_for ~quadratic target with
          | None -> ()
          | Some p ->
              let family = if quadratic then "quadratic" else "linear" in
              let build ?shard () =
                if quadratic then fst (QF.fixed_csr ?shard p)
                else fst (LF.fixed_csr ?shard p)
              in
              let t0 = Unix.gettimeofday () in
              let seq = build () in
              let seq_wall = Unix.gettimeofday () -. t0 in
              let agree = ref true in
              List.iter
                (fun (j, pool) ->
                  let shard ~lo ~hi f = Exec.Pool.run_range pool ~lo ~hi f in
                  let t0 = Unix.gettimeofday () in
                  let c = build ~shard () in
                  let wall = Unix.gettimeofday () -. t0 in
                  if not (Csr.equal c seq) then agree := false;
                  Printf.eprintf
                    "  [parlargen] gadget %-9s target=%-7d jobs=%d build %.3fs (seq %.3fs)\n%!"
                    family target j wall seq_wall)
                pools;
              T.add_row gtable
                [
                  T.cell_int target;
                  family;
                  T.cell_int (Csr.n seq);
                  T.cell_int (Csr.edge_count seq);
                  T.cell_bool !agree;
                ])
        [ false; true ])
    gadget_sizes;
  T.print ~title:"gadget CSR construction with sharded row sort" gtable;
  List.iter (fun (_, pool) -> Exec.Pool.shutdown pool) pools;

  (* ---------------- CSV + trajectory ------------------------------- *)
  let rows = List.rev !rows in
  Exec.Cache.mkdir_p "results";
  let oc = open_out parlargen_csv in
  output_string oc "n,algo,jobs,rounds,messages,bits,wall_s,rounds_per_s,parity\n";
  List.iter
    (fun r ->
      Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%.4f,%.1f,%b\n" r.r_n r.r_algo
        r.r_jobs r.r_rounds r.r_messages r.r_bits r.r_wall_s
        (per_s r.r_rounds r.r_wall_s)
        r.r_parity)
    rows;
  close_out oc;
  let today () =
    let tm = Unix.gmtime (Unix.time ()) in
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let entry r =
    J.Obj
      [
        ("n", J.Int r.r_n);
        ("algo", J.Str r.r_algo);
        ("jobs", J.Int r.r_jobs);
        ("rounds", J.Int r.r_rounds);
        ("messages", J.Int r.r_messages);
        ("bits", J.Int r.r_bits);
        ("wall_s", J.Float r.r_wall_s);
        ("rounds_per_s", J.Float (per_s r.r_rounds r.r_wall_s));
        ("parity", J.Bool r.r_parity);
      ]
  in
  J.append_entry ~path:bench_json
    ~header:[ ("bench", J.Str "largen"); ("schema", J.Int 1) ]
    (J.Obj
       [
         ("date", J.Str (today ()));
         ("leg", J.Str "parlargen");
         ("max_n", J.Int max_n);
         ("host_domains", J.Int host_domains);
         ("all_parity", J.Bool !all_parity);
         ("runs", J.Arr (List.map entry rows));
       ]);
  note "throughput written to %s and %s" parlargen_csv bench_json
