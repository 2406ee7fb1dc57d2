(* maxis_lb: command-line driver for the lower-bound constructions.

   Subcommands:
     build     construct an instance and print its census
     verify    check Properties 1-3 and the Definition-4 conditions
     bounds    print the Theorem 1/2 round bounds at given parameters
     figure    emit a paper figure's gadget as DOT
     simulate  run the Theorem-5 CONGEST simulation on an instance
     sweep     sweep t and print the closing gap ratio
     solve     solve one instance, printing the serve daemon's payload line
     serve     run the batched, budgeted, cache-backed solve daemon *)

open Cmdliner
module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module QF = Maxis_core.Quadratic_family
module Family = Maxis_core.Family

(* ------------------------------------------------------------------ *)
(* Common arguments *)

let alpha_arg =
  Arg.(value & opt int 1 & info [ "alpha" ] ~docv:"A" ~doc:"Code parameter alpha.")

let ell_arg =
  Arg.(value & opt int 4 & info [ "ell" ] ~docv:"L" ~doc:"Code parameter ell.")

let players_arg =
  Arg.(value & opt int 3 & info [ "t"; "players" ] ~docv:"T" ~doc:"Number of players.")

let seed_arg =
  Arg.(value & opt int 2020 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let intersecting_arg =
  Arg.(
    value & flag
    & info [ "intersecting" ]
        ~doc:"Generate a uniquely-intersecting input (default: pairwise disjoint).")

let quadratic_arg =
  Arg.(
    value & flag
    & info [ "quadratic" ] ~doc:"Use the Section-5 quadratic family instead of the linear one.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan work out over $(docv) domains (default 1: fully sequential, \
           no domain spawns).  Output is byte-identical for every value.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Do not read or write the on-disk result cache under \
           results/cache/.")

(* ------------------------------------------------------------------ *)
(* Exit-code taxonomy (documented in docs/RESILIENCE.md and the man
   pages):
     0    success — every check passed / output produced
     2    a claim check ran to completion and the claimed bound is
          violated
     3    budget exhausted — some checks are inconclusive (certified
          intervals printed), none failed
     4    I/O error (cache, journal or output file) that survived the
          bounded retries
     124  command-line usage error (cmdliner's convention)
     130/143  interrupted by SIGINT/SIGTERM (after flushing the journal)
   Codes 2/3/4 never overlap: failure beats inconclusive, and an I/O
   error aborts the audit before it can conclude. *)

let exit_io_error = 4

let exits =
  Cmd.Exit.info 0 ~doc:"on success (all checks passed, where applicable)."
  :: Cmd.Exit.info 2
       ~doc:"when a claim check completed and the claimed bound is violated."
  :: Cmd.Exit.info 3
       ~doc:
         "when the compute budget was exhausted and some checks are \
          inconclusive (none failed); certified OPT intervals are printed."
  :: Cmd.Exit.info exit_io_error
       ~doc:"on a cache/journal/output I/O error that survived the retries."
  :: Cmd.Exit.defaults

(* I/O failures that survive Exec.Error's bounded retries surface here as
   a distinct exit code instead of a backtrace. *)
let with_io_guard f =
  try f () with
  | Exec.Error.Error k ->
      Format.eprintf "maxis_lb: %s@." (Exec.Error.to_string k);
      exit_io_error
  | Sys_error m ->
      Format.eprintf "maxis_lb: %s@." m;
      exit_io_error

(* Every parallel subcommand funnels through here so a bad --jobs is a
   usage error (cmdliner's 124), not an escaping Invalid_argument. *)
let with_pool_checked jobs f =
  if jobs < 1 then begin
    Format.eprintf "maxis_lb: --jobs must be >= 1 (got %d)@." jobs;
    exit 124
  end;
  Exec.Pool.with_pool ~jobs f

let make_cache ~no_cache =
  if no_cache then Exec.Cache.disabled () else Exec.Cache.create ()

(* ------------------------------------------------------------------ *)
(* Observability (docs/OBSERVABILITY.md)

   --metrics[=PATH] (or MAXIS_METRICS=PATH in the environment) exports
   the end-of-run Obs.Metrics snapshot as JSON lines, plus the span
   profile tree on stderr.  The export must never change results: all
   --metrics output goes to the file and stderr, stdout stays
   byte-identical — the parity test in test/test_cli.ml holds us to
   that. *)

let metrics_arg =
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "metrics" ] ~docv:"PATH"
        ~env:(Cmd.Env.info "MAXIS_METRICS")
        ~doc:
          "Export end-of-run metrics as JSON lines to $(docv) (default \
           results/metrics/<command>.jsonl when given without a value) \
           and print the span profile tree on stderr.  Never changes \
           stdout or results.")

let metrics_default_path cmd =
  Filename.concat (Filename.concat "results" "metrics") (cmd ^ ".jsonl")

let with_metrics ~cmd metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      let path = if path = "" then metrics_default_path cmd else path in
      Obs.Span.set_clock Unix.gettimeofday;
      Obs.Span.set_enabled true;
      let code = Obs.Span.with_span cmd f in
      with_io_guard (fun () ->
          Obs.Export.write_jsonl path (Obs.Metrics.snapshot ());
          Format.eprintf "metrics: wrote %s@." path;
          (match Obs.Span.roots () with
          | [] -> ()
          | roots -> Format.eprintf "profile:@.%a" Obs.Span.pp roots);
          code)

(* ------------------------------------------------------------------ *)
(* Budgets and journals *)

let budget_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget-nodes" ] ~docv:"N"
        ~doc:
          "Cap every exact solve at $(docv) branch-and-bound nodes \
           (deterministic).  An exhausted solve degrades to a certified \
           interval lb <= OPT <= ub; checks it cannot decide exit with \
           code 3 instead of failing.")

let budget_seconds_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-seconds" ] ~docv:"S"
        ~doc:
          "Wall-clock deadline for the whole audit's solves (best-effort, \
           checked between branch-and-bound nodes; unlike --budget-nodes \
           the set of completed checks is not deterministic).")

let make_budget ~nodes ~seconds =
  match (nodes, seconds) with
  | None, None -> Exec.Budget.unlimited
  | _ ->
      Exec.Budget.create ?max_nodes:nodes ?deadline_s:seconds
        ~clock:Unix.gettimeofday ()

let run_id_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "run-id" ] ~docv:"ID"
        ~doc:
          "Journal completed cells under results/journal/$(docv).journal \
           so a killed run can be resumed with $(b,--resume).  Without \
           $(b,--resume) an existing journal of the same id is restarted \
           from scratch.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Resume the journal named by $(b,--run-id): cells it records \
           are not re-solved (their values re-materialize from the \
           cache), and the output is byte-identical to an uninterrupted \
           run.")

let make_journal ~run_id ~resume =
  match run_id with
  | None ->
      if resume then begin
        Format.eprintf "maxis_lb: --resume requires --run-id@.";
        exit 124
      end;
      Exec.Journal.disabled ()
  | Some run_id -> Exec.Journal.open_ ~resume ~run_id ()

(* On SIGINT/SIGTERM: the journal is already durable per cell, so just
   tell the user where the run stands and how to pick it up. *)
let install_termination journal =
  if Exec.Journal.enabled journal then
    Exec.Journal.on_termination (fun _signal ->
        Format.eprintf "@.maxis_lb: interrupted; journal: %a@."
          Exec.Journal.pp_stats journal;
        Format.eprintf
          "maxis_lb: resume with the same --run-id plus --resume@.")

let finish_journal journal =
  if Exec.Journal.enabled journal then
    Format.eprintf "journal: %a@." Exec.Journal.pp_stats journal;
  Exec.Journal.close journal

let params alpha ell players = P.make ~alpha ~ell ~players

let gen_instance p ~quadratic ~seed ~intersecting =
  let rng = Stdx.Prng.create seed in
  if quadratic then
    let x =
      Commcx.Inputs.gen_promise rng ~k:(QF.string_length p) ~t:p.P.players
        ~intersecting
    in
    (QF.instance p x, x)
  else
    let x =
      Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players ~intersecting
    in
    (LF.instance p x, x)

(* ------------------------------------------------------------------ *)
(* build *)

let build_cmd =
  let run alpha ell players seed intersecting quadratic solve metrics =
    with_metrics ~cmd:"build" metrics @@ fun () ->
    let p = params alpha ell players in
    let inst, x = gen_instance p ~quadratic ~seed ~intersecting in
    let g = inst.Family.graph in
    Format.printf "parameters: %a@." P.pp p;
    Format.printf "input: %a@." Commcx.Inputs.pp x;
    Format.printf "instance: %a@." Wgraph.Graph.pp g;
    Format.printf "cut: %d@." (Family.cut_size inst);
    Format.printf "diameter: %d@." (Wgraph.Metrics.diameter g);
    if solve then begin
      let sol = Mis.Exact.solve g in
      Format.printf "OPT: %d (B&B nodes: %d)@." sol.Mis.Exact.weight
        sol.Mis.Exact.nodes_explored
    end;
    0
  in
  let solve_arg =
    Arg.(value & flag & info [ "solve" ] ~doc:"Also solve MaxIS exactly.")
  in
  Cmd.v
    (Cmd.info "build" ~doc:"Construct an instance and print its census.")
    Term.(
      const run $ alpha_arg $ ell_arg $ players_arg $ seed_arg
      $ intersecting_arg $ quadratic_arg $ solve_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* verify *)

let verify_cmd =
  let run alpha ell players seed samples jobs no_cache budget_nodes
      budget_seconds run_id resume metrics =
    with_metrics ~cmd:"verify" metrics @@ fun () ->
    with_io_guard @@ fun () ->
    let p = params alpha ell players in
    Format.printf "parameters: %a@." P.pp p;
    let cache = make_cache ~no_cache in
    let budget = make_budget ~nodes:budget_nodes ~seconds:budget_seconds in
    let journal = make_journal ~run_id ~resume in
    install_termination journal;
    let items =
      with_pool_checked jobs (fun pool ->
          Maxis_core.Verification.run ~seed ~samples ~pool ~cache ~budget
            ~journal p)
    in
    if Exec.Cache.enabled cache then
      Format.eprintf "cache: %a@." Exec.Cache.pp_stats (Exec.Cache.stats cache);
    finish_journal journal;
    List.iter
      (fun i -> Format.printf "%a@." Maxis_core.Verification.pp_item i)
      items;
    let count pred = List.length (List.filter pred items) in
    let code = Maxis_core.Verification.exit_code items in
    (match code with
    | 0 -> Format.printf "all %d checks passed@." (List.length items)
    | 2 -> Format.printf "%d FAILURES@." (count Maxis_core.Verification.failed)
    | _ ->
        Format.printf
          "%d checks inconclusive (budget exhausted), %d passed, none \
           failed@."
          (count Maxis_core.Verification.inconclusive)
          (count Maxis_core.Verification.passed));
    code
  in
  let samples_arg =
    Arg.(
      value & opt int 4
      & info [ "samples" ] ~docv:"N" ~doc:"Randomized-check repetitions.")
  in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:
         "Audit the code distance, Properties 1-3, Claims, Definition-4 \
          conditions and the Theorem-5 reduction at given parameters.  \
          Exits 0 when every check passes, 2 on a violated claim, 3 when \
          a compute budget left checks inconclusive, 4 on an I/O error.")
    Term.(
      const run $ alpha_arg $ ell_arg $ players_arg $ seed_arg $ samples_arg
      $ jobs_arg $ no_cache_arg $ budget_nodes_arg $ budget_seconds_arg
      $ run_id_arg $ resume_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* bounds *)

let bounds_cmd =
  let run alpha ell players epsilon jobs no_cache run_id resume metrics =
    with_metrics ~cmd:"bounds" metrics @@ fun () ->
    with_io_guard @@ fun () ->
    let p = params alpha ell players in
    let cache = make_cache ~no_cache in
    let journal = make_journal ~run_id ~resume in
    install_termination journal;
    (* Each report is one journaled cell: cheap here, but the same
       record-on-completion idiom the sweeps rely on — and it makes
       bounds runs resumable for free. *)
    let reports =
      with_pool_checked jobs (fun pool ->
          Exec.Pool.map_list pool
            (fun (solver, theorem) ->
              let key =
                Exec.Cache.key ~family:"bounds"
                  ~params:(Format.asprintf "%a" P.pp p)
                  ~seed:0 ~solver ()
              in
              Exec.Journal.memo journal cache key (fun () ->
                  Format.asprintf "%a" Maxis_core.Theorems.pp (theorem p)))
            [
              ("theorem1-linear", Maxis_core.Theorems.linear);
              ("theorem2-quadratic", Maxis_core.Theorems.quadratic);
            ])
    in
    finish_journal journal;
    List.iter (fun r -> Format.printf "%s@." r) reports;
    (match epsilon with
    | None -> ()
    | Some epsilon ->
        let s1 = Maxis_core.Theorems.theorem1_statement ~epsilon in
        Format.printf
          "@.Theorem 1 @ eps=%.3f: t=%d players, any %.4f-approximation \
           needs >= n/(t log t log^3 n) rounds (%.3f at n=2^20)@."
          epsilon s1.Maxis_core.Theorems.players_used
          s1.Maxis_core.Theorems.defeated_ratio
          (s1.Maxis_core.Theorems.rounds_at ~n:1048576.0);
        if epsilon < 0.25 then begin
          let s2 = Maxis_core.Theorems.theorem2_statement ~epsilon in
          Format.printf
            "Theorem 2 @ eps=%.3f: t=%d players, any %.4f-approximation \
             needs >= n^2/(t log t log^3 n) rounds (%.1f at n=2^20)@."
            epsilon s2.Maxis_core.Theorems.players_used
            s2.Maxis_core.Theorems.defeated_ratio
            (s2.Maxis_core.Theorems.rounds_at ~n:1048576.0)
        end);
    Format.printf "@.prior work at the linear instance's n:@.";
    let n = float_of_int (LF.n_nodes p) in
    List.iter
      (fun (e : Maxis_core.Bachrach_baseline.entry) ->
        Format.printf "  %-40s ratio %.3f, rounds >= %.3f@."
          e.Maxis_core.Bachrach_baseline.source
          e.Maxis_core.Bachrach_baseline.ratio
          (e.Maxis_core.Bachrach_baseline.rounds ~n))
      Maxis_core.Bachrach_baseline.all;
    0
  in
  let epsilon_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "epsilon" ] ~docv:"EPS"
          ~doc:"Also print the epsilon-level theorem statements.")
  in
  Cmd.v
    (Cmd.info "bounds" ~exits ~doc:"Print the Theorem 1/2 round bounds.")
    Term.(
      const run $ alpha_arg $ ell_arg $ players_arg $ epsilon_arg $ jobs_arg
      $ no_cache_arg $ run_id_arg $ resume_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* figure *)

let figure_cmd =
  let run which out =
    let p2 = P.figure_params ~players:2 in
    let p3 = P.figure_params ~players:3 in
    let dot =
      match which with
      | 1 ->
          (* Figure 1: one copy of H. *)
          Wgraph.Dot.to_dot ~name:"Figure1_H" (Maxis_core.Base_graph.graph p2)
      | 3 ->
          (* Figure 3: the t=3 construction with the Property-1 set
             highlighted. *)
          let g, part = LF.fixed p3 in
          Wgraph.Dot.to_dot ~name:"Figure3_G_t3" ~partition:part
            ~highlight:(LF.property1_set p3 ~m:0) g
      | 5 ->
          (* Figure 5: the quadratic F for t=2. *)
          let g, part = QF.fixed p2 in
          Wgraph.Dot.to_dot ~name:"Figure5_F_t2" ~partition:part g
      | n ->
          Printf.ksprintf failwith
            "unknown figure %d (supported: 1, 3, 5; figures 2/4/6 are \
             sub-diagrams of these)"
            n
    in
    (match out with
    | None -> print_string dot
    | Some path ->
        Wgraph.Dot.write_file path dot;
        Format.printf "wrote %s@." path);
    0
  in
  let which_arg =
    Arg.(value & pos 0 int 1 & info [] ~docv:"N" ~doc:"Figure number (1, 3 or 5).")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path.")
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Emit a paper figure's gadget as Graphviz DOT.")
    Term.(const run $ which_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* simulate *)

let simulate_cmd =
  let run alpha ell players seed intersecting drop corrupt fault_seed jobs
      metrics =
    with_metrics ~cmd:"simulate" metrics @@ fun () ->
    if not (Stdx.Inject.is_prob drop && Stdx.Inject.is_prob corrupt) then begin
      Format.eprintf
        "simulate: --drop and --corrupt must be probabilities in [0,1]@.";
      exit 2
    end;
    let p = params alpha ell players in
    let inst, x = gen_instance p ~quadratic:false ~seed ~intersecting in
    let config =
      if drop = 0.0 && corrupt = 0.0 then Congest.Runtime.default_config
      else begin
        let plan =
          Congest.Faults.plan
            ~default:(Congest.Faults.link ~drop ~corrupt ())
            fault_seed
        in
        Format.printf "faults: %a@." Congest.Faults.pp_plan plan;
        { Congest.Runtime.default_config with Congest.Runtime.faults = Some plan }
      end
    in
    let decide ?pool () =
      Maxis_core.Simulation.decide_disjointness_checked ~config ?pool inst
        ~predicate:(LF.predicate p)
    in
    (* The checked entry point: a misbehaving or fault-starved run degrades
       to a structured report instead of an escaping exception.  The
       report is the same at every --jobs. *)
    match
      if jobs = 1 then decide ()
      else with_pool_checked jobs (fun pool -> decide ~pool ())
    with
    | Error e ->
        Format.printf "simulation FAILED: %a@." Maxis_core.Simulation.pp_error e;
        1
    | Ok d ->
        let r = d.Maxis_core.Simulation.report in
        Format.printf "algorithm: %s@." r.Maxis_core.Simulation.algorithm;
        Format.printf "rounds: %d, cut: %d, bandwidth: %d bits/edge/round@."
          r.Maxis_core.Simulation.rounds r.Maxis_core.Simulation.cut_size
          r.Maxis_core.Simulation.bandwidth;
        Format.printf "blackboard: %d bits in %d writes (bound %d, within: %b)@."
          r.Maxis_core.Simulation.blackboard_bits
          r.Maxis_core.Simulation.blackboard_writes
          r.Maxis_core.Simulation.bound_bits r.Maxis_core.Simulation.within_bound;
        if r.Maxis_core.Simulation.faults_injected > 0 then
          Format.printf
            "faults: %d injected events; cut bits dropped %d, delivered %d@."
            r.Maxis_core.Simulation.faults_injected
            r.Maxis_core.Simulation.blackboard_bits_dropped
            r.Maxis_core.Simulation.blackboard_bits_delivered;
        Format.printf "OPT = %d, answer f(x) = %s, truth = %b@."
          d.Maxis_core.Simulation.opt
          (match d.Maxis_core.Simulation.answer with
          | Some b -> string_of_bool b
          | None -> "?")
          (Commcx.Functions.promise_pairwise_disjointness x);
        0
  in
  let drop_arg =
    Arg.(
      value & opt float 0.0
      & info [ "drop" ] ~docv:"P"
          ~doc:"Per-message drop probability on every link (fault injection).")
  in
  let corrupt_arg =
    Arg.(
      value & opt float 0.0
      & info [ "corrupt" ] ~docv:"P"
          ~doc:"Per-message bit-corruption probability on every link.")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Fault-plan PRNG seed.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the Theorem-5 simulation on an instance.")
    Term.(
      const run $ alpha_arg $ ell_arg $ players_arg $ seed_arg
      $ intersecting_arg $ drop_arg $ corrupt_arg $ fault_seed_arg $ jobs_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* export *)

let export_cmd =
  let run alpha ell players seed intersecting quadratic format out =
    let p = params alpha ell players in
    let inst, x = gen_instance p ~quadratic ~seed ~intersecting in
    let g = inst.Family.graph in
    let comment =
      Format.asprintf
        "hard MaxIS instance from 'Beyond Alice and Bob' (PODC 2020)@\n\
         family: %s, %a@\nseed=%d intersecting=%b f(x)=%b"
        (if quadratic then "quadratic (Section 5)" else "linear (Section 4)")
        P.pp p seed intersecting
        (Commcx.Functions.promise_pairwise_disjointness x)
    in
    let contents =
      match format with
      | "dimacs" ->
          Wgraph.Dimacs.to_string ~comment ~partition:inst.Family.partition g
      | "dot" -> Wgraph.Dot.to_dot ~name:"instance" ~partition:inst.Family.partition g
      | other ->
          Printf.ksprintf failwith "unknown format %s (dimacs | dot)" other
    in
    (match out with
    | None -> print_string contents
    | Some path ->
        Wgraph.Dot.write_file path contents;
        Format.printf "wrote %s (%d nodes, %d edges)@." path (Wgraph.Graph.n g)
          (Wgraph.Graph.edge_count g));
    0
  in
  let format_arg =
    Arg.(
      value & opt string "dimacs"
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: dimacs or dot.")
  in
  let out_arg =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output path (default stdout).")
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Export a hard instance (DIMACS for off-the-shelf MaxIS solvers, \
          or DOT), partition included.")
    Term.(
      const run $ alpha_arg $ ell_arg $ players_arg $ seed_arg
      $ intersecting_arg $ quadratic_arg $ format_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* sweep *)

let sweep_cmd =
  let run max_t jobs no_cache run_id resume metrics =
    with_metrics ~cmd:"sweep" metrics @@ fun () ->
    with_io_guard @@ fun () ->
    let cache = make_cache ~no_cache in
    let journal = make_journal ~run_id ~resume in
    install_termination journal;
    Format.printf "t, ell, formal lo/hi ratio, defeated approximation@.";
    let ts = Array.init (Stdlib.max 0 (max_t - 1)) (fun i -> i + 2) in
    let rows =
      with_pool_checked jobs (fun pool ->
          Exec.Pool.map pool
            (fun t ->
              let key =
                Exec.Cache.key ~family:"sweep-formula"
                  ~params:(Printf.sprintf "t=%d" t)
                  ~seed:0 ~solver:"gap-ratio" ()
              in
              Exec.Journal.memo journal cache key (fun () ->
                  let p = P.make ~alpha:1 ~ell:(4 * t * t) ~players:t in
                  Printf.sprintf "%d, %d, %.4f, (1/2 + %.4f)" t (4 * t * t)
                    (float_of_int (LF.low_weight p)
                    /. float_of_int (LF.high_weight p))
                    (1.0 /. float_of_int t)))
            ts)
    in
    finish_journal journal;
    Array.iter print_endline rows;
    0
  in
  let max_t_arg =
    Arg.(value & opt int 16 & info [ "max-t" ] ~docv:"T" ~doc:"Largest t.")
  in
  Cmd.v
    (Cmd.info "sweep" ~exits ~doc:"Sweep t and print the closing gap ratio.")
    Term.(
      const run $ max_t_arg $ jobs_arg $ no_cache_arg $ run_id_arg
      $ resume_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* solve — the offline twin of the serve daemon's "solve" op.  Both
   funnel through Serve.Ops.solve, which is what makes the byte-parity
   contract (docs/SERVING.md) checkable: same instance, same budget,
   same payload bytes, socket or not. *)

let solve_cmd =
  let run alpha ell players seed intersecting quadratic no_cache budget_nodes
      metrics =
    with_metrics ~cmd:"solve" metrics @@ fun () ->
    with_io_guard @@ fun () ->
    let cache = make_cache ~no_cache in
    let budget = make_budget ~nodes:budget_nodes ~seconds:None in
    let outcome =
      Serve.Ops.solve ~cache ~budget
        {
          Serve.Proto.alpha;
          ell;
          players;
          seed;
          intersecting;
          quadratic;
          budget_nodes;
        }
    in
    print_endline outcome.Serve.Ops.payload;
    if outcome.Serve.Ops.exhausted then 3 else 0
  in
  Cmd.v
    (Cmd.info "solve" ~exits
       ~doc:
         "Solve one gadget instance exactly (optionally budgeted) and \
          print the payload line the serve daemon would return for the \
          same request: $(b,OPT <w>), or $(b,EXHAUSTED lb=.. ub=..) with \
          exit code 3 when the budget ran out.")
    Term.(
      const run $ alpha_arg $ ell_arg $ players_arg $ seed_arg
      $ intersecting_arg $ quadratic_arg $ no_cache_arg $ budget_nodes_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* serve *)

let addr_conv =
  let parse s =
    match Serve.Proto.addr_of_string s with
    | Ok a -> Ok a
    | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, Serve.Proto.pp_addr)

let serve_cmd =
  let run listen metrics_addr jobs no_cache max_inflight default_nodes
      max_nodes max_line_bytes batch_max allow_chaos max_conns idle_timeout
      read_deadline write_deadline drain_deadline =
    with_io_guard @@ fun () ->
    if jobs < 1 then begin
      Format.eprintf "maxis_lb: --jobs must be >= 1 (got %d)@." jobs;
      exit 124
    end;
    if max_conns < 1 then begin
      Format.eprintf "maxis_lb: --max-conns must be >= 1 (got %d)@." max_conns;
      exit 124
    end;
    (* Unix sockets need their parent directory; make it like the cache
       does its own. *)
    let prep = function
      | Serve.Proto.Unix_sock path ->
          let dir = Filename.dirname path in
          if dir <> "." && dir <> "/" then Exec.Cache.mkdir_p dir
      | Serve.Proto.Tcp _ -> ()
    in
    prep listen;
    Option.iter prep metrics_addr;
    let cache = make_cache ~no_cache in
    let cfg =
      {
        (Serve.Daemon.default_config ~cache ~listen ()) with
        Serve.Daemon.metrics = metrics_addr;
        jobs;
        max_inflight;
        default_budget_nodes = default_nodes;
        max_budget_nodes = max_nodes;
        max_line_bytes;
        batch_max;
        allow_chaos;
        max_conns;
        idle_timeout_s = idle_timeout;
        read_deadline_s = read_deadline;
        write_deadline_s = write_deadline;
        drain_deadline_s = drain_deadline;
      }
    in
    let d = Serve.Daemon.create cfg in
    let stop_on _signal = Serve.Daemon.stop d in
    Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on);
    Format.eprintf "serve: listening on %a (jobs=%d, window=%d)@."
      Serve.Proto.pp_addr listen jobs max_inflight;
    (match metrics_addr with
    | Some a -> Format.eprintf "serve: metrics on %a@." Serve.Proto.pp_addr a
    | None -> ());
    Serve.Daemon.run d;
    if Exec.Cache.enabled cache then
      Format.eprintf "cache: %a@." Exec.Cache.pp_stats (Exec.Cache.stats cache);
    Format.eprintf "serve: drained after %d replies@."
      (Serve.Daemon.requests_served d);
    0
  in
  let listen_arg =
    Arg.(
      value
      & opt addr_conv (Serve.Proto.Unix_sock "results/serve.sock")
      & info [ "listen" ] ~docv:"ADDR"
          ~doc:
            "Wire address: $(b,unix:PATH) or $(b,tcp:HOST:PORT) (default \
             unix:results/serve.sock).")
  in
  let metrics_listen_arg =
    Arg.(
      value
      & opt (some addr_conv) None
      & info [ "metrics-listen" ] ~docv:"ADDR"
          ~doc:
            "Also serve the Prometheus rendering of the live metrics \
             registry to anything that connects here.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Admission window: compute requests admitted but unanswered, \
             across all connections; beyond it requests get structured \
             $(b,rejected) replies.")
  in
  let default_nodes_arg =
    Arg.(
      value & opt int 1_000_000
      & info [ "default-budget-nodes" ] ~docv:"N"
          ~doc:"Node cap attached to requests that do not name one.")
  in
  let max_nodes_arg =
    Arg.(
      value & opt int 4_000_000
      & info [ "max-budget-nodes" ] ~docv:"N"
          ~doc:"Ceiling a request may ask for; above it: rejected.")
  in
  let max_line_bytes_arg =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line-bytes" ] ~docv:"N"
          ~doc:
            "Longer request lines are answered with an error and skipped; \
             the connection survives.")
  in
  let batch_max_arg =
    Arg.(
      value & opt int 64
      & info [ "batch-max" ] ~docv:"N"
          ~doc:"Most requests one pool batch may carry.")
  in
  let allow_chaos_arg =
    Arg.(
      value & flag
      & info [ "allow-chaos" ]
          ~doc:
            "Honor $(b,chaos-kill) requests (kill a pool worker \
             mid-batch).  For the chaos suite only.")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 1024
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Connection cap; accepts beyond it are shed with a structured \
             error reply and counted as $(b,capacity) evictions.")
  in
  let idle_timeout_arg =
    Arg.(
      value & opt float 300.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Evict a connection with no traffic and nothing owed either \
             way for this long.")
  in
  let read_deadline_arg =
    Arg.(
      value & opt float 30.0
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Evict a connection holding a partial request line that makes \
             no progress for this long (the slow-loris bound).")
  in
  let write_deadline_arg =
    Arg.(
      value & opt float 5.0
      & info [ "write-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Evict a connection whose pending replies make no progress for \
             this long; also bounds metrics-scrape responses.")
  in
  let drain_deadline_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-deadline" ] ~docv:"SECONDS"
          ~doc:
            "Grace period for flushing replies during shutdown drain; \
             peers still holding bytes at the deadline are dropped.")
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:
         "Run the solve daemon: newline-delimited JSON requests \
          ($(b,solve), $(b,bounds), $(b,claim-verify), $(b,ping), \
          $(b,stats)) over a Unix or TCP socket, each admitted under a \
          node budget, batched across a worker pool, answered from the \
          result cache when warm.  SIGINT/SIGTERM drain gracefully: \
          every in-flight request gets its terminal reply, then the \
          process exits 0.")
    Term.(
      const run $ listen_arg $ metrics_listen_arg $ jobs_arg $ no_cache_arg
      $ max_inflight_arg $ default_nodes_arg $ max_nodes_arg
      $ max_line_bytes_arg $ batch_max_arg $ allow_chaos_arg $ max_conns_arg
      $ idle_timeout_arg $ read_deadline_arg $ write_deadline_arg
      $ drain_deadline_arg)

(* ------------------------------------------------------------------ *)
(* fsck *)

let fsck_cmd =
  let run cache_dir journal_dir quiet metrics =
    with_metrics ~cmd:"fsck" metrics @@ fun () ->
    with_io_guard @@ fun () ->
    let on_quarantine ~kind ~path =
      if not quiet then Format.eprintf "fsck: quarantined [%s] %s@." kind path
    in
    let report = Exec.Fsck.run ~cache_dir ~journal_dir ~on_quarantine () in
    Format.printf "%a@." Exec.Fsck.pp_report report;
    if Exec.Fsck.clean report then 0 else 2
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string Exec.Cache.default_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc:"Result-cache tree to scan.")
  in
  let journal_dir_arg =
    Arg.(
      value
      & opt string Exec.Journal.default_dir
      & info [ "journal-dir" ] ~docv:"DIR" ~doc:"Journal directory to scan.")
  in
  let quiet_arg =
    Arg.(
      value & flag
      & info [ "quiet" ] ~doc:"Do not list quarantined items on stderr.")
  in
  Cmd.v
    (Cmd.info "fsck" ~exits
       ~doc:
         "Scan the on-disk cache and journal trees, quarantine invalid \
          entries (moved, never deleted: cache entries into \
          $(i,cache-dir)/quarantine/, corrupt journal tails into \
          $(i,journal-dir)/quarantine/), remove stray temp files, and \
          report counts.  Exits 0 when everything was valid, 2 when \
          damage was found (and repaired: a rerun exits 0).")
    Term.(
      const run $ cache_dir_arg $ journal_dir_arg $ quiet_arg $ metrics_arg)

let () =
  (* Retry backoff should yield the CPU, not spin: the library default
     exists only because lib/exec carries no unix dependency. *)
  Exec.Error.set_default_sleep Unix.sleepf;
  let doc = "lower-bound constructions for approximate MaxIS in CONGEST" in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "maxis_lb" ~doc)
          [
            build_cmd;
            verify_cmd;
            bounds_cmd;
            figure_cmd;
            simulate_cmd;
            export_cmd;
            sweep_cmd;
            solve_cmd;
            serve_cmd;
            fsck_cmd;
          ]))
