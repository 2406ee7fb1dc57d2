(* Experiment CHAOS: supervised execution under combined fault pressure.

   One mini-sweep of exact MaxIS cells is executed several ways — clean
   reference, then under simultaneous worker kills + filesystem fault
   injection, then under budget pressure, then once more against the
   fsck-repaired cache — and a hardened CONGEST run rides along under an
   adversarial link plan.  The invariant on every leg: the run
   {e terminates} (no hang) with either byte-identical output or a
   certified [lb <= OPT <= ub] degradation.

   stdout carries only verdicts that are deterministic by construction
   (pure cell functions; caches and journals are transparent
   accelerators; node budgets are scheduling-independent).  Everything
   run-dependent — injected fault counts, retries, worker restarts,
   first-pass fsck counts — goes to stderr, like the cache counter lines
   of the other legs. *)

module T = Stdx.Tablefmt
module Faults = Congest.Faults
module Runtime = Congest.Runtime
open Exp_common

let chaos_root = Filename.concat "results" "chaos"

let chaos_cache_dir = Filename.concat chaos_root "cache"

let chaos_journal_dir = Filename.concat chaos_root "journal"

let verdicts_csv = Filename.concat "results" "chaos_verdicts.csv"

(* ------------------------------------------------------------------ *)
(* The sweep cells: exact OPT of seeded Erdős–Rényi instances.  Pure in
   the cell index, so every execution path must reproduce the same row
   bytes. *)

let cells = 8

let cell_graph i =
  let rng = Stdx.Prng.create (1000 + i) in
  Wgraph.Build.erdos_renyi rng (12 + i) 0.3

let cell_key i =
  Exec.Cache.key ~family:"chaos-sweep"
    ~params:(Printf.sprintf "cell=%d" i)
    ~seed:(1000 + i) ~solver:"exact-mis" ()

let cell_row i =
  let g = cell_graph i in
  Printf.sprintf "cell %d: n=%d OPT=%d" i (Wgraph.Graph.n g) (Mis.Exact.opt g)

(* One sweep execution: memoized through [cache] when given (faulty or
   repaired), completion recorded in [journal] when given, and — under
   chaos — the first execution of mask-selected slots kills its worker
   domain.  Journal-append failures that survive the retries are
   counted, never fatal: completion tracking is an accelerator, not a
   correctness dependency. *)
let run_sweep pool ?cache ?journal ?kills () =
  let attempts = Array.init cells (fun _ -> Atomic.make 0) in
  let journal_failures = Atomic.make 0 in
  let rows =
    Exec.Pool.map pool
      (fun i ->
        let attempt = Atomic.fetch_and_add attempts.(i) 1 in
        (match kills with
        | Some mask when mask.(i) && attempt = 0 -> raise Exec.Pool.Chaos_kill
        | _ -> ());
        let row =
          match cache with
          | None -> cell_row i
          | Some c -> Exec.Cache.memo c (cell_key i) (fun () -> cell_row i)
        in
        (match journal with
        | Some j -> (
            try Exec.Journal.record j (cell_key i)
            with Exec.Error.Error _ -> Atomic.incr journal_failures)
        | None -> ());
        row)
      (Array.init cells Fun.id)
  in
  (rows, Atomic.get journal_failures)

(* ------------------------------------------------------------------ *)

let run () =
  section "CHAOS"
    "supervised execution: worker kills + FS faults + budget pressure";
  rm_rf chaos_root;
  let table =
    T.create [ T.column ~align:T.Left "check"; T.column ~align:T.Left "result" ]
  in
  let verdict name value = T.add_row table [ name; value ] in

  (* Reference: sequential, no cache, no faults. *)
  let reference = Array.init cells cell_row in

  Exec.Pool.with_pool ~jobs:4 (fun pool ->
      (* Chaos leg: the supervised pool under worker kills, reading and
         writing cache + journal through a seeded fault-injecting
         filesystem. *)
      let plan =
        Exec.Fsio.plan
          ~default:
            (Exec.Fsio.op_fault ~eintr:0.05 ~enospc:0.04 ~torn:0.04 ~flip:0.03
               ~fail_rename:0.04 ())
          77
      in
      let injector = Exec.Fsio.injector plan in
      let fs = Exec.Fsio.chaos injector in
      let kill_rng = rng_for "chaos-kills" in
      let kills = Array.init cells (fun _ -> Stdx.Prng.bool kill_rng) in
      let cache = Exec.Cache.create ~fs ~dir:chaos_cache_dir () in
      let journal =
        try
          Some (Exec.Journal.open_ ~fs ~dir:chaos_journal_dir ~run_id:"chaos" ())
        with Exec.Error.Error _ -> None
      in
      let rows_chaos, jfail = run_sweep pool ~cache ?journal ~kills () in
      Option.iter Exec.Journal.close journal;
      verdict "sweep rows identical under chaos"
        (T.cell_bool (rows_chaos = reference));

      (* Poison leg: a slot that kills every executor must terminate the
         batch as a quarantined Worker_death, never hang or eat the
         pool. *)
      let poisoned =
        match
          Exec.Pool.map pool
            (fun i -> if i = 1 then raise Exec.Pool.Chaos_kill else i)
            [| 0; 1; 2 |]
        with
        | _ -> false
        | exception Exec.Error.Error (Exec.Error.Worker_death _) -> true
      in
      verdict "poison task quarantined as Worker_death" (T.cell_bool poisoned);

      (* Budget leg: node-capped solves on the (healed) pool.  Node
         budgets are deterministic, so both the containment verdict and
         the exhausted count are stable bytes. *)
      let outcomes =
        Exec.Pool.map pool
          (fun i ->
            let g = cell_graph i in
            let budget = Exec.Budget.create ~max_nodes:40 () in
            let o = Mis.Exact.solve_budgeted ~budget g in
            (Mis.Exact.interval o,
             (match o with Mis.Exact.Complete _ -> false | _ -> true),
             Mis.Exact.opt g))
          (Array.init cells Fun.id)
      in
      let contained =
        Array.for_all (fun ((lb, ub), _, opt) -> lb <= opt && opt <= ub) outcomes
      in
      let exhausted =
        Array.fold_left (fun n (_, ex, _) -> if ex then n + 1 else n) 0 outcomes
      in
      verdict "certified intervals contain OPT" (T.cell_bool contained);
      verdict "budget-exhausted cells (deterministic)"
        (Printf.sprintf "%d/%d" exhausted cells);

      (* Network-fault leg: hardened delivery under an adversarial link
         plan must reproduce the fault-free referee's outputs. *)
      let net_rng = rng_for "chaos-net" in
      let g = Wgraph.Build.erdos_renyi net_rng 16 0.35 in
      let cfg faults =
        {
          Runtime.default_config with
          Runtime.bandwidth_factor = 64;
          max_rounds = 600;
          faults;
        }
      in
      let program = Congest.Algo_luby.mis in
      let base = Runtime.run ~config:(cfg None) program g in
      let net_plan =
        Faults.plan
          ~default:
            (Faults.link ~drop:0.15 ~duplicate:0.1 ~corrupt:0.1 ~max_delay:2 ())
          13
      in
      let hardened_ok =
        match
          Runtime.run_checked
            ~config:(cfg (Some net_plan))
            (Faults.harden program) g
        with
        | Ok r -> r.Runtime.outputs = base.Runtime.outputs
        | Error _ -> false
      in
      verdict "hardened outputs = fault-free referee" (T.cell_bool hardened_ok);

      (* fsck: quarantine whatever the injected faults corrupted, then
         prove the repair converged (second pass clean) and that the
         surviving entries still serve the sweep byte-identically. *)
      let report1 =
        Exec.Fsck.run ~cache_dir:chaos_cache_dir ~journal_dir:chaos_journal_dir
          ()
      in
      let report2 =
        Exec.Fsck.run ~cache_dir:chaos_cache_dir ~journal_dir:chaos_journal_dir
          ()
      in
      verdict "fsck rerun clean after repair"
        (T.cell_bool (Exec.Fsck.clean report2));
      let repaired = Exec.Cache.create ~dir:chaos_cache_dir () in
      let rows_repaired, _ = run_sweep pool ~cache:repaired () in
      verdict "repaired-cache rerun rows identical"
        (T.cell_bool (rows_repaired = reference));

      (* Run-dependent counters: stderr only, like the cache lines. *)
      Format.eprintf "[chaos] fs faults injected: %d (%s)@."
        (Exec.Fsio.total_injected injector)
        (String.concat ", "
           (List.map
              (fun (k, n) -> Printf.sprintf "%s=%d" k n)
              (Exec.Fsio.faults_injected injector)));
      Format.eprintf
        "[chaos] worker restarts: %d; journal append failures: %d@."
        (Exec.Pool.restarts pool) jfail;
      Format.eprintf "[chaos] fsck first pass: %a@." Exec.Fsck.pp_report report1);
  T.print ~csv:verdicts_csv table;
  note "all verdicts above are deterministic; fault counts are on stderr.";
  note "wrote %s." verdicts_csv
