(* Shared helpers for the experiment harness. *)

module P = Maxis_core.Params
module T = Stdx.Tablefmt

let section id title =
  Printf.printf "\n================================================================\n";
  Printf.printf "[%s] %s\n" id title;
  Printf.printf "================================================================\n"

let note fmt = Printf.printf ("  " ^^ fmt ^^ "\n")

(* Every experiment draws from its own deterministically seeded stream so
   re-runs and reorderings reproduce bit-identical tables. *)
let rng_for id = Stdx.Prng.create (Hashtbl.hash id)

(* Remove a directory tree, best effort.  The CHAOS, SERVE and NETCHAOS
   legs start from an empty root each run: their claims are about one
   seeded episode, not an accumulation of previous ones. *)
let rm_rf root =
  let fs = Stdx.Fsio.real in
  let rec go path =
    if fs.Stdx.Fsio.file_exists path then
      if fs.Stdx.Fsio.is_directory path then begin
        Array.iter
          (fun f -> go (Filename.concat path f))
          (fs.Stdx.Fsio.readdir path);
        try fs.Stdx.Fsio.rmdir path with Sys_error _ -> ()
      end
      else try fs.Stdx.Fsio.remove path with Sys_error _ -> ()
  in
  go root

(* ------------------------------------------------------------------ *)
(* Execution context.

   All experiments share one worker pool (width from MAXIS_JOBS, default
   1) and one result cache under results/cache (disable with
   MAXIS_NO_CACHE=1, relocate with MAXIS_CACHE_DIR).  The determinism
   contract of Exec.Pool means stdout and every results/*.csv stay
   byte-identical for any jobs/cache setting; the only run-dependent
   output is the counter line below, which therefore goes to stderr. *)

let pool = lazy (Exec.Pool.create ~jobs:(Exec.Pool.default_jobs ()) ())

(* Exact solves actually computed this run (cache misses).  Atomic: the
   computes run on pool domains. *)
let solves = Atomic.make 0

let cache =
  lazy
    (let c =
       match Sys.getenv_opt "MAXIS_NO_CACHE" with
       | Some "1" -> Exec.Cache.disabled ()
       | Some _ | None ->
           let dir =
             Option.value
               (Sys.getenv_opt "MAXIS_CACHE_DIR")
               ~default:Exec.Cache.default_dir
           in
           Exec.Cache.create ~dir ()
     in
     at_exit (fun () ->
         Format.eprintf "[exec] jobs=%d solves=%d cache: %a@."
           (Exec.Pool.default_jobs ())
           (Atomic.get solves)
           Exec.Cache.pp_stats (Exec.Cache.stats c));
     c)

(* Crash-safe sweep journal, opted into with MAXIS_RUN_ID=<id> (resume an
   interrupted run of the same id with MAXIS_RESUME=1); see
   docs/RESILIENCE.md.  The stats line goes to stderr like the cache
   counters: it is the only run-dependent output. *)
let journal =
  lazy
    (match Sys.getenv_opt "MAXIS_RUN_ID" with
    | None | Some "" -> Exec.Journal.disabled ()
    | Some run_id ->
        let resume = Sys.getenv_opt "MAXIS_RESUME" = Some "1" in
        let dir =
          Option.value
            (Sys.getenv_opt "MAXIS_JOURNAL_DIR")
            ~default:Exec.Journal.default_dir
        in
        let j = Exec.Journal.open_ ~dir ~resume ~run_id () in
        at_exit (fun () ->
            Format.eprintf "[journal] %a@." Exec.Journal.pp_stats j;
            Exec.Journal.close j);
        j)

(* ------------------------------------------------------------------ *)
(* Graceful interruption.

   SIGINT/SIGTERM flush whatever tables are complete so far (experiments
   register theirs with [on_interrupt]) and print how to resume, then
   exit through [at_exit] — pool shutdown and the counter lines
   included.  A SIGKILL skips all of this and loses nothing but the
   in-flight cells: the journal is durable per completed cell. *)

let interrupt_hooks : (unit -> unit) list ref = ref []

let on_interrupt f = interrupt_hooks := f :: !interrupt_hooks

let () =
  Exec.Journal.on_termination (fun signal ->
      Format.eprintf "@.[bench] %s: flushing partial tables@."
        (if signal = Sys.sigterm then "SIGTERM" else "SIGINT");
      List.iter (fun f -> try f () with _ -> ()) (List.rev !interrupt_hooks);
      if Lazy.is_val journal then begin
        let j = Lazy.force journal in
        if Exec.Journal.enabled j then
          Format.eprintf
            "[journal] %a@.[journal] resume with MAXIS_RUN_ID unchanged and \
             MAXIS_RESUME=1@."
            Exec.Journal.pp_stats j
      end)

(* Opt-in metrics export for any bench invocation: MAXIS_METRICS=<path>
   (or =1 for the default results/metrics/bench.jsonl) writes the full
   Obs.Metrics snapshot at exit.  Only a stderr note is added — stdout
   and every results/*.csv table stay byte-identical with the export on
   or off, like the cache/journal counter lines above. *)
let () =
  match Sys.getenv_opt "MAXIS_METRICS" with
  | None | Some "" -> ()
  | Some p ->
      let path =
        if p = "1" then
          Filename.concat (Filename.concat "results" "metrics") "bench.jsonl"
        else p
      in
      at_exit (fun () ->
          try
            Obs.Export.write_jsonl path (Obs.Metrics.snapshot ());
            Format.eprintf "[obs] metrics: wrote %s@." path
          with Sys_error m ->
            Format.eprintf "[obs] metrics export failed: %s@." m)

let linear_input rng p ~intersecting =
  Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t:p.P.players ~intersecting

let quadratic_input rng p ~intersecting =
  Commcx.Inputs.gen_promise rng
    ~k:(Maxis_core.Quadratic_family.string_length p)
    ~t:p.P.players ~intersecting

let opt_linear p x =
  Mis.Exact.opt (Maxis_core.Linear_family.instance p x).Maxis_core.Family.graph

let opt_quadratic p x =
  Mis.Exact.opt
    (Maxis_core.Quadratic_family.instance p x).Maxis_core.Family.graph

(* ------------------------------------------------------------------ *)
(* Cached solving *)

let encode_opt (opt, ok) = Printf.sprintf "%d %b" opt ok

let decode_opt s =
  try Scanf.sscanf s " %d %B" (fun opt ok -> Some (opt, ok)) with _ -> None

(* [solve] must be pure in [x]; its (opt, claim-holds) result is cached
   under a digest of the input, so warm re-runs skip the exact solve (and
   the claim re-check) entirely.  With a journal each solved cell is also
   recorded as complete the moment its value is safely in the cache, so a
   killed sweep resumes without re-solving. *)
let solve_cached ~family ~params ~solver solve x =
  let key =
    Exec.Cache.key ~family ~params ~seed:0 ~solver
      ~extra:(Exec.Cache.fingerprint (Commcx.Inputs.canonical x))
      ()
  in
  Exec.Journal.memo_value (Lazy.force journal) (Lazy.force cache) key
    ~encode:encode_opt ~decode:decode_opt (fun () ->
      Atomic.incr solves;
      solve x)

(* Mean measured OPT over [trials] random promise inputs, solves fanned
   out over the shared pool.  Inputs are drawn sequentially from [rng]
   (same stream as a sequential run) and results are reassembled in draw
   order, so the mean — and the returned all-claims-hold flag — are
   independent of jobs and cache state.  [solve x] returns the measured
   OPT and whether the claim bound held on [x]. *)
let mean_opt ~family ~params ~solver ~trials rng gen solve =
  let inputs = Array.init trials (fun _ -> gen ()) in
  let results =
    Exec.Pool.map (Lazy.force pool)
      (solve_cached ~family ~params ~solver solve)
      inputs
  in
  let mean = Stdx.Stats.mean (Array.map (fun (o, _) -> float_of_int o) results) in
  (mean, Array.for_all (fun (_, ok) -> ok) results)
