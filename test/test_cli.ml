(* End-to-end tests of the maxis_lb CLI's documented exit-code contract:
     0   every check passed
     2   a claimed bound was checked and is violated
     3   no failures, but the budget exhausted before some check decided
     4   an I/O failure (cache, journal, CSV) escaped retries
     124 usage error (cmdliner's convention)
   plus unit tests of the [Verification.exit_code] precedence those codes
   come from.

   The exe is a declared dune dep, reached relative to the test cwd
   (_build/default/test). *)

let exe = Filename.concat ".." (Filename.concat "bin" "maxis_lb.exe")

let run args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" (Filename.quote exe) args)

let check_int = Alcotest.(check int)

(* Small parameters so each invocation solves in well under a second. *)
let base = "verify --players 2 --ell 3 --samples 1 --no-cache"

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end
  else if Sys.file_exists dir then Sys.remove dir

let test_exit_ok () = check_int "all checks pass" 0 (run base)

let test_exit_inconclusive () =
  (* One branch-and-bound node cannot decide the claim checks, but a
     certified interval can never show a *violation* either — so the only
     possible outcomes are Pass and Inconclusive, deterministically. *)
  check_int "budget exhausted" 3 (run (base ^ " --budget-nodes 1"))

let test_exit_usage () =
  check_int "bad --jobs" 124 (run (base ^ " --jobs 0"));
  check_int "--resume without --run-id" 124 (run (base ^ " --resume"))

let test_exit_io_error () =
  (* Block journal creation: a regular file where the journal directory
     must go makes [Journal.open_] raise [Error (Journal_io _)], which the
     CLI's I/O guard maps to exit 4. *)
  rm_rf (Filename.concat "results" "journal");
  if not (Sys.file_exists "results") then Sys.mkdir "results" 0o755;
  let blocker = Filename.concat "results" "journal" in
  let oc = open_out blocker in
  close_out oc;
  let code = run (base ^ " --run-id cli-io") in
  Sys.remove blocker;
  check_int "journal open fails" 4 code

let test_exit_journal_round_trip () =
  rm_rf (Filename.concat "results" "journal");
  check_int "journaled run" 0 (run (base ^ " --run-id cli-e2e"));
  check_int "resumed run" 0 (run (base ^ " --run-id cli-e2e --resume"));
  rm_rf (Filename.concat "results" "journal")

(* ------------------------------------------------------------------ *)
(* Metrics on/off parity: the observability layer must not perturb the
   deterministic stdout contract.  All metrics output goes to the JSONL
   file and stderr, so stdout must be byte-identical with the export on
   or off — for the CLI and for the bench harness alike. *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_capture cmd out =
  Sys.command (Printf.sprintf "%s >%s 2>/dev/null" cmd (Filename.quote out))

let check_bool = Alcotest.(check bool)

let test_cli_metrics_parity () =
  let plain = Filename.temp_file "cli_plain" ".out" in
  let metered = Filename.temp_file "cli_metered" ".out" in
  let jsonl = Filename.temp_file "cli_metrics" ".jsonl" in
  let cmd = Printf.sprintf "%s %s" (Filename.quote exe) base in
  check_int "plain run" 0 (run_capture cmd plain);
  check_int "metered run" 0
    (run_capture (Printf.sprintf "%s --metrics=%s" cmd (Filename.quote jsonl))
       metered);
  Alcotest.(check string)
    "stdout byte-identical with and without --metrics" (slurp plain)
    (slurp metered);
  (* The export itself landed and contains the solver's counters. *)
  let exported = slurp jsonl in
  check_bool "JSONL mentions solver_nodes_total" true
    (let needle = "solver_nodes_total" in
     let nh = String.length exported and nn = String.length needle in
     let rec go i =
       i + nn <= nh && (String.sub exported i nn = needle || go (i + 1))
     in
     go 0);
  List.iter Sys.remove [ plain; metered; jsonl ]

let bench_exe = Filename.concat ".." (Filename.concat "bench" "main.exe")

let test_bench_metrics_parity () =
  let plain = Filename.temp_file "bench_plain" ".out" in
  let metered = Filename.temp_file "bench_metered" ".out" in
  let jsonl = Filename.temp_file "bench_metrics" ".jsonl" in
  (* T1-gap is a cheap deterministic cell; MAXIS_NO_CACHE keeps the two
     runs truly identical work-wise. *)
  let cmd capture env =
    Sys.command
      (Printf.sprintf "%s MAXIS_NO_CACHE=1 %s T1-gap >%s 2>/dev/null" env
         (Filename.quote bench_exe) (Filename.quote capture))
  in
  check_int "plain bench cell" 0 (cmd plain "env");
  check_int "metered bench cell" 0
    (cmd metered (Printf.sprintf "env MAXIS_METRICS=%s" (Filename.quote jsonl)));
  Alcotest.(check string)
    "bench stdout byte-identical with and without MAXIS_METRICS"
    (slurp plain) (slurp metered);
  check_bool "bench export landed" true (String.length (slurp jsonl) > 0);
  List.iter Sys.remove [ plain; metered; jsonl ]

(* ------------------------------------------------------------------ *)
(* simulate --engine parity: the list and flat executors, the latter
   with and without a pool, must print a byte-identical report (same
   rounds, cut traffic, OPT and answer) — the engine choice is a
   performance knob, never an observable one. *)

let sim_base = "simulate --players 2 --ell 3"

let test_engine_stdout_parity () =
  let out_list = Filename.temp_file "sim_list" ".out" in
  let out_flat = Filename.temp_file "sim_flat" ".out" in
  let out_fpar = Filename.temp_file "sim_fpar" ".out" in
  let cmd flags out =
    run_capture
      (Printf.sprintf "%s %s %s" (Filename.quote exe) sim_base flags)
      out
  in
  check_int "list engine" 0 (cmd "--engine=list" out_list);
  check_int "flat engine" 0 (cmd "--engine=flat" out_flat);
  check_int "flat engine on 3 domains" 0
    (cmd "--engine=flat --jobs 3" out_fpar);
  Alcotest.(check string)
    "flat stdout = list stdout" (slurp out_list) (slurp out_flat);
  Alcotest.(check string)
    "flat --jobs 3 stdout = list stdout" (slurp out_list) (slurp out_fpar);
  List.iter Sys.remove [ out_list; out_flat; out_fpar ]

let test_engine_rejects_faults () =
  check_int "flat + --drop is a usage error" 2
    (run (sim_base ^ " --engine=flat --drop 0.1"));
  check_int "flat --jobs 3 + --corrupt is a usage error" 2
    (run (sim_base ^ " --engine=flat --jobs 3 --corrupt 0.1"));
  check_int "flat-par is no longer an engine" 124
    (run (sim_base ^ " --engine=flat-par"));
  check_int "list + --drop still runs" 0 (run (sim_base ^ " --drop 0.01"))

(* ------------------------------------------------------------------ *)
(* Verification.exit_code precedence *)

module V = Maxis_core.Verification

let item status = { V.name = "x"; status; detail = "" }

let inconclusive =
  item (V.Inconclusive { reason = "nodes"; lb = 1; ub = 9 })

let test_exit_code_unit () =
  check_int "empty" 0 (V.exit_code []);
  check_int "all pass" 0 (V.exit_code [ item V.Pass; item V.Pass ]);
  check_int "inconclusive" 3 (V.exit_code [ item V.Pass; inconclusive ]);
  check_int "fail" 2 (V.exit_code [ item V.Pass; item V.Fail ]);
  check_int "fail beats inconclusive" 2
    (V.exit_code [ inconclusive; item V.Fail; item V.Pass ])

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0 on success" `Quick test_exit_ok;
          Alcotest.test_case "3 on exhausted budget" `Quick
            test_exit_inconclusive;
          Alcotest.test_case "124 on usage errors" `Quick test_exit_usage;
          Alcotest.test_case "4 on I/O errors" `Quick test_exit_io_error;
          Alcotest.test_case "journal round trip" `Quick
            test_exit_journal_round_trip;
        ] );
      ( "metrics-parity",
        [
          Alcotest.test_case "cli stdout parity" `Quick test_cli_metrics_parity;
          Alcotest.test_case "bench stdout parity" `Quick
            test_bench_metrics_parity;
        ] );
      ( "engine-parity",
        [
          Alcotest.test_case "simulate stdout parity" `Quick
            test_engine_stdout_parity;
          Alcotest.test_case "flat engines reject faults" `Quick
            test_engine_rejects_faults;
        ] );
      ( "exit-code-unit",
        [ Alcotest.test_case "precedence" `Quick test_exit_code_unit ] );
    ]
