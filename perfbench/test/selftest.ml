(* Benchmark self-test: every workload at the tiny size, untraced and
   traced.  Each run must check at least one operation and fail none,
   and must emit exactly the catalogued metrics with their units (the
   names BENCHMARK.json lists); end-to-end values must be positive.
   A seed-pinned table of exact counts guards the workloads' meaning:
   if an adapter change alters what a workload simulates, these move. *)

open Perfbench
module A = Adapter
module H = Harness
module W = Workloads

let run_dir = "selftest-run"

let ctx ~traced =
  { W.size = W.tiny; seed = 1; seconds = 0.0; traced; dir = run_dir }

let check_outcome name ~traced (o : H.outcome) =
  let t = o.H.tally in
  Alcotest.(check bool) (name ^ ": checked something") true (t.H.attempted > 0);
  Alcotest.(check string) (name ^ ": first failure") "" t.H.first_failure;
  Alcotest.(check int) (name ^ ": failed") 0 t.H.failed;
  let emitted = if traced then o.H.layers else o.H.end_to_end in
  let catalogue = if traced then W.per_layer else W.end_to_end in
  Alcotest.(check (list (pair string string)))
    (name ^ ": metric names and units")
    catalogue
    (List.map (fun m -> (m.H.name, m.H.unit_)) emitted);
  List.iter
    (fun m ->
      Alcotest.(check bool) (name ^ ": " ^ m.H.name ^ " finite") true
        (Float.is_finite m.H.value);
      if not traced then
        Alcotest.(check bool) (name ^ ": " ^ m.H.name ^ " > 0") true (m.H.value > 0.0))
    emitted

let info o k = List.assoc k o.H.info

let workload_case (name, run) =
  Alcotest.test_case name `Quick (fun () ->
      if Sys.file_exists run_dir then W.rm_rf run_dir;
      Sys.mkdir run_dir 0o755;
      let untraced = run (ctx ~traced:false) in
      check_outcome name ~traced:false untraced;
      let traced = run (ctx ~traced:true) in
      check_outcome (name ^ " traced") ~traced:true traced;
      (* Exact work per pass repeats between traced and untraced runs. *)
      Alcotest.(check string) (name ^ ": work per pass repeats")
        (info untraced "work_per_pass") (info traced "work_per_pass");
      H.stop_probes ();
      W.rm_rf run_dir)

(* Seed 1, tiny size: the exact counts every later change must keep. *)
let pinned_counts () =
  let g = A.sparse_graph ~seed:1 ~n:2_000 in
  let row al =
    let r = A.run_algo A.Sequential al g in
    (A.algo_name al, (r.A.rounds, r.A.messages, r.A.bits), r.A.digest)
  in
  Alcotest.(check (list (triple string (triple int int int) int64)))
    "sparse graph, seed 1, n = 2000"
    [
      ("flood", (16, 59_916, 659_076), -2005700743691616822L);
      ("bfs", (16, 11_986, 131_846), 2275308813699511707L);
      ("luby", (12, 27_910, 362_314), 1444732348022851631L);
    ]
    (List.map row [ A.Flood 16; A.Bfs 16; A.Luby ]);
  let p = A.gadget_params ~target:400 in
  let c, part = A.gadget_instance p (A.promise_input ~seed:1 p ~intersecting:false) in
  let r = A.run_algo ~cut:part A.Sequential (A.Flood 4) c in
  Alcotest.(check (pair (triple int int int) (pair int int64)))
    "gadget flood, seed 1 (ell = 12, n = 364)"
    ((4, 46_656, 419_904), (106_704, 2422467058063583494L))
    ((r.A.rounds, r.A.messages, r.A.bits), (r.A.cut_bits, r.A.digest))

let () =
  Alcotest.run "perfbench"
    [
      ("workloads", List.map workload_case W.all);
      ("pinned", [ Alcotest.test_case "seed-pinned counts" `Quick pinned_counts ]);
    ]
