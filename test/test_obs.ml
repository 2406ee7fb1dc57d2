(* Unit tests for the observability layer: Obs.Metrics (registry,
   interning, snapshot/diff), Obs.Span (nesting, counts, exception
   safety, injectable clock) and Obs.Export (JSONL / Prometheus / table /
   atomic writes).  These run in their own process, so resetting the
   global registry between cases is safe. *)

module M = Obs.Metrics
module S = Obs.Span
module E = Obs.Export

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let fresh () = M.reset ()

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_counter_basics () =
  fresh ();
  let c = M.counter "obs_test_basic_total" in
  check_int "starts at zero" 0 (M.value c);
  M.inc c;
  M.add c 41;
  check_int "inc + add" 42 (M.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Metrics.add: counters are monotone (k < 0)") (fun () ->
      M.add c (-1))

let test_interning () =
  fresh ();
  let a = M.counter ~labels:[ ("x", "1"); ("y", "2") ] "obs_test_intern_total" in
  let b = M.counter ~labels:[ ("y", "2"); ("x", "1") ] "obs_test_intern_total" in
  M.inc a;
  M.inc b;
  check_int "label order does not matter: one cell" 2 (M.value a);
  let other = M.counter ~labels:[ ("x", "other") ] "obs_test_intern_total" in
  check_int "distinct labels, distinct cell" 0 (M.value other)

let test_registration_errors () =
  fresh ();
  Alcotest.check_raises "empty name"
    (Invalid_argument "Obs.Metrics: empty instrument name") (fun () ->
      ignore (M.counter ""));
  Alcotest.check_raises "duplicate label keys"
    (Invalid_argument
       "Obs.Metrics: duplicate label key \"k\" on obs_test_dup_total") (fun () ->
      ignore (M.counter ~labels:[ ("k", "1"); ("k", "2") ] "obs_test_dup_total"))

let test_kind_conflict () =
  fresh ();
  ignore (M.counter "obs_test_kind");
  check "re-registering as gauge rejected" true
    (try
       ignore (M.gauge "obs_test_kind");
       false
     with Invalid_argument _ -> true)

let test_gauge () =
  fresh ();
  let g = M.gauge "obs_test_gauge" in
  M.set g 7;
  M.set g 3;
  check_int "gauge keeps last value" 3 (M.gauge_value g)

let test_histogram_buckets () =
  fresh ();
  let h = M.histogram ~buckets:[| 1.0; 10.0 |] "obs_test_hist" in
  List.iter (M.observe h) [ 0.5; 5.0; 50.0; 1.0 ];
  match M.find (M.snapshot ()) "obs_test_hist" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
      check_int "observation count" 4 (int_of_float s.M.value);
      Alcotest.(check (float 1e-6)) "sum exact to 1e-6" 56.5 s.M.sum;
      (* Cumulative buckets: le=1 gets {0.5, 1.0}, le=10 adds 5.0, +inf all. *)
      Alcotest.(check (list (pair (float 0.0) int)))
        "cumulative buckets"
        [ (1.0, 2); (10.0, 3); (infinity, 4) ]
        s.M.buckets

let test_histogram_bucket_conflict () =
  fresh ();
  ignore (M.histogram ~buckets:[| 1.0; 2.0 |] "obs_test_hist_conflict");
  check "different buckets rejected" true
    (try
       ignore (M.histogram ~buckets:[| 1.0; 3.0 |] "obs_test_hist_conflict");
       false
     with Invalid_argument _ -> true);
  check "non-increasing buckets rejected" true
    (try
       ignore (M.histogram ~buckets:[| 2.0; 1.0 |] "obs_test_hist_bad");
       false
     with Invalid_argument _ -> true)

let test_snapshot_order () =
  fresh ();
  ignore (M.counter "obs_test_z_total");
  ignore (M.counter "obs_test_a_total");
  ignore (M.counter ~labels:[ ("l", "2") ] "obs_test_m_total");
  ignore (M.counter ~labels:[ ("l", "1") ] "obs_test_m_total");
  let names =
    List.map
      (fun (s : M.sample) -> (s.M.name, s.M.labels))
      (List.filter
         (fun (s : M.sample) ->
           List.mem s.M.name
             [ "obs_test_a_total"; "obs_test_m_total"; "obs_test_z_total" ])
         (M.snapshot ()))
  in
  Alcotest.(check (list (pair string (list (pair string string)))))
    "sorted by (name, labels)"
    [
      ("obs_test_a_total", []);
      ("obs_test_m_total", [ ("l", "1") ]);
      ("obs_test_m_total", [ ("l", "2") ]);
      ("obs_test_z_total", []);
    ]
    names

let test_diff () =
  fresh ();
  let c = M.counter "obs_test_diff_total" in
  let g = M.gauge "obs_test_diff_gauge" in
  let h = M.histogram ~buckets:[| 1.0 |] "obs_test_diff_hist" in
  M.add c 5;
  M.set g 100;
  M.observe h 0.5;
  let before = M.snapshot () in
  M.add c 3;
  M.set g 7;
  M.observe h 2.0;
  let late = M.counter "obs_test_diff_late_total" in
  M.add late 9;
  let d = M.diff ~before ~after:(M.snapshot ()) in
  check_int "counter delta" 3 (int_of_float (M.get d "obs_test_diff_total"));
  check_int "gauge keeps after value" 7
    (int_of_float (M.get d "obs_test_diff_gauge"));
  check_int "absent-from-before counts from zero" 9
    (int_of_float (M.get d "obs_test_diff_late_total"));
  (match M.find d "obs_test_diff_hist" with
  | None -> Alcotest.fail "histogram missing from diff"
  | Some s ->
      check_int "histogram count delta" 1 (int_of_float s.M.value);
      Alcotest.(check (float 1e-6)) "histogram sum delta" 2.0 s.M.sum;
      Alcotest.(check (list (pair (float 0.0) int)))
        "histogram bucket delta"
        [ (1.0, 0); (infinity, 1) ]
        s.M.buckets);
  check "zero-change counters kept" true
    (M.find d "obs_test_diff_total" <> None)

let test_sum_family () =
  fresh ();
  M.add (M.counter ~labels:[ ("algo", "a") ] "obs_test_fam_total") 2;
  M.add (M.counter ~labels:[ ("algo", "b") ] "obs_test_fam_total") 3;
  check_int "sum over labels" 5
    (int_of_float (M.sum_family (M.snapshot ()) "obs_test_fam_total"));
  check_int "get defaults to zero" 0
    (int_of_float (M.get (M.snapshot ()) "obs_test_no_such_total"))

let test_reset () =
  fresh ();
  let c = M.counter "obs_test_reset_total" in
  M.add c 5;
  M.reset ();
  check_int "reset zeroes" 0 (M.value c);
  M.inc c;
  check_int "handle survives reset" 1 (M.value c)

let test_atomic_updates () =
  fresh ();
  let c = M.counter "obs_test_atomic_total" in
  let per = 10_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              M.inc c
            done))
  in
  Array.iter Domain.join domains;
  check_int "no lost updates" (4 * per) (M.value c)

(* ------------------------------------------------------------------ *)
(* Spans *)

(* A fake clock makes wall times exact and the tests deterministic. *)
let with_fake_clock f =
  let t = ref 0.0 in
  S.set_clock (fun () -> !t);
  Fun.protect
    ~finally:(fun () ->
      S.set_enabled false;
      S.reset ();
      S.set_clock Sys.time)
    (fun () -> f t)

let test_span_disabled_is_transparent () =
  with_fake_clock (fun _ ->
      S.set_enabled false;
      let r = S.with_span "never" (fun () -> 42) in
      check_int "with_span = f () when disabled" 42 r;
      S.count "ignored" 1;
      check "no tree recorded" true (S.roots () = []))

let test_span_tree () =
  with_fake_clock (fun t ->
      S.set_enabled true;
      S.with_span "outer" (fun () ->
          t := 1.0;
          S.with_span "inner" (fun () ->
              S.count "items" 2;
              S.count "items" 3;
              t := 3.0);
          t := 10.0);
      match S.roots () with
      | [ { S.name = "outer"; wall_s; counts = []; children = [ inner ] } ] ->
          Alcotest.(check (float 1e-9)) "outer wall" 10.0 wall_s;
          check_str "inner name" "inner" inner.S.name;
          Alcotest.(check (float 1e-9)) "inner wall" 2.0 inner.S.wall_s;
          Alcotest.(check (list (pair string int)))
            "counts summed" [ ("items", 5) ] inner.S.counts
      | _ -> Alcotest.fail "unexpected profile tree shape")

let test_span_exception_safety () =
  with_fake_clock (fun t ->
      S.set_enabled true;
      (try
         S.with_span "boom" (fun () ->
             t := 2.0;
             failwith "inner failure")
       with Failure _ -> ());
      match S.roots () with
      | [ { S.name = "boom"; wall_s; _ } ] ->
          Alcotest.(check (float 1e-9)) "span closed on raise" 2.0 wall_s;
          (* The stack unwound: a new span is a root, not a child. *)
          S.with_span "after" (fun () -> ());
          check_int "stack unwound" 2 (List.length (S.roots ()))
      | _ -> Alcotest.fail "span lost on exception")

let test_span_rows_and_pp () =
  with_fake_clock (fun t ->
      S.set_enabled true;
      S.with_span "a" (fun () ->
          S.with_span "b" (fun () ->
              S.count "n" 1;
              t := 0.5));
      let rows = S.to_rows (S.roots ()) in
      Alcotest.(check (list (pair string (list (pair string int)))))
        "slash-joined paths"
        [ ("a", []); ("a/b", [ ("n", 1) ]) ]
        (List.map (fun (p, _, c) -> (p, c)) rows);
      let rendered = Format.asprintf "%a" S.pp (S.roots ()) in
      check "pp mentions both spans" true
        (contains rendered "a" && contains rendered "b"))

(* ------------------------------------------------------------------ *)
(* Export *)

let test_json_escape () =
  check_str "quotes and backslashes" "a\\\"b\\\\c" (E.json_escape "a\"b\\c");
  check_str "newline" "x\\ny" (E.json_escape "x\ny");
  check_str "control char" "\\u0001" (E.json_escape "\x01")

let test_jsonl_format () =
  fresh ();
  M.add (M.counter ~labels:[ ("algo", "t") ] "obs_test_json_total") 3;
  let line =
    List.find
      (fun l -> contains l "obs_test_json")
      (String.split_on_char '\n' (E.jsonl (M.snapshot ())))
  in
  check_str "exact JSONL line"
    "{\"name\":\"obs_test_json_total\",\"labels\":{\"algo\":\"t\"},\"type\":\"counter\",\"value\":3}"
    line

let test_prometheus_format () =
  fresh ();
  M.observe (M.histogram ~buckets:[| 1.0 |] "obs_test_prom_hist") 0.5;
  let out = E.prometheus (M.snapshot ()) in
  check "TYPE line" true (contains out "# TYPE obs_test_prom_hist histogram");
  check "le bucket" true (contains out "obs_test_prom_hist_bucket{le=\"1\"} 1");
  check "+inf bucket" true
    (contains out "obs_test_prom_hist_bucket{le=\"+inf\"} 1");
  check "sum and count" true
    (contains out "obs_test_prom_hist_sum 0.5"
    && contains out "obs_test_prom_hist_count 1")

let test_table_format () =
  fresh ();
  M.add (M.counter "obs_test_table_total") 12;
  let out = E.table (M.snapshot ()) in
  check "table mentions the counter" true (contains out "obs_test_table_total")

let test_write_atomic () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "obs_test_write" in
  let path = Filename.concat (Filename.concat dir "nested") "out.jsonl" in
  E.write path "payload\n";
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_str "written contents" "payload\n" contents;
  check "no tmp file left behind" true
    (Sys.readdir (Filename.dirname path) = [| "out.jsonl" |]);
  E.write path "second\n";
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  check_str "overwrite replaces" "second\n" contents

let test_spans_csv () =
  with_fake_clock (fun t ->
      S.set_enabled true;
      S.with_span "root" (fun () ->
          S.with_span "leaf" (fun () ->
              S.count "k" 2;
              t := 0.25));
      check_str "csv rows"
        "phase,wall_s,counts\nroot,0.250000,\nroot/leaf,0.250000,k=2\n"
        (E.spans_csv (S.roots ())))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "interning" `Quick test_interning;
          Alcotest.test_case "registration errors" `Quick test_registration_errors;
          Alcotest.test_case "kind conflict" `Quick test_kind_conflict;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "histogram bucket conflict" `Quick
            test_histogram_bucket_conflict;
          Alcotest.test_case "snapshot order" `Quick test_snapshot_order;
          Alcotest.test_case "diff" `Quick test_diff;
          Alcotest.test_case "sum_family / get" `Quick test_sum_family;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "atomic updates" `Quick test_atomic_updates;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled is transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "tree + counts" `Quick test_span_tree;
          Alcotest.test_case "exception safety" `Quick test_span_exception_safety;
          Alcotest.test_case "rows + pp" `Quick test_span_rows_and_pp;
        ] );
      ( "export",
        [
          Alcotest.test_case "json escape" `Quick test_json_escape;
          Alcotest.test_case "jsonl format" `Quick test_jsonl_format;
          Alcotest.test_case "prometheus format" `Quick test_prometheus_format;
          Alcotest.test_case "table format" `Quick test_table_format;
          Alcotest.test_case "atomic write" `Quick test_write_atomic;
          Alcotest.test_case "spans csv" `Quick test_spans_csv;
        ] );
    ]
