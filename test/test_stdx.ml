(* Tests for the stdx utility substrate: bitsets, PRNG, primes, math
   helpers, statistics, tables, dynamic vectors. *)

module Bitset = Stdx.Bitset
module Prng = Stdx.Prng
module Mathx = Stdx.Mathx

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_empty () =
  let s = Bitset.create 100 in
  check_int "cardinal" 0 (Bitset.cardinal s);
  check "is_empty" true (Bitset.is_empty s);
  check "mem" false (Bitset.mem s 0);
  check "mem hi" false (Bitset.mem s 99)

let test_bitset_add_remove () =
  let s = Bitset.create 100 in
  Bitset.add s 0;
  Bitset.add s 61;
  Bitset.add s 62;
  Bitset.add s 99;
  check_int "cardinal" 4 (Bitset.cardinal s);
  check "mem 61" true (Bitset.mem s 61);
  check "mem 62" true (Bitset.mem s 62);
  Bitset.remove s 62;
  check "removed" false (Bitset.mem s 62);
  check_int "cardinal after remove" 3 (Bitset.cardinal s);
  Bitset.remove s 62;
  check_int "remove idempotent" 3 (Bitset.cardinal s)

let test_bitset_full () =
  let s = Bitset.full 125 in
  check_int "cardinal" 125 (Bitset.cardinal s);
  check "all members" true (Bitset.for_all (fun _ -> true) s);
  check_int "elements length" 125 (List.length (Bitset.elements s));
  let t = Bitset.full 0 in
  check_int "full 0" 0 (Bitset.cardinal t)

let test_bitset_range_errors () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "mem -1" (Invalid_argument "Bitset: index -1 out of range [0, 10)")
    (fun () -> ignore (Bitset.mem s (-1)));
  Alcotest.check_raises "add 10" (Invalid_argument "Bitset: index 10 out of range [0, 10)")
    (fun () -> Bitset.add s 10)

let test_bitset_algebra () =
  let a = Bitset.of_list 100 [ 1; 2; 3; 70 ] in
  let b = Bitset.of_list 100 [ 3; 4; 70; 99 ] in
  check_int "union" 6 (Bitset.cardinal (Bitset.union a b));
  check_int "inter" 2 (Bitset.cardinal (Bitset.inter a b));
  check_int "diff" 2 (Bitset.cardinal (Bitset.diff a b));
  check_int "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  check "subset no" false (Bitset.subset a b);
  check "subset yes" true (Bitset.subset (Bitset.inter a b) a);
  check "disjoint no" false (Bitset.disjoint a b);
  check "disjoint yes" true (Bitset.disjoint a (Bitset.of_list 100 [ 50 ]));
  let c = Bitset.complement a in
  check_int "complement" 96 (Bitset.cardinal c);
  check "complement disjoint" true (Bitset.disjoint a c)

let test_bitset_in_place () =
  let a = Bitset.of_list 70 [ 1; 2; 65 ] in
  let b = Bitset.of_list 70 [ 2; 3 ] in
  Bitset.union_in_place a b;
  check_int "union_in_place" 4 (Bitset.cardinal a);
  Bitset.inter_in_place a b;
  check_int "inter_in_place" 2 (Bitset.cardinal a);
  Bitset.diff_in_place a (Bitset.of_list 70 [ 2 ]);
  check_int "diff_in_place" 1 (Bitset.cardinal a);
  check "left over" true (Bitset.mem a 3)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 10 and b = Bitset.create 11 in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Bitset: capacity mismatch (10 vs 11)") (fun () ->
      ignore (Bitset.union a b))

let test_bitset_iteration_order () =
  let s = Bitset.of_list 200 [ 150; 3; 62; 61; 199; 0 ] in
  Alcotest.(check (list int))
    "ascending" [ 0; 3; 61; 62; 150; 199 ] (Bitset.elements s);
  Alcotest.(check (option int)) "min" (Some 0) (Bitset.min_elt s);
  Alcotest.(check (option int)) "max" (Some 199) (Bitset.max_elt s);
  Alcotest.(check (option int)) "choose" (Some 0) (Bitset.choose s)

let test_bitset_copy_isolated () =
  let a = Bitset.of_list 10 [ 1 ] in
  let b = Bitset.copy a in
  Bitset.add b 2;
  check "original untouched" false (Bitset.mem a 2);
  check "copy has it" true (Bitset.mem b 2)

let test_bitset_to_string () =
  let s = Bitset.of_list 10 [ 1; 5 ] in
  Alcotest.(check string) "render" "{1, 5}" (Bitset.to_string s)

(* qcheck: bitset algebra laws *)

let gen_small_set =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_bound 30) (int_bound 99))

let prop_union_commutative =
  QCheck.Test.make ~name:"bitset union commutative" ~count:200
    (QCheck.pair gen_small_set gen_small_set) (fun (la, lb) ->
      let a = Bitset.of_list 100 la and b = Bitset.of_list 100 lb in
      Bitset.equal (Bitset.union a b) (Bitset.union b a))

let prop_de_morgan =
  QCheck.Test.make ~name:"bitset De Morgan" ~count:200
    (QCheck.pair gen_small_set gen_small_set) (fun (la, lb) ->
      let a = Bitset.of_list 100 la and b = Bitset.of_list 100 lb in
      Bitset.equal
        (Bitset.complement (Bitset.union a b))
        (Bitset.inter (Bitset.complement a) (Bitset.complement b)))

let prop_cardinal_inclusion_exclusion =
  QCheck.Test.make ~name:"bitset |A|+|B| = |A∪B|+|A∩B|" ~count:200
    (QCheck.pair gen_small_set gen_small_set) (fun (la, lb) ->
      let a = Bitset.of_list 100 la and b = Bitset.of_list 100 lb in
      Bitset.cardinal a + Bitset.cardinal b
      = Bitset.cardinal (Bitset.union a b) + Bitset.cardinal (Bitset.inter a b))

let prop_elements_sorted_distinct =
  QCheck.Test.make ~name:"bitset elements sorted distinct" ~count:200
    gen_small_set (fun l ->
      let e = Bitset.elements (Bitset.of_list 100 l) in
      List.sort_uniq compare e = e)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  check "different streams" true (xs <> ys)

let test_prng_int_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 17 in
    check "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let a = Prng.split g and b = Prng.split g in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  check "split streams differ" true (xs <> ys)

let test_prng_float_range () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let f = Prng.float g 2.5 in
    check "float range" true (f >= 0.0 && f < 2.5)
  done

let test_prng_uniformity_rough () =
  (* 10k draws over 10 buckets: each bucket within [800, 1200]. *)
  let g = Prng.create 99 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Prng.int g 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      check (Printf.sprintf "bucket %d balanced (%d)" i c) true
        (c > 800 && c < 1200))
    buckets

let test_prng_shuffle_permutation () =
  let g = Prng.create 12 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let g = Prng.create 8 in
  for _ = 1 to 50 do
    let s = Prng.sample_without_replacement g 20 7 in
    check_int "size" 7 (List.length s);
    check "distinct" true (List.sort_uniq compare s = s);
    List.iter (fun v -> check "range" true (v >= 0 && v < 20)) s
  done;
  check_int "all" 5 (List.length (Prng.sample_without_replacement g 5 5));
  Alcotest.check_raises "too many" (Invalid_argument "Prng.sample_without_replacement")
    (fun () -> ignore (Prng.sample_without_replacement g 3 4))

(* ------------------------------------------------------------------ *)
(* Primes *)

let test_primes_small () =
  let primes = [ 2; 3; 5; 7; 11; 13; 17; 19; 23 ] in
  List.iter (fun p -> check (string_of_int p) true (Stdx.Primes.is_prime p)) primes;
  List.iter
    (fun c -> check (string_of_int c) false (Stdx.Primes.is_prime c))
    [ -7; 0; 1; 4; 6; 8; 9; 10; 12; 15; 21; 25; 49; 121 ]

let test_next_prime () =
  check_int "next 0" 2 (Stdx.Primes.next_prime 0);
  check_int "next 2" 2 (Stdx.Primes.next_prime 2);
  check_int "next 3" 3 (Stdx.Primes.next_prime 3);
  check_int "next 4" 5 (Stdx.Primes.next_prime 4);
  check_int "next 8" 11 (Stdx.Primes.next_prime 8);
  check_int "next 90" 97 (Stdx.Primes.next_prime 90)

let test_primes_up_to () =
  Alcotest.(check (list int)) "up to 20" [ 2; 3; 5; 7; 11; 13; 17; 19 ]
    (Stdx.Primes.primes_up_to 20);
  Alcotest.(check (list int)) "up to 1" [] (Stdx.Primes.primes_up_to 1);
  check_int "count to 1000" 168 (List.length (Stdx.Primes.primes_up_to 1000))

let prop_next_prime_is_prime_and_minimal =
  QCheck.Test.make ~name:"next_prime minimal" ~count:200
    QCheck.(int_bound 2000) (fun n ->
      let p = Stdx.Primes.next_prime n in
      Stdx.Primes.is_prime p
      && p >= n
      && (let rec no_prime_between m = m >= p || ((not (Stdx.Primes.is_prime m)) && no_prime_between (m + 1)) in
          no_prime_between (max 2 n)))

(* ------------------------------------------------------------------ *)
(* Mathx *)

let test_ceil_log2 () =
  check_int "0" 0 (Mathx.ceil_log2 0);
  check_int "1" 0 (Mathx.ceil_log2 1);
  check_int "2" 1 (Mathx.ceil_log2 2);
  check_int "3" 2 (Mathx.ceil_log2 3);
  check_int "4" 2 (Mathx.ceil_log2 4);
  check_int "5" 3 (Mathx.ceil_log2 5);
  check_int "1024" 10 (Mathx.ceil_log2 1024);
  check_int "1025" 11 (Mathx.ceil_log2 1025)

let test_floor_log2 () =
  check_int "1" 0 (Mathx.floor_log2 1);
  check_int "2" 1 (Mathx.floor_log2 2);
  check_int "3" 1 (Mathx.floor_log2 3);
  check_int "4" 2 (Mathx.floor_log2 4);
  check_int "1023" 9 (Mathx.floor_log2 1023)

let test_pow () =
  check_int "2^10" 1024 (Mathx.pow 2 10);
  check_int "3^4" 81 (Mathx.pow 3 4);
  check_int "x^0" 1 (Mathx.pow 17 0);
  check_int "0^0" 1 (Mathx.pow 0 0);
  check_int "1^big" 1 (Mathx.pow 1 60)

let test_isqrt () =
  check_int "0" 0 (Mathx.isqrt 0);
  check_int "1" 1 (Mathx.isqrt 1);
  check_int "15" 3 (Mathx.isqrt 15);
  check_int "16" 4 (Mathx.isqrt 16);
  check_int "17" 4 (Mathx.isqrt 17);
  check_int "big" 1_000_000 (Mathx.isqrt 1_000_000_000_000)

let test_divide_round_up () =
  check_int "7/3" 3 (Mathx.divide_round_up 7 3);
  check_int "6/3" 2 (Mathx.divide_round_up 6 3);
  check_int "0/3" 0 (Mathx.divide_round_up 0 3)

let prop_pow_log_inverse =
  QCheck.Test.make ~name:"ceil_log2 (pow 2 e) = e" ~count:60
    QCheck.(int_bound 40) (fun e ->
      Mathx.ceil_log2 (Mathx.pow 2 e) = max 0 e || e = 0)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let s = Stdx.Stats.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 3.0 s.Stdx.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stdx.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 5.0 s.Stdx.Stats.max;
  Alcotest.(check (float 1e-9)) "median" 3.0 s.Stdx.Stats.median;
  Alcotest.(check (float 1e-6)) "stddev" (sqrt 2.5) s.Stdx.Stats.stddev

let test_stats_single () =
  let s = Stdx.Stats.summarize [| 7.0 |] in
  Alcotest.(check (float 1e-9)) "stddev of one" 0.0 s.Stdx.Stats.stddev;
  Alcotest.(check (float 1e-9)) "median of one" 7.0 s.Stdx.Stats.median

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stdx.Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p90" 90.0 (Stdx.Stats.percentile xs 90.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stdx.Stats.percentile xs 100.0)

(* Regression: sorting with polymorphic [compare] treats NaN
   incoherently (every comparison against NaN can answer [false]), so a
   NaN anywhere in the sample could leave finite entries unsorted and
   silently shift every percentile.  [Float.compare] gives NaN a fixed
   total-order position instead. *)
let test_percentile_nan () =
  let xs = [| 5.0; Float.nan; 1.0; 4.0; 2.0; 3.0 |] in
  (* NaN sorts below every number under Float.compare, so only the
     bottom percentile sees it; the finite suffix stays correctly
     ordered and the upper percentiles are exact. *)
  Alcotest.(check bool) "p0 is the NaN slot" true
    (Float.is_nan (Stdx.Stats.percentile xs 0.0));
  Alcotest.(check (float 1e-9)) "p100 is the finite maximum" 5.0
    (Stdx.Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p50 unaffected" 2.0
    (Stdx.Stats.percentile xs 50.0)

(* ------------------------------------------------------------------ *)
(* Tablefmt *)

let test_table_render () =
  let t = Stdx.Tablefmt.create [ Stdx.Tablefmt.column ~align:Stdx.Tablefmt.Left "name"; Stdx.Tablefmt.column "x" ] in
  Stdx.Tablefmt.add_row t [ "a"; "1" ];
  Stdx.Tablefmt.add_row t [ "bb"; "22" ];
  let out = Stdx.Tablefmt.render t in
  check "contains header" true
    (String.length out > 0
    && String.sub out 0 1 = "|");
  (* Row width mismatch *)
  Alcotest.check_raises "bad row"
    (Invalid_argument "Tablefmt.add_row: expected 2 cells, got 1") (fun () ->
      Stdx.Tablefmt.add_row t [ "x" ])

let test_table_csv () =
  let t = Stdx.Tablefmt.create [ Stdx.Tablefmt.column "a"; Stdx.Tablefmt.column "b" ] in
  Stdx.Tablefmt.add_row t [ "1"; "plain" ];
  Stdx.Tablefmt.add_row t [ "2,5"; "say \"hi\"" ];
  Alcotest.(check string) "csv"
    "a,b\n1,plain\n\"2,5\",\"say \"\"hi\"\"\"\n"
    (Stdx.Tablefmt.to_csv t)

let test_table_write_csv () =
  let t = Stdx.Tablefmt.create [ Stdx.Tablefmt.column "x" ] in
  Stdx.Tablefmt.add_row t [ "42" ];
  let path = Filename.temp_file "tbl" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Stdx.Tablefmt.write_csv t path;
      let ic = open_in path in
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "file contents" "x\n42\n" contents)

let test_table_cells () =
  Alcotest.(check string) "int" "42" (Stdx.Tablefmt.cell_int 42);
  Alcotest.(check string) "float" "3.142" (Stdx.Tablefmt.cell_float 3.14159);
  Alcotest.(check string) "ratio" "0.7500" (Stdx.Tablefmt.cell_ratio 0.75);
  Alcotest.(check string) "bool ok" "ok" (Stdx.Tablefmt.cell_bool true);
  Alcotest.(check string) "bool fail" "FAIL" (Stdx.Tablefmt.cell_bool false)

(* ------------------------------------------------------------------ *)
(* Dynvec *)

let test_dynvec_push_get () =
  let v = Stdx.Dynvec.create () in
  check "empty" true (Stdx.Dynvec.is_empty v);
  for i = 0 to 99 do
    Stdx.Dynvec.push v (i * i)
  done;
  check_int "length" 100 (Stdx.Dynvec.length v);
  check_int "get 7" 49 (Stdx.Dynvec.get v 7);
  Stdx.Dynvec.set v 7 1000;
  check_int "set" 1000 (Stdx.Dynvec.get v 7);
  Alcotest.check_raises "oob" (Invalid_argument "Dynvec: index out of range")
    (fun () -> ignore (Stdx.Dynvec.get v 100))

let test_dynvec_fold_iter () =
  let v = Stdx.Dynvec.create () in
  List.iter (Stdx.Dynvec.push v) [ 1; 2; 3; 4 ];
  check_int "fold" 10 (Stdx.Dynvec.fold ( + ) 0 v);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3; 4 ] (Stdx.Dynvec.to_list v);
  check "exists" true (Stdx.Dynvec.exists (fun x -> x = 3) v);
  check "not exists" false (Stdx.Dynvec.exists (fun x -> x = 9) v);
  Stdx.Dynvec.clear v;
  check_int "cleared" 0 (Stdx.Dynvec.length v)

(* ------------------------------------------------------------------ *)
(* Jsonx: the one JSON codec shared by Obs.Export and the serve wire
   protocol *)

module J = Stdx.Jsonx

let check_string = Alcotest.(check string)

let parse_ok s =
  match J.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "parse %S: %s" s e

let test_jsonx_roundtrip () =
  let samples =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 1.5;
      J.Str "plain";
      J.Str "esc \"quotes\" \\ back\nnew\ttab\rret";
      J.Str "ctrl \x01\x1f end";
      J.Arr [];
      J.Obj [];
      J.Arr [ J.Int 1; J.Str "two"; J.Null; J.Bool false ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("b", J.Arr [ J.Float 0.25 ]) ]);
          ("empty key", J.Str "");
        ];
    ]
  in
  List.iter
    (fun j ->
      let s = J.to_string j in
      check (Printf.sprintf "roundtrip %s" s) true (parse_ok s = j))
    samples

let test_jsonx_escape_matches_obs () =
  (* The shared escaper must keep producing exactly the bytes
     Obs.Export always wrote (golden JSONL files depend on them). *)
  check_string "quote" "\\\"" (J.escape "\"");
  check_string "backslash" "\\\\" (J.escape "\\");
  check_string "newline" "\\n" (J.escape "\n");
  check_string "tab" "\\t" (J.escape "\t");
  check_string "return" "\\r" (J.escape "\r");
  check_string "low ctrl" "\\u0001" (J.escape "\x01");
  check_string "passthrough" "abc {}" (J.escape "abc {}")

let test_jsonx_parse_accepts () =
  check "ws" true (parse_ok "  { \"a\" : [ 1 , 2 ] }  " = J.Obj [ ("a", J.Arr [ J.Int 1; J.Int 2 ]) ]);
  check "neg exp" true (parse_ok "-1.5e2" = J.Float (-150.0));
  check "unsigned exp" true (parse_ok "2E3" = J.Float 2000.0);
  check "frac exp" true (parse_ok "0.5e-1" = J.Float 0.05);
  check "int" true (parse_ok "123" = J.Int 123);
  check "escapes" true (parse_ok {|"A\n\/"|} = J.Str "A\n/");
  (* surrogate pair -> UTF-8 *)
  check "surrogates" true (parse_ok {|"😀"|} = J.Str "\xf0\x9f\x98\x80");
  check "dup keys keep first" true
    (J.mem_int "a" (parse_ok {|{"a":1,"a":2}|}) = Some 1
    || J.mem_int "a" (parse_ok {|{"a":1,"a":2}|}) = Some 2)

let test_jsonx_parse_rejects () =
  let bad s =
    match J.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "parsed: %S" s
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "tru";
  bad "1 2";
  (* trailing bytes *)
  bad "nullx";
  bad "\"bad \\q escape\"";
  (* malformed number lexemes must come back as Error, never raise
     (float_of_string on "1e" would throw Failure) *)
  bad "1e";
  bad "1E+";
  bad "-.";
  bad "-";
  bad "1.";
  bad ".5";
  bad "2e-";
  bad "{\"op\":\"ping\",\"x\":1e}";
  (* deeper than max_depth *)
  bad (String.make 200 '[' ^ String.make 200 ']')

let test_jsonx_accessors () =
  let j = parse_ok {|{"s":"x","i":7,"b":true,"f":2.5,"n":null}|} in
  check "mem_str" true (J.mem_str "s" j = Some "x");
  check "mem_int" true (J.mem_int "i" j = Some 7);
  check "mem_bool" true (J.mem_bool "b" j = Some true);
  check "to_float of int" true
    (Option.bind (J.member "i" j) J.to_float = Some 7.0);
  check "missing" true (J.member "zz" j = None);
  check "wrong type" true (J.mem_int "s" j = None)

let test_jsonx_float_fidelity () =
  (* Floats survive print -> parse exactly; non-finite encode as null. *)
  List.iter
    (fun f ->
      match parse_ok (J.to_string (J.Float f)) with
      | J.Float g -> check (string_of_float f) true (g = f)
      | J.Int g -> check (string_of_float f) true (float_of_int g = f)
      | _ -> Alcotest.fail "not a number")
    [ 0.25; -1.0e-7; 3.141592653589793; 1e300; 0.1 ];
  check_string "nan is null" "null" (J.to_string (J.Float Float.nan));
  check_string "inf is null" "null" (J.to_string (J.Float Float.infinity))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "stdx"
    [
      ( "bitset",
        [
          Alcotest.test_case "empty" `Quick test_bitset_empty;
          Alcotest.test_case "add/remove" `Quick test_bitset_add_remove;
          Alcotest.test_case "full" `Quick test_bitset_full;
          Alcotest.test_case "range errors" `Quick test_bitset_range_errors;
          Alcotest.test_case "algebra" `Quick test_bitset_algebra;
          Alcotest.test_case "in place" `Quick test_bitset_in_place;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          Alcotest.test_case "iteration order" `Quick test_bitset_iteration_order;
          Alcotest.test_case "copy isolated" `Quick test_bitset_copy_isolated;
          Alcotest.test_case "to_string" `Quick test_bitset_to_string;
        ] );
      qsuite "bitset-props"
        [
          prop_union_commutative;
          prop_de_morgan;
          prop_cardinal_inclusion_exclusion;
          prop_elements_sorted_distinct;
        ];
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "rough uniformity" `Quick test_prng_uniformity_rough;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_prng_sample_without_replacement;
        ] );
      ( "primes",
        [
          Alcotest.test_case "small primes" `Quick test_primes_small;
          Alcotest.test_case "next_prime" `Quick test_next_prime;
          Alcotest.test_case "primes_up_to" `Quick test_primes_up_to;
        ] );
      qsuite "primes-props" [ prop_next_prime_is_prime_and_minimal ];
      ( "mathx",
        [
          Alcotest.test_case "ceil_log2" `Quick test_ceil_log2;
          Alcotest.test_case "floor_log2" `Quick test_floor_log2;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "isqrt" `Quick test_isqrt;
          Alcotest.test_case "divide_round_up" `Quick test_divide_round_up;
        ] );
      qsuite "mathx-props" [ prop_pow_log_inverse ];
      ( "stats",
        [
          Alcotest.test_case "basic" `Quick test_stats_basic;
          Alcotest.test_case "single" `Quick test_stats_single;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile NaN" `Quick test_percentile_nan;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "csv" `Quick test_table_csv;
          Alcotest.test_case "write csv" `Quick test_table_write_csv;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
      ( "dynvec",
        [
          Alcotest.test_case "push/get" `Quick test_dynvec_push_get;
          Alcotest.test_case "fold/iter" `Quick test_dynvec_fold_iter;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "roundtrip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "escape = Obs.Export bytes" `Quick
            test_jsonx_escape_matches_obs;
          Alcotest.test_case "parse accepts" `Quick test_jsonx_parse_accepts;
          Alcotest.test_case "parse rejects" `Quick test_jsonx_parse_rejects;
          Alcotest.test_case "accessors" `Quick test_jsonx_accessors;
          Alcotest.test_case "float fidelity" `Quick test_jsonx_float_fidelity;
        ] );
    ]
