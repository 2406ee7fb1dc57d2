(* Tests for the Exec subsystem: the deterministic domain pool, the
   content-addressed result cache, and the parallel exact MaxIS solver
   built on top of them. *)

module Pool = Exec.Pool
module Cache = Exec.Cache
module Prng = Stdx.Prng
module Bitset = Stdx.Bitset
module Build = Wgraph.Build

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let widths = [ 1; 2; 8 ]

(* ------------------------------------------------------------------ *)
(* Pool: determinism *)

let test_pool_map_matches_sequential () =
  let xs = Array.init 100 Fun.id in
  let f x = (x * x) + 1 in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      let got = Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected got)
    widths

let test_pool_map_order_under_skew () =
  (* Uneven task costs scramble the claim order; results must still come
     back in input order at every width. *)
  let xs = Array.init 64 Fun.id in
  let f x =
    if x mod 3 = 0 then begin
      (* burn some cycles so late tasks can finish first *)
      let acc = ref 0 in
      for i = 1 to 20_000 do
        acc := !acc + (i mod 7)
      done;
      ignore !acc
    end;
    10 * x
  in
  List.iter
    (fun jobs ->
      let got = Pool.with_pool ~jobs (fun pool -> Pool.map pool f xs) in
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        (Array.map (fun x -> 10 * x) xs)
        got)
    widths

let test_pool_map_empty_and_singleton () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          check_int "empty" 0 (Array.length (Pool.map pool succ [||]));
          Alcotest.(check (array int)) "singleton" [| 42 |]
            (Pool.map pool succ [| 41 |]);
          Alcotest.(check (list int)) "map_list" [ 2; 3; 4 ]
            (Pool.map_list pool succ [ 1; 2; 3 ])))
    widths

let test_pool_exception_propagation () =
  (* The lowest-index failing task's exception must surface, at every
     width — exactly what a sequential loop would raise first. *)
  let f x = if x >= 7 then failwith (Printf.sprintf "boom %d" x) else x in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "jobs=%d" jobs)
            (Failure "boom 7")
            (fun () -> ignore (Pool.map pool f (Array.init 32 Fun.id)))))
    widths

let test_pool_nested_map_rejected () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let nested_rejected =
        Pool.map pool
          (fun _ ->
            try
              ignore (Pool.map pool succ [| 1 |]);
              false
            with Invalid_argument _ -> true)
          [| 0; 1; 2; 3 |]
      in
      check "every nested map raises" true (Array.for_all Fun.id nested_rejected))

let test_pool_shutdown () =
  let pool = Pool.create ~jobs:3 () in
  check_int "jobs" 3 (Pool.jobs pool);
  Alcotest.(check (array int)) "usable" [| 1; 2 |] (Pool.map pool succ [| 0; 1 |]);
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  Alcotest.check_raises "map after shutdown"
    (Invalid_argument "Exec.Pool.map: pool was shut down") (fun () ->
      ignore (Pool.map pool succ [| 0 |]))

let test_pool_jobs_one_spawns_nothing () =
  (* A width-1 pool is a plain loop, but the lifecycle contract is the
     same at every width: using a pool after shutdown is a bug and
     raises, even though there was nothing to shut down. *)
  let pool = Pool.create ~jobs:1 () in
  Alcotest.(check (array int)) "a loop" [| 5 |] (Pool.map pool succ [| 4 |]);
  Pool.shutdown pool;
  Alcotest.check_raises "map after shutdown raises at jobs=1 too"
    (Invalid_argument "Exec.Pool.map: pool was shut down") (fun () ->
      ignore (Pool.map pool succ [| 4 |]))

let test_pool_create_rejects_bad_width () =
  Alcotest.check_raises "jobs=0"
    (Invalid_argument "Exec.Pool.create: jobs must be >= 1") (fun () ->
      ignore (Pool.create ~jobs:0 ()))

let test_pool_default_jobs_env () =
  let set v = Unix.putenv "MAXIS_JOBS" v in
  set "3";
  check_int "explicit" 3 (Pool.default_jobs ());
  set "garbage";
  check_int "garbage -> 1" 1 (Pool.default_jobs ());
  set "-2";
  check_int "negative -> 1" 1 (Pool.default_jobs ());
  set "auto";
  check "auto >= 1" true (Pool.default_jobs () >= 1);
  set ""

(* ------------------------------------------------------------------ *)
(* Pool: run_range, the barrier primitive behind run_flat ~pool *)

let test_run_range_matches_loop () =
  (* Every index of [lo, hi) touched exactly once, at every width,
     including a non-zero lo and n < jobs. *)
  List.iter
    (fun (lo, hi) ->
      let n = hi - lo in
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let hits = Array.make (max n 1) 0 in
              Pool.run_range pool ~lo ~hi (fun clo chi ->
                  for i = clo to chi - 1 do
                    hits.(i - lo) <- hits.(i - lo) + 1
                  done);
              check
                (Printf.sprintf "lo=%d hi=%d jobs=%d" lo hi jobs)
                true
                (n = 0 || Array.for_all (fun c -> c = 1) hits)))
        widths)
    [ (0, 100); (7, 40); (0, 3); (5, 5) ]

let test_run_range_chunks_cover_range () =
  (* The chunks a body actually receives concatenate to [lo, hi) in
     ascending order and agree with the pure chunk_bounds map. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let seen = Array.make jobs (-1, -1) in
          let next = Atomic.make 0 in
          Pool.run_range pool ~lo:3 ~hi:45 (fun clo chi ->
              seen.(Atomic.fetch_and_add next 1) <- (clo, chi));
          Array.sort compare seen;
          let expected =
            Array.init jobs (Pool.chunk_bounds ~jobs ~lo:3 ~hi:45)
          in
          Array.sort compare expected;
          check (Printf.sprintf "jobs=%d" jobs) true (seen = expected)))
      widths

let test_run_range_rejects_reverse_range () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "hi < lo"
        (Invalid_argument "Exec.Pool.run_range: hi < lo") (fun () ->
          Pool.run_range pool ~lo:4 ~hi:3 (fun _ _ -> ())))

let test_run_range_exception_lowest_chunk () =
  (* Every chunk raises; the lowest chunk's exception must surface at
     every width — the one ascending sequential execution hits first —
     and the pool must stay usable afterwards. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "jobs=%d" jobs)
            (Failure "chunk 0") (fun () ->
              Pool.run_range pool ~lo:0 ~hi:32 (fun clo _ ->
                  failwith (Printf.sprintf "chunk %d" clo)));
          let sum = Atomic.make 0 in
          Pool.run_range pool ~lo:0 ~hi:10 (fun clo chi ->
              for i = clo to chi - 1 do
                ignore (Atomic.fetch_and_add sum i)
              done);
          check_int
            (Printf.sprintf "pool reusable after failure (jobs=%d)" jobs)
            45 (Atomic.get sum)))
    widths

let test_run_range_rapid_reuse () =
  (* Back-to-back barriers overlap: a worker from barrier k can sit
     between its final publish and its next claim while barrier k+1 is
     installed.  Each call has its own claim counter, so that worker
     finds barrier k's counter exhausted and goes back to waiting; it
     can never claim a chunk of barrier k+1 or publish into the pool's
     slots, which barrier k cleared before it returned.  (When the
     pool reset one reused batch record in place, a counter reset that
     came too early let such a worker lose a publication and hang the
     barrier, as no retry exists for ranges.)  Tiny bodies in a tight
     loop maximise the window. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let sum = Atomic.make 0 in
          for round = 1 to 3_000 do
            Atomic.set sum 0;
            Pool.run_range pool ~lo:0 ~hi:jobs (fun clo chi ->
                ignore (Atomic.fetch_and_add sum (chi - clo)));
            if Atomic.get sum <> jobs then
              Alcotest.failf "jobs=%d round=%d: lost a chunk" jobs round
          done))
    [ 2; 4; 8 ]

let test_run_range_nested_rejected () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let nested_ok = Atomic.make 0 in
      Pool.run_range pool ~lo:0 ~hi:4 (fun _ _ ->
          try Pool.run_range pool ~lo:0 ~hi:1 (fun _ _ -> ())
          with Invalid_argument _ -> ignore (Atomic.fetch_and_add nested_ok 1));
      check_int "every chunk's nested call raised" 2 (Atomic.get nested_ok))

(* [map] and [run_range] install their batches through one step, so
   each refuses the other when nested, and the refused call leaves the
   running batch and the next one intact. *)
let test_map_range_nested_rejected () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let refused =
            Pool.map pool
              (fun x ->
                match Pool.run_range pool ~lo:0 ~hi:4 (fun _ _ -> ()) with
                | () -> -1
                | exception Invalid_argument _ -> x)
              [| 0; 1; 2; 3; 4 |]
          in
          Alcotest.(check (array int))
            (Printf.sprintf "run_range inside map raises (jobs=%d)" jobs)
            [| 0; 1; 2; 3; 4 |] refused;
          let nested_ok = Atomic.make 0 and covered = Atomic.make 0 in
          Pool.run_range pool ~lo:0 ~hi:30 (fun clo chi ->
              ignore (Atomic.fetch_and_add covered (chi - clo));
              try ignore (Pool.map pool succ [| 1; 2 |])
              with Invalid_argument _ -> Atomic.incr nested_ok);
          check_int
            (Printf.sprintf "map inside every chunk raises (jobs=%d)" jobs)
            jobs (Atomic.get nested_ok);
          check_int
            (Printf.sprintf "outer run_range completes (jobs=%d)" jobs)
            30 (Atomic.get covered);
          let sum = Atomic.make 0 in
          Pool.run_range pool ~lo:0 ~hi:30 (fun clo chi ->
              ignore (Atomic.fetch_and_add sum (chi - clo)));
          check_int
            (Printf.sprintf "clean run_range afterwards (jobs=%d)" jobs)
            30 (Atomic.get sum);
          Alcotest.(check (array int))
            (Printf.sprintf "clean map afterwards (jobs=%d)" jobs)
            [| 1; 2; 3 |]
            (Pool.map pool succ [| 0; 1; 2 |])))
    [ 2; 3 ]

let test_run_range_after_shutdown () =
  let pool = Pool.create ~jobs:2 () in
  Pool.shutdown pool;
  Alcotest.check_raises "run_range after shutdown"
    (Invalid_argument "Exec.Pool.run_range: pool was shut down") (fun () ->
      Pool.run_range pool ~lo:0 ~hi:4 (fun _ _ -> ()))

(* ------------------------------------------------------------------ *)
(* Cache *)

let tmp_dir = "exec_cache_test"

let fresh_cache () =
  let c = Cache.create ~dir:tmp_dir () in
  Cache.clear c;
  c

let some_key ?(solver = "s") () =
  Cache.key ~family:"fam" ~params:"alpha=1, ell=2" ~seed:11 ~solver ()

let test_cache_round_trip () =
  let c = fresh_cache () in
  let k = some_key () in
  check "cold find" true (Cache.find c k = None);
  (* Binary-hostile payload: newlines, NUL, quotes. *)
  let payload = "line1\nline2\x00\"quoted\"\r\ntail" in
  Cache.store c k payload;
  (match Cache.find c k with
  | Some got -> check_string "payload" payload got
  | None -> Alcotest.fail "expected a hit");
  let s = Cache.stats c in
  check_int "hits" 1 s.Cache.hits;
  check_int "misses" 1 s.Cache.misses;
  check_int "stores" 1 s.Cache.stores;
  check_int "bytes_written" (String.length payload) s.Cache.bytes_written;
  Cache.clear c

let test_cache_key_digest_stable () =
  (* Pinned digest: if this moves, every persisted cache silently
     invalidates — bump schema_version instead of changing key layout. *)
  let k =
    Cache.key ~family:"linear" ~params:"alpha=1, ell=4, t=3" ~seed:2020
      ~solver:"exact-mis" ()
  in
  check_string "canonical"
    "v1|family=linear|params=alpha=1, ell=4, t=3|seed=2020|solver=exact-mis|extra="
    (Cache.canonical k);
  check_string "digest" "54d5f946fd36143a0d6531d1312b6577" (Cache.digest_hex k)

let test_cache_distinct_keys () =
  let base = Cache.digest_hex (some_key ()) in
  check "solver varies digest" true
    (base <> Cache.digest_hex (some_key ~solver:"other" ()));
  check "extra varies digest" true
    (base
    <> Cache.digest_hex
         (Cache.key ~extra:"x" ~family:"fam" ~params:"alpha=1, ell=2" ~seed:11
            ~solver:"s" ()))

let entry_paths () =
  (* Every *.entry file under the two-level cache tree. *)
  Sys.readdir tmp_dir |> Array.to_list
  |> List.concat_map (fun shard ->
         let d = Filename.concat tmp_dir shard in
         if Sys.is_directory d then
           Sys.readdir d |> Array.to_list
           |> List.filter_map (fun f ->
                  if Filename.check_suffix f ".entry" then
                    Some (Filename.concat d f)
                  else None)
         else [])

let test_cache_corruption_is_a_miss () =
  let c = fresh_cache () in
  let k = some_key () in
  Cache.store c k "precious result";
  (* Flip payload bytes in place: digest check must reject the entry. *)
  (match entry_paths () with
  | [ path ] ->
      let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
      seek_out oc (out_channel_length oc - 3);
      output_string oc "XXX";
      close_out oc
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 entry, found %d" (List.length ps)));
  check "corrupt entry is a miss" true (Cache.find c k = None);
  check "errors counted" true ((Cache.stats c).Cache.errors > 0);
  (* memo recomputes and heals the entry. *)
  check_string "memo heals" "fresh" (Cache.memo c k (fun () -> "fresh"));
  check "healed" true (Cache.find c k = Some "fresh");
  Cache.clear c

let test_cache_truncation_is_a_miss () =
  let c = fresh_cache () in
  let k = some_key () in
  Cache.store c k (String.make 256 'z');
  (match entry_paths () with
  | [ path ] ->
      (* Chop the file mid-payload. *)
      let ic = open_in_bin path in
      let head = really_input_string ic 40 in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc head;
      close_out oc
  | _ -> Alcotest.fail "expected 1 entry");
  check "truncated entry is a miss" true (Cache.find c k = None);
  Cache.clear c

let test_cache_memo_value () =
  let c = fresh_cache () in
  let k = some_key () in
  let calls = ref 0 in
  let compute () = incr calls; 1234 in
  let encode = string_of_int and decode = int_of_string_opt in
  check_int "computed" 1234 (Cache.memo_value c k ~encode ~decode compute);
  check_int "cached" 1234 (Cache.memo_value c k ~encode ~decode compute);
  check_int "one compute" 1 !calls;
  (* A payload the decoder rejects counts as corrupt and recomputes. *)
  Cache.store c k "not-an-int";
  check_int "recomputed" 1234 (Cache.memo_value c k ~encode ~decode compute);
  check_int "two computes" 2 !calls;
  Cache.clear c

let test_cache_disabled () =
  let c = Cache.disabled () in
  check "disabled" true (not (Cache.enabled c));
  Cache.store c (some_key ()) "x";
  check "never hits" true (Cache.find c (some_key ()) = None);
  let s = Cache.stats c in
  check_int "no counters" 0 (s.Cache.hits + s.Cache.misses + s.Cache.stores)

let test_cache_parallel_memo () =
  (* Hammer one key from several domains: no crash, correct value. *)
  let c = fresh_cache () in
  let k = some_key () in
  let results =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun i -> Cache.memo c k (fun () -> string_of_int (1000 + (i * 0))))
          (Array.init 32 Fun.id))
  in
  check "all agree" true (Array.for_all (fun r -> r = "1000") results);
  Cache.clear c;
  check "clear removes dir" true (not (Sys.file_exists tmp_dir))

(* A sweep through Pool.map over a fresh cache directory: two parameter
   sets of four trials each, keyed per trial so that identical inputs
   still occupy distinct entries.  At jobs 1 and 2 the cold pass misses,
   stores and computes exactly once per trial, and the warm pass (a new
   handle on the same directory) hits every trial and computes nothing. *)
let test_cache_cold_warm_counters () =
  let dir = "exec_cache_probe_test" in
  let pass ~jobs =
    let c = Cache.create ~dir () in
    let computes = Atomic.make 0 in
    Pool.with_pool ~jobs (fun pool ->
        List.iter
          (fun t ->
            ignore
              (Pool.map pool
                 (fun i ->
                   let k =
                     Cache.key ~family:"probe" ~params:(Printf.sprintf "t=%d" t)
                       ~seed:i ~solver:"stand-in" ~extra:"same input" ()
                   in
                   Cache.memo_value c k ~encode:string_of_int
                     ~decode:int_of_string_opt (fun () ->
                       Atomic.incr computes;
                       t))
                 (Array.init 4 Fun.id)
                : int array))
          [ 2; 3 ]);
    (Cache.stats c, Atomic.get computes)
  in
  List.iter
    (fun jobs ->
      Cache.clear (Cache.create ~dir ());
      let what phase = Printf.sprintf "%s jobs=%d" phase jobs in
      let cold, cold_computes = pass ~jobs in
      check_int (what "cold misses") 8 cold.Cache.misses;
      check_int (what "cold stores") 8 cold.Cache.stores;
      check_int (what "cold computes") 8 cold_computes;
      let warm, warm_computes = pass ~jobs in
      check_int (what "warm hits") 8 warm.Cache.hits;
      check_int (what "warm misses") 0 warm.Cache.misses;
      check_int (what "warm computes") 0 warm_computes)
    [ 1; 2 ];
  Cache.clear (Cache.create ~dir ())

let test_cache_shard_mkdir_race () =
  (* Two writers racing to create the same shard directory: the loser's
     mkdir hits EEXIST, which must be swallowed, and neither store may
     be lost. *)
  let dir = "exec_cache_race_test" in
  let c0 = Cache.create ~dir () in
  Cache.clear c0;
  (* Distinct keys sharing a shard (first two digest hex chars), so
     both writers contend on one mkdir. *)
  let key_for seed = Cache.key ~family:"race" ~params:"p" ~seed ~solver:"s" () in
  let k0 = key_for 0 in
  let shard k = String.sub (Cache.digest_hex k) 0 2 in
  let k1 =
    let rec find seed =
      let k = key_for seed in
      if shard k = shard k0 then k else find (seed + 1)
    in
    find 1
  in
  (* Each "process" gets its own cache handle on the shared directory;
     a spin barrier lines the two mkdir+store sequences up. *)
  let barrier = Atomic.make 0 in
  let store k v () =
    let c = Cache.create ~dir () in
    Atomic.incr barrier;
    while Atomic.get barrier < 2 do
      Domain.cpu_relax ()
    done;
    Cache.store c k v
  in
  let d0 = Domain.spawn (store k0 "left") in
  let d1 = Domain.spawn (store k1 "right") in
  Domain.join d0;
  Domain.join d1;
  check "no lost store (left)" true (Cache.find c0 k0 = Some "left");
  check "no lost store (right)" true (Cache.find c0 k1 = Some "right");
  (* The exact interleaving, forced: the directory appears between the
     existence check and the mkdir, so mkdir itself reports EEXIST.
     mkdir_p must swallow it and the directory must exist. *)
  let racing_fs =
    {
      Stdx.Fsio.real with
      Stdx.Fsio.mkdir =
        (fun path ->
          Stdx.Fsio.real.Stdx.Fsio.mkdir path;
          raise (Sys_error (path ^ ": File exists")));
    }
  in
  let lost = Filename.concat dir "zz" in
  Cache.mkdir_p ~fs:racing_fs lost;
  check "raced mkdir_p still creates" true (Sys.is_directory lost);
  Cache.clear c0

(* ------------------------------------------------------------------ *)
(* Gadget instances for the budgeted exact solver *)

let gadget_instances () =
  (* >= 20 seeded gadget instances across both families and sides. *)
  let insts = ref [] in
  List.iter
    (fun (t, ell) ->
      let p = Maxis_core.Params.make ~alpha:1 ~ell ~players:t in
      List.iter
        (fun seed ->
          List.iter
            (fun intersecting ->
              let rng = Prng.create seed in
              let x =
                Commcx.Inputs.gen_promise rng
                  ~k:(Maxis_core.Params.k p)
                  ~t ~intersecting
              in
              let inst = Maxis_core.Linear_family.instance p x in
              insts := inst.Maxis_core.Family.graph :: !insts)
            [ true; false ])
        [ 1; 2; 3 ])
    [ (2, 4); (3, 4); (2, 6); (4, 3) ];
  List.rev !insts

(* ------------------------------------------------------------------ *)
(* Budgets: bit-identity under no/unlimited budget, certified intervals
   on exhaustion, determinism, deadline/cancellation plumbing *)

module Budget = Exec.Budget

let test_budget_unlimited_bit_identity () =
  (* The acceptance bar: with budget = infinity — either the [unlimited]
     sentinel or a finite budget object with huge caps — the budgeted
     solver must reproduce today's solver bit for bit (weight, witness,
     node count) on every gadget instance. *)
  let graphs = gadget_instances () in
  check "24 gadget instances" true (List.length graphs >= 24);
  let huge = Budget.create ~max_nodes:(max_int / 2) () in
  List.iteri
    (fun i g ->
      let seq = Mis.Exact.solve g in
      let same label = function
        | Mis.Exact.Exhausted _ ->
            Alcotest.failf "instance %d: %s exhausted under no budget" i label
        | Mis.Exact.Complete s ->
            check_int (Printf.sprintf "%s weight %d" label i) seq.Mis.Exact.weight
              s.Mis.Exact.weight;
            check
              (Printf.sprintf "%s witness %d" label i)
              true
              (Bitset.equal seq.Mis.Exact.set s.Mis.Exact.set);
            check_int
              (Printf.sprintf "%s nodes %d" label i)
              seq.Mis.Exact.nodes_explored s.Mis.Exact.nodes_explored
      in
      same "default" (Mis.Exact.solve_budgeted g);
      same "huge-finite" (Mis.Exact.solve_budgeted ~budget:huge g))
    graphs

let test_budget_exhaustion_certified_interval () =
  (* A starved solve must degrade to a certified interval on every gadget
     instance: lb from a valid incumbent independent set, ub from a root
     relaxation, with the true OPT inside. *)
  let graphs = gadget_instances () in
  check "24 gadget instances" true (List.length graphs >= 24);
  let tiny = Budget.create ~max_nodes:8 () in
  List.iteri
    (fun i g ->
      let opt = Mis.Exact.opt g in
      match Mis.Exact.solve_budgeted ~budget:tiny g with
      | Mis.Exact.Complete _ ->
          Alcotest.failf "instance %d solved within 8 nodes?" i
      | Mis.Exact.Exhausted e ->
          check (Printf.sprintf "reason %d" i) true (e.Mis.Exact.reason = Budget.Nodes);
          check
            (Printf.sprintf "lb <= OPT <= ub on %d" i)
            true
            (e.Mis.Exact.lb <= opt && opt <= e.Mis.Exact.ub);
          check
            (Printf.sprintf "witness certifies lb on %d" i)
            true
            (Mis.Verify.solution_ok g ~claimed_weight:e.Mis.Exact.lb
               e.Mis.Exact.witness);
          check
            (Printf.sprintf "spend within cap on %d" i)
            true
            (e.Mis.Exact.nodes_explored <= 9))
    graphs

let test_budget_deadline_and_cancel () =
  (* Deadline via an injected fake clock; the trip cancels the shared
     token so sibling searches stop too. *)
  let now = ref 0.0 in
  let b = Budget.create ~deadline_s:5.0 ~clock:(fun () -> !now) ~every:1 () in
  check "within deadline" true (Budget.check b ~nodes:1 = None);
  now := 6.0;
  check "deadline trips" true (Budget.check b ~nodes:2 = Some Budget.Deadline);
  check "trip cancels token" true (Budget.cancelled b);
  check "siblings see cancellation" true
    (Budget.check b ~nodes:3 = Some Budget.Cancelled);
  (* An explicitly cancelled budget stops a fresh solve promptly. *)
  let c = Budget.create ~max_nodes:1_000_000 ~every:1 () in
  Budget.cancel c;
  let g = Build.complete 6 in
  (match Mis.Exact.solve_budgeted ~budget:c g with
  | Mis.Exact.Exhausted e ->
      check "reason cancelled" true (e.Mis.Exact.reason = Budget.Cancelled);
      check "interval well-formed" true (e.Mis.Exact.lb <= e.Mis.Exact.ub)
  | Mis.Exact.Complete _ -> Alcotest.fail "cancelled budget completed")

let test_budget_split_and_fingerprint () =
  check_string "unlimited fingerprint" "" (Budget.fingerprint Budget.unlimited);
  check "finite fingerprints distinct" true
    (Budget.fingerprint (Budget.create ~max_nodes:5 ())
    <> Budget.fingerprint (Budget.create ~max_nodes:6 ()));
  check "deadline marks fingerprint" true
    (Budget.fingerprint (Budget.create ~max_nodes:5 ())
    <> Budget.fingerprint (Budget.create ~max_nodes:5 ~deadline_s:1.0 ()))

(* ------------------------------------------------------------------ *)
(* Journal: crash-safe completion records *)

module Journal = Exec.Journal

let jdir = "exec_journal_test"

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let jkey i =
  Cache.key ~family:"journal-test" ~params:"p" ~seed:i ~solver:"s" ()

let test_journal_round_trip () =
  rm_rf jdir;
  let j = Journal.open_ ~dir:jdir ~run_id:"t1" () in
  check "enabled" true (Journal.enabled j);
  check "cold" true (not (Journal.completed j (jkey 0)));
  Journal.record j (jkey 0);
  Journal.record j (jkey 1);
  Journal.record j (jkey 0) (* dedup *);
  check "completed" true (Journal.completed j (jkey 0));
  check_int "appended" 2 (Journal.appended_count j);
  check_int "resumed" 0 (Journal.resumed_count j);
  Journal.close j;
  (* Resume: both cells load back. *)
  let j2 = Journal.open_ ~dir:jdir ~run_id:"t1" () in
  check_int "resumed cells" 2 (Journal.resumed_count j2);
  check "cell 1 completed" true (Journal.completed j2 (jkey 1));
  Journal.close j2;
  (* resume:false restarts from scratch. *)
  let j3 = Journal.open_ ~dir:jdir ~resume:false ~run_id:"t1" () in
  check_int "truncated" 0 (Journal.resumed_count j3);
  check "cell gone" true (not (Journal.completed j3 (jkey 0)));
  Journal.close j3;
  rm_rf jdir

let test_journal_torn_tail_tolerated () =
  rm_rf jdir;
  let j = Journal.open_ ~dir:jdir ~run_id:"torn" () in
  Journal.record j (jkey 0);
  Journal.record j (jkey 1);
  Journal.close j;
  (* Simulate a crash mid-append: a half-written line with no digest. *)
  let path = Filename.concat jdir "torn.journal" in
  let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
  output_string oc "0123456789abcdef torn-mid-wri";
  close_out oc;
  let j2 = Journal.open_ ~dir:jdir ~run_id:"torn" () in
  check_int "good prefix trusted" 2 (Journal.resumed_count j2);
  check "cells intact" true
    (Journal.completed j2 (jkey 0) && Journal.completed j2 (jkey 1));
  (* The journal stays appendable after the tear. *)
  Journal.record j2 (jkey 2);
  check_int "appended after tear" 1 (Journal.appended_count j2);
  Journal.close j2;
  rm_rf jdir

let test_journal_memo_skips_resolves () =
  rm_rf jdir;
  let cache = fresh_cache () in
  let calls = ref 0 in
  let compute () =
    incr calls;
    "payload"
  in
  let j = Journal.open_ ~dir:jdir ~run_id:"memo" () in
  check_string "computed" "payload" (Journal.memo j cache (jkey 9) compute);
  check_string "cache answers" "payload" (Journal.memo j cache (jkey 9) compute);
  check_int "one compute" 1 !calls;
  check_int "skipped counts journaled hits" 1 (Journal.skipped_count j);
  Journal.close j;
  (* A resumed run re-materializes from the cache: zero re-solves. *)
  let j2 = Journal.open_ ~dir:jdir ~run_id:"memo" () in
  check_string "resumed" "payload" (Journal.memo j2 cache (jkey 9) compute);
  check_int "still one compute" 1 !calls;
  check_int "skipped on resume" 1 (Journal.skipped_count j2);
  Journal.close j2;
  (* Cache evicted meanwhile: the journaled cell merely recomputes. *)
  Cache.clear cache;
  let cache2 = fresh_cache () in
  let j3 = Journal.open_ ~dir:jdir ~run_id:"memo" () in
  check_string "recomputes" "payload" (Journal.memo j3 cache2 (jkey 9) compute);
  check_int "second compute" 2 !calls;
  Journal.close j3;
  Cache.clear cache2;
  rm_rf jdir

let test_journal_rejections () =
  rm_rf jdir;
  (try
     ignore (Journal.open_ ~dir:jdir ~run_id:"bad/id" ());
     Alcotest.fail "slash in run_id accepted"
   with Invalid_argument _ -> ());
  (* A file that is not a journal must raise Journal_io, not be eaten. *)
  Cache.mkdir_p jdir;
  let path = Filename.concat jdir "fake.journal" in
  let oc = open_out path in
  output_string oc "not a journal at all\n";
  close_out oc;
  (try
     ignore (Journal.open_ ~dir:jdir ~run_id:"fake" ());
     Alcotest.fail "bad header accepted"
   with Exec.Error.Error (Exec.Error.Journal_io _) -> ());
  rm_rf jdir

let test_journal_disabled () =
  let j = Journal.disabled () in
  check "disabled" true (not (Journal.enabled j));
  Journal.record j (jkey 0);
  check "records nothing" true (not (Journal.completed j (jkey 0)));
  let calls = ref 0 in
  let c = Cache.disabled () in
  ignore (Journal.memo j c (jkey 0) (fun () -> incr calls; "x"));
  ignore (Journal.memo j c (jkey 0) (fun () -> incr calls; "x"));
  check_int "computes each time (no cache, no journal)" 2 !calls;
  check_int "exit code SIGTERM" 143 (Journal.signal_exit_code Sys.sigterm);
  check_int "exit code SIGINT" 130 (Journal.signal_exit_code Sys.sigint)

(* ------------------------------------------------------------------ *)
(* Error taxonomy + bounded retry *)

let test_retry_transient_then_success () =
  let sleeps = ref [] in
  let tries = ref 0 in
  let v =
    Exec.Error.with_retries
      ~sleep:(fun d -> sleeps := d :: !sleeps)
      ~label:"test" (fun () ->
        incr tries;
        if !tries < 3 then raise (Sys_error "flaky") else 42)
  in
  check_int "value" 42 v;
  check_int "three tries" 3 !tries;
  (match List.rev !sleeps with
  | [ a; b ] -> check "exponential backoff" true (b = 2.0 *. a)
  | l -> Alcotest.failf "expected 2 sleeps, got %d" (List.length l))

let test_retry_nontransient_escapes_immediately () =
  let tries = ref 0 in
  (try
     ignore
       (Exec.Error.with_retries ~sleep:ignore ~label:"test" (fun () ->
            incr tries;
            invalid_arg "logic error"));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  check_int "no retry on logic errors" 1 !tries

let test_retry_exhaustion_reraises_last () =
  let tries = ref 0 in
  (try
     ignore
       (Exec.Error.with_retries ~attempts:4 ~sleep:ignore ~label:"test"
          (fun () ->
            incr tries;
            raise (Exec.Error.Error (Exec.Error.Cache_io "disk on fire"))));
     Alcotest.fail "expected Error"
   with Exec.Error.Error (Exec.Error.Cache_io m) ->
     check_string "original message" "disk on fire" m);
  check_int "all attempts consumed" 4 !tries;
  check "classification" true
    (Exec.Error.transient (Exec.Error.Error (Exec.Error.Worker_death "x"))
    && Exec.Error.transient End_of_file
    && not (Exec.Error.transient Exit))

let test_net_io_transient () =
  (* Net_io is in the transient class, so socket hiccups flow through
     the same bounded-retry policy as cache/journal I/O. *)
  let e = Exec.Error.Error (Exec.Error.Net_io "ECONNREFUSED") in
  check "transient" true (Exec.Error.transient e);
  check "message" true
    (Exec.Error.to_string (Exec.Error.Net_io "x") = "network I/O: x");
  let tries = ref 0 in
  let v =
    Exec.Error.with_retries ~sleep:ignore ~label:"net-test" (fun () ->
        incr tries;
        if !tries < 2 then raise e else "connected")
  in
  check_string "retried to success" "connected" v

(* ------------------------------------------------------------------ *)
(* Cache under concurrent readers/writers + injected filesystem faults *)

let test_cache_concurrent_faulty_same_key () =
  (* Many domains hammering one key through a fault-injecting
     filesystem: torn writes, bit flips, failed renames and ENOSPC must
     surface as misses (recompute) — never as wrong bytes, an
     exception, or a hang. *)
  let dir = "exec_cache_faulty_conc_test" in
  let injector =
    Exec.Fsio.injector
      (Exec.Fsio.plan
         ~default:
           (Exec.Fsio.op_fault ~eintr:0.08 ~enospc:0.06 ~torn:0.06 ~flip:0.05
              ~fail_rename:0.06 ())
         23)
  in
  let c = Cache.create ~fs:(Exec.Fsio.chaos injector) ~dir () in
  let k = some_key () in
  let results =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun _ -> Cache.memo c k (fun () -> "payload-42"))
          (Array.init 64 Fun.id))
  in
  check "one key, right bytes under faults" true
    (Array.for_all (fun r -> r = "payload-42") results);
  (* Interleaved writers on a small key set: every memo returns its own
     key's payload, concurrent stores to the same entry included. *)
  let key_of i =
    Cache.key ~family:"conc" ~params:(string_of_int (i mod 8)) ~seed:0
      ~solver:"s" ()
  in
  let results2 =
    Pool.with_pool ~jobs:4 (fun pool ->
        Pool.map pool
          (fun i -> Cache.memo c (key_of i) (fun () -> "v" ^ string_of_int (i mod 8)))
          (Array.init 64 Fun.id))
  in
  Array.iteri
    (fun i r ->
      if r <> "v" ^ string_of_int (i mod 8) then
        Alcotest.failf "wrong payload %S for slot %d" r i)
    results2;
  (* Whatever the faults left on disk, a clean handle still serves the
     same bytes (corrupt survivors are misses and recompute). *)
  let clean = Cache.create ~dir () in
  check_string "clean handle agrees" "payload-42"
    (Cache.memo clean k (fun () -> "payload-42"));
  check "faults were actually injected" true
    (Exec.Fsio.total_injected injector > 0);
  Cache.clear clean

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick
            test_pool_map_matches_sequential;
          Alcotest.test_case "order under skew" `Quick
            test_pool_map_order_under_skew;
          Alcotest.test_case "empty and singleton" `Quick
            test_pool_map_empty_and_singleton;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagation;
          Alcotest.test_case "nested map rejected" `Quick
            test_pool_nested_map_rejected;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "jobs=1 is a loop" `Quick
            test_pool_jobs_one_spawns_nothing;
          Alcotest.test_case "bad width rejected" `Quick
            test_pool_create_rejects_bad_width;
          Alcotest.test_case "MAXIS_JOBS parsing" `Quick
            test_pool_default_jobs_env;
          Alcotest.test_case "run_range matches a loop" `Quick
            test_run_range_matches_loop;
          Alcotest.test_case "run_range chunks cover the range" `Quick
            test_run_range_chunks_cover_range;
          Alcotest.test_case "run_range rejects hi < lo" `Quick
            test_run_range_rejects_reverse_range;
          Alcotest.test_case "run_range lowest-chunk exception" `Quick
            test_run_range_exception_lowest_chunk;
          Alcotest.test_case "run_range rapid back-to-back reuse" `Quick
            test_run_range_rapid_reuse;
          Alcotest.test_case "run_range nested batch rejected" `Quick
            test_run_range_nested_rejected;
          Alcotest.test_case "run_range after shutdown" `Quick
            test_run_range_after_shutdown;
          Alcotest.test_case "map and run_range refuse each other when nested"
            `Quick test_map_range_nested_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round trip" `Quick test_cache_round_trip;
          Alcotest.test_case "digest stability" `Quick
            test_cache_key_digest_stable;
          Alcotest.test_case "distinct keys" `Quick test_cache_distinct_keys;
          Alcotest.test_case "corruption is a miss" `Quick
            test_cache_corruption_is_a_miss;
          Alcotest.test_case "truncation is a miss" `Quick
            test_cache_truncation_is_a_miss;
          Alcotest.test_case "memo_value" `Quick test_cache_memo_value;
          Alcotest.test_case "disabled cache" `Quick test_cache_disabled;
          Alcotest.test_case "parallel memo" `Quick test_cache_parallel_memo;
          Alcotest.test_case "cold/warm counters at jobs 1, 2" `Quick
            test_cache_cold_warm_counters;
          Alcotest.test_case "shard mkdir race" `Quick
            test_cache_shard_mkdir_race;
          Alcotest.test_case "concurrent memo under fs faults" `Quick
            test_cache_concurrent_faulty_same_key;
        ] );
      ( "budget",
        [
          Alcotest.test_case "unlimited bit-identity" `Quick
            test_budget_unlimited_bit_identity;
          Alcotest.test_case "certified interval on exhaustion" `Quick
            test_budget_exhaustion_certified_interval;
          Alcotest.test_case "deadline and cancel" `Quick
            test_budget_deadline_and_cancel;
          Alcotest.test_case "split and fingerprint" `Quick
            test_budget_split_and_fingerprint;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round trip and resume" `Quick
            test_journal_round_trip;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_journal_torn_tail_tolerated;
          Alcotest.test_case "memo skips re-solves" `Quick
            test_journal_memo_skips_resolves;
          Alcotest.test_case "rejections" `Quick test_journal_rejections;
          Alcotest.test_case "disabled journal" `Quick test_journal_disabled;
        ] );
      ( "retries",
        [
          Alcotest.test_case "transient then success" `Quick
            test_retry_transient_then_success;
          Alcotest.test_case "non-transient escapes" `Quick
            test_retry_nontransient_escapes_immediately;
          Alcotest.test_case "exhaustion reraises" `Quick
            test_retry_exhaustion_reraises_last;
          Alcotest.test_case "Net_io is transient" `Quick test_net_io_transient;
        ] );
    ]
