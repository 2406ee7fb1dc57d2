(* Chaos harness: supervised pools under worker kills, seeded
   filesystem fault injection, and fsck repair — the unit-test side of
   the bench CHAOS leg (bench/exp_chaos.ml).

   Invariants exercised here:
   - a worker killed mid-batch yields [Pool.map] results byte-identical
     to [jobs = 1], and the pool heals to full width;
   - a poison task (kills every executor) is quarantined as
     [Error.Worker_death] with the identical message at every width;
   - a worker killed inside a [run_range] barrier raises the same
     [Error.Worker_death] at every width, and the same pool, healed,
     then runs a clean [run_flat] identical to the pool-less run;
   - the fault injector replays exactly: same plan + same operation
     sequence => same faults;
   - cache/journal on a faulty filesystem never return wrong values;
   - fsck quarantines every invalid entry, a second pass is clean, and
     a rerun hits every surviving entry.

   A [Unix.alarm] is armed in [main]: if any supervision bug hangs a
   batch, the suite dies with SIGALRM instead of blocking CI. *)

module Pool = Exec.Pool
module Cache = Exec.Cache
module Journal = Exec.Journal
module Fsck = Exec.Fsck
module Fsio = Exec.Fsio

let check msg = Alcotest.(check bool) msg

let check_string msg = Alcotest.(check string) msg

let check_int msg = Alcotest.(check int) msg

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

(* Tasks are nanosecond-cheap, so the calling domain would drain a
   whole batch before a worker even wakes from its condition wait.
   Tests that need a worker to claim a slot gate the caller-side tasks
   on [flag] (bounded, so nothing can deadlock): the caller lingers,
   the worker wakes and claims. *)
let await_flag flag =
  let deadline = Unix.gettimeofday () +. 0.2 in
  while (not (Atomic.get flag)) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done

(* ------------------------------------------------------------------ *)
(* Pool supervision *)

let test_kill_matches_jobs_one () =
  (* Slots 0, 5, 10, ... kill their first executor; the re-enqueued
     slots must be drained by survivors with results identical to the
     sequential pool (which retries the same kills in-line). *)
  let xs = Array.init 24 Fun.id in
  let killing_task attempts i =
    let a = Atomic.fetch_and_add attempts.(i) 1 in
    if i mod 5 = 0 && a = 0 then raise Pool.Chaos_kill;
    (i * i) + 1
  in
  let run jobs =
    let attempts = Array.map (fun _ -> Atomic.make 0) xs in
    Pool.with_pool ~jobs (fun pool -> Pool.map pool (killing_task attempts) xs)
  in
  let seq = run 1 in
  check "kills retried at jobs=1" true (seq = Array.map (fun i -> (i * i) + 1) xs);
  check "jobs=4 under kills = jobs=1" true (run 4 = seq);
  check "jobs=2 under kills = jobs=1" true (run 2 = seq)

let test_respawn_heals_pool () =
  (* Each slot's first execution kills its worker iff it runs on a
     worker domain (the caller absorbs kills without dying), so no slot
     can reach the poison limit.  After at least one genuine worker
     death, the next batch must respawn to full width. *)
  Pool.with_pool ~jobs:3 (fun pool ->
      let caller = Domain.self () in
      let died = Atomic.make false in
      let xs = Array.init 32 Fun.id in
      let expected = Array.map (fun i -> i + 100) xs in
      let tries = ref 0 in
      while (not (Atomic.get died)) && !tries < 50 do
        incr tries;
        let attempts = Array.map (fun _ -> Atomic.make 0) xs in
        let task i =
          let a = Atomic.fetch_and_add attempts.(i) 1 in
          if a = 0 && Domain.self () <> caller then begin
            Atomic.set died true;
            raise Pool.Chaos_kill
          end;
          await_flag died;
          i + 100
        in
        check "batch completes despite worker deaths" true
          (Pool.map pool task xs = expected)
      done;
      check "a worker death was provoked" true (Atomic.get died);
      (* The healing batch first respawns the dead workers. *)
      check "healed batch" true (Pool.map pool (fun i -> i + 100) xs = expected);
      check_int "healed to full width" 3 (Pool.live_workers pool);
      check "restarts counted" true (Pool.restarts pool >= 1))

let test_poison_identical_at_every_width () =
  (* A deterministic crasher must terminate the batch as the same
     quarantine error — same message — at jobs = 1 and jobs = 4, and
     must not eat the pool. *)
  let task i = if i = 2 then raise Pool.Chaos_kill else i in
  let poison_of pool =
    match Pool.map pool task [| 0; 1; 2; 3 |] with
    | _ -> None
    | exception Exec.Error.Error (Exec.Error.Worker_death msg) -> Some msg
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      let m4 = poison_of pool in
      let m1 = Pool.with_pool ~jobs:1 poison_of in
      check "quarantined at jobs=4" true (m4 <> None);
      check "quarantined at jobs=1" true (m1 <> None);
      check_string "identical poison message" (Option.get m1) (Option.get m4);
      (* The poisoned batch did not wedge or kill the pool. *)
      check "pool survives poison" true
        (Pool.map pool succ [| 1; 2; 3 |] = [| 2; 3; 4 |]))

(* ------------------------------------------------------------------ *)
(* Sharded flat executor under a worker kill mid-round *)

(* Wrap a flat program so [hook node round] runs before every node step
   — inside [Runtime.run_flat]'s sharded stage phase, which is where a
   real domain loss would land. *)
let before_step (fp : 'out Congest.Fastpath.t) hook =
  {
    fp with
    Congest.Fastpath.kernel =
      (fun shape ->
        let k = fp.Congest.Fastpath.kernel shape in
        {
          k with
          Congest.Fastpath.step =
            (fun ~v ~round inbox em ->
              hook (shape.Congest.Fastpath.base + v) round;
              k.Congest.Fastpath.step ~v ~round inbox em);
        });
  }

(* Node [at_node] kills its executing domain in round [at_round]. *)
let kill_wrap fp ~at_round ~at_node =
  before_step fp (fun v round ->
      if v = at_node && round = at_round then raise Pool.Chaos_kill)

let test_flat_par_kill_mid_round () =
  (* A worker killed mid-round must surface as the same structured
     [Worker_death] — same message, same trace left behind — at every
     width including jobs = 1, and the torn round must record no trace:
     what remains is exactly a clean run truncated at the last complete
     round. *)
  let rounds = 12 and at_round = 5 in
  let c = Wgraph.Csr.of_graph (Wgraph.Build.cycle 64) in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let outcome jobs =
    Pool.with_pool ~jobs (fun pool ->
        let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
        let fp =
          kill_wrap (Congest.Fastpath.max_id ~rounds) ~at_round ~at_node:3
        in
        match Congest.Runtime.run_flat ~config ~trace ~pool fp c with
        | _ -> Alcotest.fail "kill did not surface"
        | exception Exec.Error.Error (Exec.Error.Worker_death msg) ->
            (* [Trace.digest] mixes in the executed-round count, which a
               torn run never sets — compare the pure send-stream state
               instead. *)
            ( msg,
              Congest.Trace.total_messages trace,
              Congest.Trace.send_digest_state trace ))
  in
  let ((_, msgs, digest) as ref1) = outcome 1 in
  List.iter
    (fun jobs ->
      check (Printf.sprintf "jobs=%d outcome = jobs=1" jobs) true
        (outcome jobs = ref1))
    [ 2; 3; 8 ];
  let clean = Congest.Trace.create ~mode:Congest.Trace.Light () in
  let short =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = at_round }
  in
  ignore
    (Congest.Runtime.run_flat ~config:short ~trace:clean
       (Congest.Fastpath.max_id ~rounds) c);
  check "torn round recorded no messages" true
    (msgs = Congest.Trace.total_messages clean);
  check "torn round recorded no digest" true
    (digest = Congest.Trace.send_digest_state clean)

let test_flat_par_reuse_after_kill () =
  (* A barrier that lost a worker leaves the pool usable: the next
     [run_range] joins the dead domain and respawns it, and a clean run
     on the healed pool equals the pool-less run.  The caller's round-5
     step lingers (once per attempt) so that a worker claims a chunk;
     the first worker step of that round kills its domain. *)
  let rounds = 12 and at_round = 5 in
  let c = Wgraph.Csr.of_graph (Wgraph.Build.cycle 64) in
  let config =
    { Congest.Runtime.default_config with Congest.Runtime.max_rounds = rounds }
  in
  let run ?pool fp =
    let trace = Congest.Trace.create ~mode:Congest.Trace.Light () in
    let r = Congest.Runtime.run_flat ~config ~trace ?pool fp c in
    (r.Congest.Runtime.outputs, Congest.Trace.digest trace)
  in
  let reference = run (Congest.Fastpath.max_id ~rounds) in
  List.iter
    (fun jobs ->
      let name fmt = Printf.sprintf ("jobs=%d: " ^^ fmt) jobs in
      Pool.with_pool ~jobs (fun pool ->
          let caller = Domain.self () in
          let killed = Atomic.make false in
          let tries = ref 0 in
          while (not (Atomic.get killed)) && !tries < 50 do
            incr tries;
            let lingered = ref false in
            let fp =
              before_step (Congest.Fastpath.max_id ~rounds) (fun _ round ->
                  if round = at_round then
                    if Domain.self () = caller then begin
                      if not !lingered then begin
                        lingered := true;
                        await_flag killed
                      end
                    end
                    else if Atomic.compare_and_set killed false true then
                      raise Pool.Chaos_kill)
            in
            match run ~pool fp with
            | _ -> check (name "no kill, run completes") false (Atomic.get killed)
            | exception Exec.Error.Error (Exec.Error.Worker_death _) ->
                check (name "death surfaces only after a kill") true
                  (Atomic.get killed)
          done;
          check (name "a worker was killed") true (Atomic.get killed);
          check (name "clean rerun on the same pool = no pool") true
            (run ~pool (Congest.Fastpath.max_id ~rounds) = reference);
          check_int (name "healed to full width") jobs (Pool.live_workers pool);
          check (name "restarts counted") true (Pool.restarts pool >= 1));
      (* Reaching here means [with_pool]'s shutdown joined every
         domain, the respawned ones included. *))
    [ 2; 3; 8 ]

(* ------------------------------------------------------------------ *)
(* Fault injector replay *)

let test_fsio_replay_deterministic () =
  (* Same plan + same operation sequence => byte-identical outcomes:
     the same ops fail with the same errors, torn/flipped bytes land
     identically, and the fault counters agree. *)
  let dir = "chaos_fsio_test" in
  let plan =
    Fsio.plan
      ~default:
        (Fsio.op_fault ~eintr:0.2 ~enospc:0.15 ~torn:0.15 ~flip:0.15
           ~fail_rename:0.2 ())
      42
  in
  let episode () =
    rm_rf dir;
    Stdx.Fsio.mkdir_p dir;
    let inj = Fsio.injector plan in
    let fs = Fsio.faulty inj in
    let log = Buffer.create 512 in
    let op name f =
      match f () with
      | s -> Buffer.add_string log (Printf.sprintf "%s: %s\n" name s)
      | exception Sys_error m ->
          Buffer.add_string log (Printf.sprintf "%s: raised %s\n" name m)
    in
    let path k = Filename.concat dir (Printf.sprintf "f%02d" k) in
    for k = 0 to 11 do
      op
        (Printf.sprintf "write %d" k)
        (fun () ->
          fs.Stdx.Fsio.write_file (path k) (String.make (20 + k) 'a');
          "ok")
    done;
    for k = 0 to 11 do
      op
        (Printf.sprintf "read %d" k)
        (fun () -> Digest.to_hex (Digest.string (fs.Stdx.Fsio.read_file (path k))))
    done;
    op "rename" (fun () ->
        fs.Stdx.Fsio.rename (path 0) (path 0 ^ ".moved");
        "ok");
    for k = 1 to 4 do
      op
        (Printf.sprintf "append %d" k)
        (fun () ->
          fs.Stdx.Fsio.append_line (path k) "tail-line\n";
          "ok")
    done;
    (Buffer.contents log, Fsio.faults_injected inj, Fsio.total_injected inj)
  in
  let log1, faults1, total1 = episode () in
  let log2, faults2, total2 = episode () in
  check_string "identical op transcript" log1 log2;
  check "identical fault breakdown" true (faults1 = faults2);
  check_int "identical fault total" total1 total2;
  check "faults actually fired" true (total1 > 0);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Cache + journal under faults, repaired by fsck *)

let chaos_root = "chaos_state_test"

let chaos_cache_dir = Filename.concat chaos_root "cache"

let chaos_journal_dir = Filename.concat chaos_root "journal"

let key_for i =
  Cache.key ~family:"chaos-test"
    ~params:(Printf.sprintf "cell=%d" i)
    ~seed:i ~solver:"s" ()

let value_for i = Printf.sprintf "value-%d-%s" i (String.make 24 'v')

let entry_files dir =
  (* Every *.entry under the two-level tree, quarantine excluded. *)
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun shard ->
           let d = Filename.concat dir shard in
           if shard <> "quarantine" && Sys.is_directory d then
             Sys.readdir d |> Array.to_list |> List.sort compare
             |> List.filter_map (fun f ->
                    if Filename.check_suffix f ".entry" then
                      Some (Filename.concat d f)
                    else None)
           else [])

let test_state_survives_faults_and_fsck () =
  rm_rf chaos_root;
  let n = 12 in
  let plan =
    Fsio.plan
      ~default:
        (Fsio.op_fault ~eintr:0.08 ~enospc:0.06 ~torn:0.06 ~flip:0.05
           ~fail_rename:0.08 ())
      2020
  in
  let inj = Fsio.injector plan in
  let fs = Fsio.chaos inj in
  (* Hot-path contract under injected faults: memo never returns a
     wrong value, whatever the filesystem does underneath. *)
  let cache = Cache.create ~fs ~dir:chaos_cache_dir () in
  for i = 0 to n - 1 do
    for _ = 1 to 3 do
      check_string "memo value survives faults" (value_for i)
        (Cache.memo cache (key_for i) (fun () -> value_for i))
    done
  done;
  (* Journal on the same faulty filesystem; append failures surviving
     the retries are tolerated (completion tracking is an accelerator,
     not a correctness dependency). *)
  (match
     Journal.open_ ~fs ~dir:chaos_journal_dir ~run_id:"chaos-test" ()
   with
  | j ->
      for i = 0 to n - 1 do
        try Journal.record j (key_for i) with Exec.Error.Error _ -> ()
      done;
      Journal.close j
  | exception Exec.Error.Error _ -> ());
  (* fsck pass 1: every invalid entry — and only those — quarantined. *)
  let invalid_before =
    List.length
      (List.filter
         (fun p -> Result.is_error (Cache.validate_file p))
         (entry_files chaos_cache_dir))
  in
  let report1 = Fsck.run ~cache_dir:chaos_cache_dir ~journal_dir:chaos_journal_dir () in
  check_int "every invalid entry quarantined" invalid_before
    report1.Fsck.cache_quarantined;
  check "surviving entries all valid" true
    (List.for_all
       (fun p -> Result.is_ok (Cache.validate_file p))
       (entry_files chaos_cache_dir));
  (* Pass 2: idempotent, nothing left to repair. *)
  let report2 = Fsck.run ~cache_dir:chaos_cache_dir ~journal_dir:chaos_journal_dir () in
  check "second fsck pass clean" true (Fsck.clean report2);
  (* Rerun on a clean filesystem: every surviving entry is a hit for
     its key, and missing ones heal by recomputation. *)
  let clean_cache = Cache.create ~dir:chaos_cache_dir () in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    let digest = Cache.digest_hex (key_for i) in
    let p =
      Filename.concat
        (Filename.concat chaos_cache_dir (String.sub digest 0 2))
        (digest ^ ".entry")
    in
    if Sys.file_exists p then begin
      incr hits;
      match Cache.find clean_cache (key_for i) with
      | Some v -> check_string "surviving entry hits" (value_for i) v
      | None -> Alcotest.fail ("surviving entry missed: " ^ p)
    end
    else
      check_string "quarantined entry heals" (value_for i)
        (Cache.memo clean_cache (key_for i) (fun () -> value_for i))
  done;
  check "some entries survived the chaos" true (!hits > 0);
  (* The repaired journal resumes cleanly and only ever marks our own
     keys complete. *)
  (match
     Journal.open_ ~dir:chaos_journal_dir ~run_id:"chaos-test" ()
   with
  | j ->
      let completed = ref 0 in
      for i = 0 to n - 1 do
        if Journal.completed j (key_for i) then incr completed
      done;
      check_int "resumed = completed among our keys" (Journal.resumed_count j)
        !completed;
      Journal.close j
  | exception Exec.Error.Error _ -> Alcotest.fail "repaired journal must open");
  rm_rf chaos_root

(* ------------------------------------------------------------------ *)
(* End-to-end: combined chaos *)

let e2e_root = "chaos_e2e_test"

let test_end_to_end_chaos () =
  (* Worker kills and filesystem faults at once, pinned seeds: the
     sweep must terminate (alarm guard in [main]) with rows
     byte-identical to the clean sequential reference, and an
     fsck-repaired rerun must reproduce them again. *)
  rm_rf e2e_root;
  let cache_dir = Filename.concat e2e_root "cache" in
  let n = 16 in
  let cell i = Printf.sprintf "cell %d: %d" i ((i * 7919) mod 1009) in
  let reference = Array.init n cell in
  let plan =
    Fsio.plan
      ~default:
        (Fsio.op_fault ~eintr:0.05 ~enospc:0.04 ~torn:0.04 ~flip:0.03
           ~fail_rename:0.04 ())
      77
  in
  let inj = Fsio.injector plan in
  let cache = Cache.create ~fs:(Fsio.chaos inj) ~dir:cache_dir () in
  let rows =
    Pool.with_pool ~jobs:3 (fun pool ->
        let attempts = Array.init n (fun _ -> Atomic.make 0) in
        Pool.map pool
          (fun i ->
            let a = Atomic.fetch_and_add attempts.(i) 1 in
            if i mod 4 = 0 && a = 0 then raise Pool.Chaos_kill;
            Cache.memo cache (key_for i) (fun () -> cell i))
          (Array.init n Fun.id))
  in
  check "chaos rows = clean reference" true (rows = reference);
  ignore (Fsck.run ~cache_dir ~journal_dir:(Filename.concat e2e_root "none") ());
  let repaired = Cache.create ~dir:cache_dir () in
  let rows' =
    Array.init n (fun i -> Cache.memo repaired (key_for i) (fun () -> cell i))
  in
  check "repaired rerun rows identical" true (rows' = reference);
  rm_rf e2e_root

(* ------------------------------------------------------------------ *)

let () =
  (* A supervision bug must fail CI, not block it. *)
  ignore (Unix.alarm 600);
  Alcotest.run "chaos"
    [
      ( "pool",
        [
          Alcotest.test_case "kill mid-batch = jobs=1" `Quick
            test_kill_matches_jobs_one;
          Alcotest.test_case "respawn heals pool" `Quick
            test_respawn_heals_pool;
          Alcotest.test_case "poison identical at every width" `Quick
            test_poison_identical_at_every_width;
          Alcotest.test_case "flat-par kill mid-round" `Quick
            test_flat_par_kill_mid_round;
          Alcotest.test_case "flat-par pool reused after a kill" `Quick
            test_flat_par_reuse_after_kill;
        ] );
      ( "fsio",
        [
          Alcotest.test_case "replay determinism" `Quick
            test_fsio_replay_deterministic;
        ] );
      ( "state",
        [
          Alcotest.test_case "cache+journal under faults, fsck repair" `Quick
            test_state_survives_faults_and_fsck;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "combined chaos terminates identically" `Quick
            test_end_to_end_chaos;
        ] );
    ]
