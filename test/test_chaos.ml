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
   - a failed atomic publish keeps the old bytes and leaves no temp,
     even when its own cleanup is interrupted;
   - cache/journal on a faulty filesystem never return wrong values;
   - fsck quarantines every invalid entry, sweeps stray temps from the
     cache shards and the journal directory, a second pass is clean,
     and a rerun hits every surviving entry.

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

(* A scripted operation sequence on a faulty backend, logged op by op:
   the transcript, the fault breakdown and the fault total. *)
let fsio_episode ~dir plan ops =
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
  ops fs op;
  rm_rf dir;
  (Buffer.contents log, Fsio.faults_injected inj, Fsio.total_injected inj)

let replay_dir = "chaos_fsio_test"

let replay_plan =
  Fsio.plan
    ~default:
      (Fsio.op_fault ~eintr:0.2 ~enospc:0.15 ~torn:0.15 ~flip:0.15
         ~fail_rename:0.2 ())
    42

(* Writes, reads, one rename and appends over twelve files. *)
let replay_ops fs op =
  let path k = Filename.concat replay_dir (Printf.sprintf "f%02d" k) in
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
  done

let test_fsio_replay_deterministic () =
  (* Same plan + same operation sequence => byte-identical outcomes:
     the same ops fail with the same errors, torn/flipped bytes land
     identically, and the fault counters agree. *)
  let episode () = fsio_episode ~dir:replay_dir replay_plan replay_ops in
  let log1, faults1, total1 = episode () in
  let log2, faults2, total2 = episode () in
  check_string "identical op transcript" log1 log2;
  check "identical fault breakdown" true (faults1 = faults2);
  check_int "identical fault total" total1 total2;
  check "faults actually fired" true (total1 > 0)

(* One transcript line per op, as [fsio_episode] logs them. *)
let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

(* Recorded from the seed-42 [replay_ops] episode. *)
let pinned_replay_transcript =
  lines
    [
      "write 0: ok";
      "write 1: ok";
      "write 2: ok";
      "write 3: raised chaos_fsio_test/f03: No space left on device (injected)";
      "write 4: ok";
      "write 5: raised chaos_fsio_test/f05: No space left on device (injected)";
      "write 6: raised chaos_fsio_test/f06: Interrupted system call (injected)";
      "write 7: ok";
      "write 8: ok";
      "write 9: ok";
      "write 10: raised chaos_fsio_test/f10: No space left on device (injected)";
      "write 11: ok";
      "read 0: 22d42eb002cefa81e9ad604ea57bc01d";
      "read 1: raised chaos_fsio_test/f01: Interrupted system call (injected)";
      "read 2: ff49cfac3968dbce26ebe7d4823e58bd";
      "read 3: raised chaos_fsio_test/f03: Interrupted system call (injected)";
      "read 4: 40edae4bad0e5bf6d6c2dc5615a86afb";
      "read 5: 47bce5c74f589f4867dbd57e9ca9f808";
      "read 6: raised chaos_fsio_test/f06: No such file or directory";
      "read 7: raised chaos_fsio_test/f07: Interrupted system call (injected)";
      "read 8: b0f0545856af1a340acdedce23c54b97";
      "read 9: f7ce3d7d44f3342107d884bfa90c966a";
      "read 10: d57f21e6a273781dbf8b7657940f3b03";
      "read 11: 47bce5c74f589f4867dbd57e9ca9f808";
      "rename: ok";
      "append 1: raised chaos_fsio_test/f01: No space left on device (injected)";
      "append 2: raised chaos_fsio_test/f02: Interrupted system call (injected)";
      "append 3: ok";
      "append 4: ok";
    ]

let pinned_replay_faults = [ ("eintr", 5); ("enospc", 4); ("torn", 2) ]

(* Every op kind (mkdir, remove included) under a default plan and a
   first-match prefix override that is more specific than a later
   one. *)
let mixed_dir = "chaos_fsio_mixed"

let mixed_plan seed =
  let hot = Filename.concat mixed_dir "hot" in
  Fsio.plan
    ~default:(Fsio.op_fault ~eintr:0.1 ~enospc:0.1 ~torn:0.1 ~flip:0.1 ())
    ~overrides:
      [
        (hot, Fsio.op_fault ~eintr:0.3 ~torn:0.3 ~flip:0.4 ~fail_rename:0.5 ());
        (mixed_dir, Fsio.op_fault ~enospc:0.25 ~fail_rename:0.25 ());
      ]
    seed

let mixed_ops fs op =
  let cold k = Filename.concat mixed_dir (Printf.sprintf "c%d" k) in
  let hot k = Filename.concat mixed_dir (Printf.sprintf "hot%d" k) in
  let ok f () = f (); "ok" in
  let read p () = Digest.to_hex (Digest.string (fs.Stdx.Fsio.read_file p)) in
  op "mkdir sub" (ok (fun () -> fs.Stdx.Fsio.mkdir (Filename.concat mixed_dir "sub")));
  for k = 0 to 5 do
    op (Printf.sprintf "write cold %d" k)
      (ok (fun () -> fs.Stdx.Fsio.write_file (cold k) (String.make (8 + k) 'c')));
    op (Printf.sprintf "write hot %d" k)
      (ok (fun () -> fs.Stdx.Fsio.write_file (hot k) (String.make (30 + k) 'h')))
  done;
  for k = 0 to 5 do
    op (Printf.sprintf "read cold %d" k) (read (cold k));
    op (Printf.sprintf "read hot %d" k) (read (hot k))
  done;
  for k = 0 to 2 do
    op (Printf.sprintf "rename hot %d" k)
      (ok (fun () -> fs.Stdx.Fsio.rename (hot k) (cold (10 + k))));
    op (Printf.sprintf "append hot %d" (k + 3))
      (ok (fun () -> fs.Stdx.Fsio.append_line (hot (k + 3)) "line\n"));
    op (Printf.sprintf "remove cold %d" k) (ok (fun () -> fs.Stdx.Fsio.remove (cold k)))
  done;
  op "read empty" (ok (fun () ->
      fs.Stdx.Fsio.write_file (cold 20) "";
      ignore (fs.Stdx.Fsio.read_file (cold 20))))

(* [(seed, transcript, fault breakdown)] of [mixed_ops]. *)
let pinned_mixed =
  [
    ( 1,
      lines
        [
          "mkdir sub: ok";
          "write cold 0: ok";
          "write hot 0: ok";
          "write cold 1: raised chaos_fsio_mixed/c1: No space left on device (injected)";
          "write hot 1: ok";
          "write cold 2: raised chaos_fsio_mixed/c2: No space left on device (injected)";
          "write hot 2: ok";
          "write cold 3: ok";
          "write hot 3: raised chaos_fsio_mixed/hot3: Interrupted system call (injected)";
          "write cold 4: ok";
          "write hot 4: ok";
          "write cold 5: ok";
          "write hot 5: ok";
          "read cold 0: bee397acc400449ea3a35ed3fc87fea1";
          "read hot 0: raised chaos_fsio_mixed/hot0: Interrupted system call (injected)";
          "read cold 1: c1f68ec06b490b3ecb4066b1b13a9ee9";
          "read hot 1: raised chaos_fsio_mixed/hot1: Interrupted system call (injected)";
          "read cold 2: 9df62e693988eb4e1e1444ece0578579";
          "read hot 2: 50532f69eed02d623ec20e8cff328753";
          "read cold 3: 02d6b747c2ef7fce1188a8ead1b489c2";
          "read hot 3: raised chaos_fsio_mixed/hot3: No such file or directory";
          "read cold 4: 04f396ea90ac5f8578f8537dae595b95";
          "read hot 4: dc659f6f17c60fe86d9ef67d95ed12f7";
          "read cold 5: 8d74c534c15a4ba83c71100a10374075";
          "read hot 5: raised chaos_fsio_mixed/hot5: Interrupted system call (injected)";
          "rename hot 0: ok";
          "append hot 3: ok";
          "remove cold 0: ok";
          "rename hot 1: raised chaos_fsio_mixed/hot1: Interrupted system call (injected)";
          "append hot 4: ok";
          "remove cold 1: ok";
          "rename hot 2: raised chaos_fsio_mixed/hot2: rename failed (injected)";
          "append hot 5: ok";
          "remove cold 2: ok";
          "read empty: ok";
        ],
      [ ("eintr", 5); ("enospc", 2); ("torn", 1); ("flip", 1); ("rename", 1) ] );
    ( 42,
      lines
        [
          "mkdir sub: ok";
          "write cold 0: ok";
          "write hot 0: raised chaos_fsio_mixed/hot0: Interrupted system call (injected)";
          "write cold 1: raised chaos_fsio_mixed/c1: No space left on device (injected)";
          "write hot 1: ok";
          "write cold 2: raised chaos_fsio_mixed/c2: No space left on device (injected)";
          "write hot 2: raised chaos_fsio_mixed/hot2: Interrupted system call (injected)";
          "write cold 3: raised chaos_fsio_mixed/c3: No space left on device (injected)";
          "write hot 3: ok";
          "write cold 4: ok";
          "write hot 4: ok";
          "write cold 5: ok";
          "write hot 5: ok";
          "read cold 0: bee397acc400449ea3a35ed3fc87fea1";
          "read hot 0: raised chaos_fsio_mixed/hot0: No such file or directory";
          "read cold 1: bee397acc400449ea3a35ed3fc87fea1";
          "read hot 1: 0e5c0d77732dcb3df2816b9605ef41f7";
          "read cold 2: 4a8a08f09d37b73795649038408b5f33";
          "read hot 2: raised chaos_fsio_mixed/hot2: No such file or directory";
          "read cold 3: 67c762276bced09ee4df0ed537d164ea";
          "read hot 3: 58a40f041a4448d483ec20fba541a36c";
          "read cold 4: 04f396ea90ac5f8578f8537dae595b95";
          "read hot 4: bb8aa5a36d61cfd7c750f9e63e48fa6c";
          "read cold 5: 8d74c534c15a4ba83c71100a10374075";
          "read hot 5: raised chaos_fsio_mixed/hot5: Interrupted system call (injected)";
          "rename hot 0: raised chaos_fsio_mixed/hot0: Interrupted system call (injected)";
          "append hot 3: raised chaos_fsio_mixed/hot3: Interrupted system call (injected)";
          "remove cold 0: ok";
          "rename hot 1: ok";
          "append hot 4: ok";
          "remove cold 1: ok";
          "rename hot 2: raised chaos_fsio_mixed/hot2: Interrupted system call (injected)";
          "append hot 5: ok";
          "remove cold 2: ok";
          "read empty: ok";
        ],
      [ ("eintr", 6); ("enospc", 3); ("torn", 2); ("flip", 2) ] );
    ( 7919,
      lines
        [
          "mkdir sub: ok";
          "write cold 0: ok";
          "write hot 0: ok";
          "write cold 1: ok";
          "write hot 1: raised chaos_fsio_mixed/hot1: Interrupted system call (injected)";
          "write cold 2: ok";
          "write hot 2: ok";
          "write cold 3: ok";
          "write hot 3: raised chaos_fsio_mixed/hot3: Interrupted system call (injected)";
          "write cold 4: ok";
          "write hot 4: ok";
          "write cold 5: raised chaos_fsio_mixed/c5: No space left on device (injected)";
          "write hot 5: ok";
          "read cold 0: bee397acc400449ea3a35ed3fc87fea1";
          "read hot 0: 35f9c2133f5844a6a317d6d48e2270a7";
          "read cold 1: 0c744b578002c7fb9e70e25b48fa1682";
          "read hot 1: raised chaos_fsio_mixed/hot1: No such file or directory";
          "read cold 2: e9b3390206d8dfc5ffc9b09284c0bbde";
          "read hot 2: 50532f69eed02d623ec20e8cff328753";
          "read cold 3: 02d6b747c2ef7fce1188a8ead1b489c2";
          "read hot 3: raised chaos_fsio_mixed/hot3: No such file or directory";
          "read cold 4: 04f396ea90ac5f8578f8537dae595b95";
          "read hot 4: 5eab0d167f6c8df8b5947cfb9f706227";
          "read cold 5: 4a8a08f09d37b73795649038408b5f33";
          "read hot 5: raised chaos_fsio_mixed/hot5: Interrupted system call (injected)";
          "rename hot 0: ok";
          "append hot 3: ok";
          "remove cold 0: ok";
          "rename hot 1: raised No such file or directory";
          "append hot 4: ok";
          "remove cold 1: ok";
          "rename hot 2: raised chaos_fsio_mixed/hot2: Interrupted system call (injected)";
          "append hot 5: ok";
          "remove cold 2: ok";
          "read empty: ok";
        ],
      [ ("eintr", 4); ("enospc", 1) ] );
  ]

let test_fsio_pinned_streams () =
  (* Literal transcripts: the fault stream is a fixed function of the
     plan and the operation sequence, not just equal between two runs. *)
  let log, faults, total = fsio_episode ~dir:replay_dir replay_plan replay_ops in
  check_string "replay transcript" pinned_replay_transcript log;
  check "replay fault breakdown" true (faults = pinned_replay_faults);
  check_int "replay fault total"
    (List.fold_left (fun n (_, c) -> n + c) 0 pinned_replay_faults)
    total;
  List.iter
    (fun (seed, expected_log, expected_faults) ->
      let log, faults, _ = fsio_episode ~dir:mixed_dir (mixed_plan seed) mixed_ops in
      check_string (Printf.sprintf "mixed transcript, seed %d" seed) expected_log log;
      check (Printf.sprintf "mixed faults, seed %d" seed) true (faults = expected_faults))
    pinned_mixed

let test_fsio_op_fault_validation () =
  (* Every kind rejects values outside [0, 1] and NaN; the bounds pass. *)
  let kinds =
    [
      ("eintr", fun p -> Fsio.op_fault ~eintr:p ());
      ("enospc", fun p -> Fsio.op_fault ~enospc:p ());
      ("torn", fun p -> Fsio.op_fault ~torn:p ());
      ("flip", fun p -> Fsio.op_fault ~flip:p ());
      ("fail_rename", fun p -> Fsio.op_fault ~fail_rename:p ());
    ]
  in
  List.iter
    (fun (kind, mk) ->
      List.iter
        (fun p ->
          match mk p with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s=%g accepted" kind p)
        [ -0.1; 1.5; Float.nan; Float.infinity ];
      ignore (mk 0.0);
      ignore (mk 1.0))
    kinds

let test_fsio_chaos_metered () =
  (* [chaos] bumps fsio_faults_injected_total{kind} by exactly the
     injector's own breakdown. *)
  let kinds = [ "eintr"; "enospc"; "torn"; "flip"; "rename" ] in
  let metered () =
    List.map
      (fun k ->
        Obs.Metrics.value
          (Obs.Metrics.counter ~labels:[ ("kind", k) ] "fsio_faults_injected_total"))
      kinds
  in
  let before = metered () in
  let dir = "chaos_fsio_metered" in
  rm_rf dir;
  Stdx.Fsio.mkdir_p dir;
  let inj = Fsio.injector replay_plan in
  let fs = Fsio.chaos inj in
  let path k = Filename.concat dir (Printf.sprintf "m%02d" k) in
  for k = 0 to 15 do
    (try fs.Stdx.Fsio.write_file (path k) (String.make (10 + k) 'm') with Sys_error _ -> ());
    (try ignore (fs.Stdx.Fsio.read_file (path k)) with Sys_error _ -> ());
    try fs.Stdx.Fsio.rename (path k) (path (k + 100)) with Sys_error _ -> ()
  done;
  rm_rf dir;
  let delta = List.map2 (fun a b -> b - a) before (metered ()) in
  let injected = Fsio.faults_injected inj in
  check "faults fired" true (Fsio.total_injected inj > 0);
  List.iter2
    (fun k d ->
      check_int ("metered " ^ k) (Option.value ~default:0 (List.assoc_opt k injected)) d)
    kinds delta

let test_failed_publish_keeps_target () =
  (* A rename that always fails: the old bytes stay and no temp is
     left beside them, for every atomic publisher. *)
  let dir = "chaos_publish_test" in
  rm_rf dir;
  Stdx.Fsio.mkdir_p dir;
  let fs =
    Fsio.faulty
      (Fsio.injector (Fsio.plan ~default:(Fsio.op_fault ~fail_rename:1.0 ()) 5))
  in
  let read path = Stdx.Fsio.real.Stdx.Fsio.read_file path in
  let raises f = match f () with () -> false | exception Sys_error _ -> true in
  let table = Stdx.Tablefmt.create [ Stdx.Tablefmt.column "x" ] in
  Stdx.Tablefmt.add_row table [ "new" ];
  List.iter
    (fun (name, publish) ->
      let path = Filename.concat dir name in
      Stdx.Fsio.write_atomic path "old\n";
      check (name ^ ": failed rename raises") true (raises (fun () -> publish path));
      check_string (name ^ ": old bytes kept") "old\n" (read path))
    [
      ("export.jsonl", fun path -> Obs.Export.write ~fs path "new\n");
      ("table.csv", fun path -> Stdx.Tablefmt.write_csv ~fs table path);
      ("atomic.txt", fun path -> Stdx.Fsio.write_atomic ~fs path "new\n");
    ];
  check "no temp left" true
    (List.sort compare (Array.to_list (Sys.readdir dir))
    = [ "atomic.txt"; "export.jsonl"; "table.csv" ]);
  rm_rf dir

let test_failed_publish_cleans_temp () =
  (* Interrupted cleanups too: under [eintr] and [fail_rename], a failed
     publish removes its temp even when the first [remove] is itself
     interrupted, and the target always holds old or new bytes in full. *)
  let dir = "chaos_publish_temp_test" in
  rm_rf dir;
  Stdx.Fsio.mkdir_p dir;
  let fs =
    Fsio.faulty
      (Fsio.injector
         (Fsio.plan ~default:(Fsio.op_fault ~eintr:0.3 ~fail_rename:0.3 ()) 1212))
  in
  let read path = Stdx.Fsio.real.Stdx.Fsio.read_file path in
  let path = Filename.concat dir "target.txt" in
  Stdx.Fsio.write_atomic path "v0\n";
  let failed = ref 0 in
  for i = 1 to 200 do
    let before = read path in
    let next = Printf.sprintf "v%d\n" i in
    match Stdx.Fsio.write_atomic ~fs path next with
    | () -> check_string "published in full" next (read path)
    | exception Sys_error _ ->
        incr failed;
        check_string "old bytes kept" before (read path)
  done;
  check "some publishes failed" true (!failed > 0);
  check "no temp left" true (Sys.readdir dir = [| "target.txt" |]);
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

let test_fsck_sweeps_journal_temps () =
  (* A temp left in the journal directory by a failed publish (say, an
     interrupted [repair_journal]) is swept by one fsck pass; the journal
     beside it keeps every line. *)
  let root = "chaos_journal_temp_test" in
  rm_rf root;
  let journal_dir = Filename.concat root "journal" in
  let j = Journal.open_ ~dir:journal_dir ~run_id:"temp-test" () in
  for i = 0 to 3 do
    Journal.record j (key_for i)
  done;
  Journal.close j;
  let journals = Sys.readdir journal_dir in
  check_int "one journal" 1 (Array.length journals);
  let journal = Filename.concat journal_dir journals.(0) in
  let before = Stdx.Fsio.real.Stdx.Fsio.read_file journal in
  let temp_name = ".tmp-" ^ journals.(0) ^ "-4242-0" in
  check "planted name is a temp" true (Fsio.is_temp temp_name);
  Stdx.Fsio.real.Stdx.Fsio.write_file
    (Filename.concat journal_dir temp_name)
    "half a repaired journal";
  let report =
    Fsck.run ~cache_dir:(Filename.concat root "cache") ~journal_dir ()
  in
  (* The swept temp was in the journal directory, so the printed line
     must not count it inside the cache group. *)
  check_string "printed report"
    "cache: scanned=0 valid=0 quarantined=0 journal: files=1 lines_valid=4 \
     lines_dropped=0 tmp_removed=1"
    (String.map
       (fun c -> if c = '\n' then ' ' else c)
       (Format.asprintf "%a" Fsck.pp_report report));
  check "temp swept" false
    (Sys.file_exists (Filename.concat journal_dir temp_name));
  check_string "journal lines unchanged" before
    (Stdx.Fsio.real.Stdx.Fsio.read_file journal);
  rm_rf root

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
          Alcotest.test_case "pinned fault streams" `Quick
            test_fsio_pinned_streams;
          Alcotest.test_case "op_fault rejects non-probabilities" `Quick
            test_fsio_op_fault_validation;
          Alcotest.test_case "chaos meters every injection" `Quick
            test_fsio_chaos_metered;
          Alcotest.test_case "failed publish keeps the target" `Quick
            test_failed_publish_keeps_target;
          Alcotest.test_case "failed publish cleans its temp" `Quick
            test_failed_publish_cleans_temp;
        ] );
      ( "state",
        [
          Alcotest.test_case "cache+journal under faults, fsck repair" `Quick
            test_state_survives_faults_and_fsck;
          Alcotest.test_case "fsck sweeps journal-directory temps" `Quick
            test_fsck_sweeps_journal_temps;
        ] );
      ( "e2e",
        [
          Alcotest.test_case "combined chaos terminates identically" `Quick
            test_end_to_end_chaos;
        ] );
    ]
