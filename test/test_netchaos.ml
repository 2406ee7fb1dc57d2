(* Network chaos: Stdx.Netio plan/injector semantics (validation, replay
   determinism, short-read/torn-write bounds), the client's clean-EOF vs
   torn-mid-frame distinction, connection-lifecycle hardening in the
   daemon (slow-loris, read-deadline and idle eviction, max_conns
   shedding, slow-writer eviction under injected write stalls), fault
   and fault absorption by a chaos client against a live daemon. *)

module J = Stdx.Jsonx
module Netio = Stdx.Netio
module Proto = Serve.Proto
module Client = Serve.Client
module Daemon = Serve.Daemon

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "maxis-netchaos-test-%d-%d.sock" (Unix.getpid ()) !n)

(* Injected EPIPE/reset on raw test sockets must cost an exception, not
   the test process. *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ()

let counter_value name reason =
  Obs.Metrics.value
    (Obs.Metrics.counter ~labels:[ ("reason", reason) ] name)

let evictions reason = counter_value "serve_evictions_total" reason

(* ------------------------------------------------------------------ *)
(* Stdx.Netio: plans and injectors *)

let test_op_fault_validation () =
  let bad f = match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "probability out of [0,1] accepted"
  in
  bad (fun () -> Netio.op_fault ~eintr:1.5 ());
  bad (fun () -> Netio.op_fault ~short_read:(-0.1) ());
  bad (fun () -> Netio.op_fault ~stall:Float.nan ());
  ignore (Netio.op_fault ~eintr:0.0 ~torn_write:1.0 ())

(* Run a scripted read sequence — all bytes pre-written, writer closed,
   so the op sequence is a pure function of the fault stream, which is a
   pure function of the seed.  Returns (fault kinds in order, bytes
   reassembled). *)
let scripted_read_episode seed =
  let payload = String.init 257 (fun i -> Char.chr (i mod 251)) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec write_all off =
    if off < String.length payload then
      write_all (off + Unix.write_substring a payload off (String.length payload - off))
  in
  write_all 0;
  Unix.close a;
  let plan =
    Netio.plan
      ~overrides:
        [ ("read", Netio.op_fault ~eintr:0.2 ~stall:0.1 ~short_read:0.6 ()) ]
      seed
  in
  let inj = Netio.injector plan in
  let faults = ref [] in
  let net = Netio.faulty ~on_fault:(fun k -> faults := k :: !faults) inj in
  let buf = Bytes.create 64 in
  let out = Buffer.create 257 in
  let eof = ref false in
  while not !eof do
    match net.Netio.read b buf 0 (Bytes.length buf) with
    | 0 -> eof := true
    | n -> Buffer.add_subbytes out buf 0 n
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()  (* absorbed; the bytes are still buffered in the kernel *)
  done;
  Unix.close b;
  (List.rev !faults, Buffer.contents out, Netio.faults_injected inj)

let test_replay_determinism () =
  let f1, bytes1, counts1 = scripted_read_episode 42 in
  let f2, bytes2, counts2 = scripted_read_episode 42 in
  let f3, _, _ = scripted_read_episode 43 in
  check "same seed, same fault sequence" true (f1 = f2);
  check "same seed, same fault counts" true (counts1 = counts2);
  check "faults actually fired" true (f1 <> []);
  check "different seed, different fault sequence" true (f1 <> f3);
  let payload = String.init 257 (fun i -> Char.chr (i mod 251)) in
  check_string "reassembly survives faults" payload bytes1;
  check_string "reassembly survives faults (replay)" payload bytes2

(* The write-side twin: torn writes and stalls on a socketpair whose
   buffer holds the whole payload, written at most 40 bytes per call,
   so every write's outcome depends only on the fault stream.  Returns (fault kinds in order, each
   write's outcome, the injector's breakdown). *)
let scripted_write_episode seed =
  let payload = String.init 300 (fun i -> Char.chr (i mod 253)) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let plan =
    Netio.plan
      ~overrides:
        [ ("write", Netio.op_fault ~eintr:0.1 ~stall:0.2 ~torn_write:0.5 ()) ]
      seed
  in
  let inj = Netio.injector plan in
  let faults = ref [] in
  let net = Netio.faulty ~on_fault:(fun k -> faults := k :: !faults) inj in
  let outcomes = ref [] in
  let rec write_all off =
    if off < String.length payload then
      match net.Netio.write a payload off (min 40 (String.length payload - off)) with
      | w ->
          outcomes := string_of_int w :: !outcomes;
          write_all (off + w)
      | exception Unix.Unix_error (e, _, _) ->
          outcomes := Unix.error_message e :: !outcomes;
          write_all off
  in
  write_all 0;
  Unix.close a;
  let buf = Bytes.create 512 in
  let out = Buffer.create 300 in
  let rec drain () =
    match Unix.read b buf 0 (Bytes.length buf) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out buf 0 n;
        drain ()
  in
  drain ();
  Unix.close b;
  check_string "write episode transfer intact" payload (Buffer.contents out);
  (List.rev !faults, List.rev !outcomes, Netio.faults_injected inj)

let test_pinned_streams () =
  (* Literal fault streams recorded for seed 42: replay is a fixed
     function of the seed and the op sequence, not just equal between
     two runs. *)
  let faults, _, counts = scripted_read_episode 42 in
  check "read kinds in order" true
    (faults
    = [ "short_read"; "short_read"; "stall"; "eintr"; "short_read"; "short_read";
        "stall"; "eintr"; "short_read"; "short_read"; "short_read" ]);
  check "read breakdown" true
    (counts = [ ("eintr", 2); ("short_read", 7); ("stall", 2) ]);
  let faults, outcomes, counts = scripted_write_episode 42 in
  check "write kinds in order" true
    (faults
    = [ "stall"; "torn_write"; "stall"; "eintr"; "torn_write"; "stall";
        "torn_write"; "torn_write"; "torn_write"; "torn_write"; "stall" ]);
  let stall = "Resource temporarily unavailable" in
  check "write outcomes" true
    (outcomes
    = [ stall; "37"; "40"; stall; "Interrupted system call"; "40"; "17"; stall;
        "36"; "4"; "20"; "8"; "40"; "40"; stall; "18" ]);
  check "write breakdown" true
    (counts = [ ("eintr", 1); ("torn_write", 6); ("stall", 4) ])

let test_chaos_metered () =
  (* [Serve.Netio.chaos] bumps netio_faults_injected_total{kind} by
     exactly the injector's own breakdown. *)
  let kinds = [ "eintr"; "refuse"; "reset"; "short_read"; "torn_write"; "stall" ] in
  let metered () =
    List.map
      (fun k ->
        Obs.Metrics.value
          (Obs.Metrics.counter ~labels:[ ("kind", k) ] "netio_faults_injected_total"))
      kinds
  in
  let before = metered () in
  let inj =
    Netio.injector
      (Netio.plan
         ~default:(Netio.op_fault ~eintr:0.2 ~stall:0.2 ~short_read:0.4 ~torn_write:0.4 ())
         9)
  in
  let net = Serve.Netio.chaos inj in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = String.make 200 'n' in
  let rec write_all off =
    if off < String.length payload then
      match net.Netio.write a payload off (String.length payload - off) with
      | w -> write_all (off + w)
      | exception Unix.Unix_error _ -> write_all off
  in
  write_all 0;
  Unix.close a;
  let buf = Bytes.create 32 in
  let rec drain () =
    match net.Netio.read b buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> drain ()
    | exception Unix.Unix_error _ -> drain ()
  in
  drain ();
  Unix.close b;
  let delta = List.map2 (fun x y -> y - x) before (metered ()) in
  let injected = Netio.faults_injected inj in
  check "faults fired" true (Netio.total_injected inj > 0);
  List.iter2
    (fun k d ->
      check_int ("metered " ^ k) (Option.value ~default:0 (List.assoc_opt k injected)) d)
    kinds delta

let test_short_and_torn_bounds () =
  (* With certainty-1 truncation every op still makes >= 1 byte of
     progress, so loops terminate and the transfer completes intact. *)
  let payload = String.init 300 (fun i -> Char.chr (255 - (i mod 256))) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let inj =
    Netio.injector
      (Netio.plan
         ~overrides:
           [
             ("write", Netio.op_fault ~torn_write:1.0 ());
             ("read", Netio.op_fault ~short_read:1.0 ());
           ]
         7)
  in
  let net = Netio.faulty inj in
  let writes = ref 0 in
  let rec write_all off =
    if off < String.length payload then begin
      let w = net.Netio.write a payload off (String.length payload - off) in
      incr writes;
      check "torn write still progresses" true (w >= 1);
      write_all (off + w)
    end
  in
  write_all 0;
  Unix.close a;
  check "writes were torn" true (!writes > 1);
  let buf = Bytes.create 64 in
  let out = Buffer.create 300 in
  let eof = ref false in
  while not !eof do
    match net.Netio.read b buf 0 (Bytes.length buf) with
    | 0 -> eof := true
    | n ->
        check "short read in bounds" true (n >= 1 && n <= Bytes.length buf);
        Buffer.add_subbytes out buf 0 n
  done;
  Unix.close b;
  check_string "transfer intact" payload (Buffer.contents out);
  check_int "torn_write metered" !writes
    (match List.assoc_opt "torn_write" (Netio.faults_injected inj) with
    | Some c -> c
    | None -> 0)

(* ------------------------------------------------------------------ *)
(* Client: clean EOF vs torn mid-frame (raw in-test server) *)

let with_raw_server body f =
  (* A listening socket whose "daemon" is the [body] callback on the
     accepted fd — for scripting disconnects the real daemon never
     produces. *)
  let sock = fresh_sock () in
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX sock);
  Unix.listen srv 8;
  let t =
    Domain.spawn (fun () ->
        let fd, _ = Unix.accept srv in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> body fd))
  in
  Fun.protect
    ~finally:(fun () ->
      Domain.join t;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Sys.remove sock with Sys_error _ -> ())
    (fun () -> f (Proto.Unix_sock sock))

let net_io_message f =
  match f () with
  | _ -> Alcotest.fail "expected Net_io"
  | exception Exec.Error.Error (Exec.Error.Net_io m) -> m

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_clean_eof_message () =
  with_raw_server
    (fun _fd -> ())  (* accept, say nothing, close: a frame boundary *)
    (fun addr ->
      let c = Client.connect addr in
      let m = net_io_message (fun () -> Client.recv c) in
      check ("clean eof message: " ^ m) true (contains ~needle:"clean eof" m);
      Client.close c)

let test_torn_mid_frame_message () =
  with_raw_server
    (fun fd ->
      (* half a reply line, no newline, then vanish *)
      let s = {|{"id":1,"op":"pi|} in
      ignore (Unix.write_substring fd s 0 (String.length s)))
    (fun addr ->
      let c = Client.connect addr in
      let m = net_io_message (fun () -> Client.recv c) in
      check
        ("torn message: " ^ m)
        true
        (contains ~needle:"torn mid-frame" m);
      check "not labeled clean" false (contains ~needle:"clean eof" m);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle hardening *)

let with_daemon ?(configure = Fun.id) f =
  let sock = fresh_sock () in
  let cfg =
    configure
      {
        (Daemon.default_config ~listen:(Proto.Unix_sock sock) ()) with
        Daemon.tick_s = 0.01;
      }
  in
  let d = Daemon.create cfg in
  let h = Domain.spawn (fun () -> Daemon.run d) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Domain.join h)
    (fun () -> f (Proto.Unix_sock sock) d)

let test_slow_loris_is_served () =
  (* One byte per tick is slow but *progressing*: the read deadline is
     per-byte-of-progress, so the request must complete and be answered. *)
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.read_deadline_s = 1.0 })
    (fun addr _d ->
      let c = Client.connect addr in
      let line = Proto.encode_request (Proto.ping ~id:(J.Int 77) ()) ^ "\n" in
      String.iter
        (fun ch ->
          Client.send_bytes c (String.make 1 ch);
          Unix.sleepf 0.005)
        line;
      let r = Client.recv c in
      check_string "slow-loris request answered" "ok" (Proto.reply_status r);
      check "id echoed" true (Proto.reply_id r = J.Int 77);
      Client.close c)

let test_stalled_partial_line_evicted () =
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.read_deadline_s = 0.15 })
    (fun addr _d ->
      let before = evictions "idle" in
      let c = Client.connect addr in
      Client.send_bytes c {|{"op":"pi|};  (* partial line, then silence *)
      (* The eviction courtesy line is a structured error; after it, EOF. *)
      (match Client.recv c with
      | r ->
          check_string "courtesy reply is an error" "error" (Proto.reply_status r);
          check "reason mentions eviction" true
            (contains ~needle:"evicted"
               (Option.value (Proto.reply_reason r) ~default:""))
      | exception Exec.Error.Error (Exec.Error.Net_io _) -> ());
      check "idle eviction counted" true (evictions "idle" > before);
      Client.close c)

let test_idle_connection_evicted () =
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.idle_timeout_s = 0.15 })
    (fun addr _d ->
      let before = evictions "idle" in
      let c = Client.connect addr in
      (* no bytes at all; nothing owed either way *)
      (match Client.recv c with
      | _ -> ()
      | exception Exec.Error.Error (Exec.Error.Net_io _) -> ());
      check "idle eviction counted" true (evictions "idle" > before);
      Client.close c)

let test_max_conns_shed () =
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.max_conns = 2 })
    (fun addr _d ->
      let before = evictions "capacity" in
      let c1 = Client.connect addr in
      let c2 = Client.connect addr in
      (* both held connections must be live before the third arrives *)
      check_string "c1 live" "ok" (Proto.reply_status (Client.request c1 (Proto.ping ())));
      check_string "c2 live" "ok" (Proto.reply_status (Client.request c2 (Proto.ping ())));
      let c3 = Client.connect addr in
      (* shedding is structured: an error line, then close — not silence *)
      let r = Client.recv c3 in
      check_string "shed reply is an error" "error" (Proto.reply_status r);
      check "reason names capacity" true
        (contains ~needle:"capacity"
           (Option.value (Proto.reply_reason r) ~default:""));
      check "capacity eviction counted" true (evictions "capacity" > before);
      (* the held connections are unharmed *)
      check_string "c1 survives the flood" "ok"
        (Proto.reply_status (Client.request c1 (Proto.ping ())));
      Client.close c1;
      Client.close c2;
      Client.close c3)

let test_slow_writer_evicted () =
  (* Injected certainty-1 write stalls on the daemon side: replies queue
     but never flush, so the slow-writer watchdog must evict. *)
  let inj =
    Serve.Netio.injector
      (Serve.Netio.plan
         ~overrides:[ ("write", Serve.Netio.op_fault ~stall:1.0 ()) ]
         5)
  in
  with_daemon
    ~configure:(fun cfg ->
      {
        cfg with
        Daemon.netio = Serve.Netio.chaos inj;
        write_deadline_s = 0.15;
        drain_deadline_s = 0.1;
      })
    (fun addr _d ->
      let before = evictions "slow-writer" in
      let c = Client.connect addr in
      Client.send c (Proto.ping ());
      (match Client.recv c with
      | _ -> Alcotest.fail "reply flushed through a stalled writer"
      | exception Exec.Error.Error (Exec.Error.Net_io _) -> ());
      check "slow-writer eviction counted" true
        (evictions "slow-writer" > before);
      check "stalls were injected" true (Serve.Netio.total_injected inj > 0);
      Client.close c)

(* ------------------------------------------------------------------ *)
(* Fault absorption: a chaos client against a live daemon *)

let solve_sp =
  {
    Proto.solve_defaults with
    Proto.ell = 3;
    players = 2;
    seed = 11;
    budget_nodes = Some 200_000;
  }

let test_client_absorbs_faults () =
  with_daemon (fun addr _d ->
      (* reference payloads over a clean connection *)
      let clean = Client.connect addr in
      let reference =
        List.init 6 (fun i ->
            let req =
              if i mod 2 = 0 then Proto.ping ~id:(J.Int i) ()
              else Proto.solve ~id:(J.Int i) solve_sp
            in
            Option.value
              (Proto.reply_payload (Client.request clean req))
              ~default:"")
      in
      Client.close clean;
      (* faults scoped to the stream ops: connect stays clean so the
         dial retry budget is not what this test exercises *)
      let inj =
        Serve.Netio.injector
          (Serve.Netio.plan
             ~overrides:
               [
                 ("read", Serve.Netio.op_fault ~eintr:0.3 ~stall:0.2 ~short_read:0.4 ());
                 ("write", Serve.Netio.op_fault ~eintr:0.3 ~stall:0.2 ~torn_write:0.4 ());
               ]
             2024)
      in
      let c = Client.connect ~netio:(Serve.Netio.chaos inj) addr in
      let chaotic =
        List.init 6 (fun i ->
            let req =
              if i mod 2 = 0 then Proto.ping ~id:(J.Int i) ()
              else Proto.solve ~id:(J.Int i) solve_sp
            in
            let r = Client.request c req in
            check_string "chaos request ok" "ok" (Proto.reply_status r);
            Option.value (Proto.reply_payload r) ~default:"")
      in
      Client.close c;
      check "payload parity under faults" true (chaotic = reference);
      check "faults were injected" true (Serve.Netio.total_injected inj > 0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "netchaos"
    [
      ( "netio",
        [
          Alcotest.test_case "probability validation" `Quick
            test_op_fault_validation;
          Alcotest.test_case "seeded replay determinism" `Quick
            test_replay_determinism;
          Alcotest.test_case "pinned fault streams" `Quick test_pinned_streams;
          Alcotest.test_case "chaos meters every injection" `Quick
            test_chaos_metered;
          Alcotest.test_case "short/torn bounds + intact transfer" `Quick
            test_short_and_torn_bounds;
        ] );
      ( "client",
        [
          Alcotest.test_case "clean eof message" `Quick test_clean_eof_message;
          Alcotest.test_case "torn mid-frame message" `Quick
            test_torn_mid_frame_message;
          Alcotest.test_case "absorbs injected faults, parity kept" `Quick
            test_client_absorbs_faults;
        ] );
      ( "lifecycle",
        [
          Alcotest.test_case "slow-loris served" `Quick test_slow_loris_is_served;
          Alcotest.test_case "stalled partial line evicted" `Quick
            test_stalled_partial_line_evicted;
          Alcotest.test_case "idle connection evicted" `Quick
            test_idle_connection_evicted;
          Alcotest.test_case "max_conns shed structurally" `Quick
            test_max_conns_shed;
          Alcotest.test_case "slow writer evicted" `Quick
            test_slow_writer_evicted;
        ] );
    ]
