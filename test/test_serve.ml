(* Tests for the serving layer: wire protocol round-trips, seeded fuzzing
   of the two wire decoders, the daemon's reply/containment contracts
   (malformed input, oversized lines, budget rejection, arrival-order
   replies), byte-parity of socket solve replies with the offline CLI,
   and graceful drain on SIGTERM against the real executable. *)

module J = Stdx.Jsonx
module Proto = Serve.Proto
module Client = Serve.Client
module Daemon = Serve.Daemon

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let exe = Filename.concat ".." (Filename.concat "bin" "maxis_lb.exe")

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "maxis-serve-test-%d-%d.sock" (Unix.getpid ()) !n)

(* ------------------------------------------------------------------ *)
(* Protocol round-trips *)

let all_requests =
  [
    Proto.ping ~id:(J.Int 1) ();
    Proto.stats ~id:(J.Str "s") ();
    Proto.solve ~id:(J.Int 2)
      {
        Proto.alpha = 1;
        ell = 3;
        players = 2;
        seed = 7;
        intersecting = true;
        quadratic = true;
        budget_nodes = Some 1234;
      };
    Proto.solve ~id:J.Null Proto.solve_defaults;
    Proto.bounds ~id:(J.Int 3) ~alpha:2 ~ell:5 ~players:4 ();
    Proto.claim_verify ~id:(J.Int 4)
      { Proto.verify_defaults with Proto.v_samples = 2; v_budget_nodes = Some 9 };
    Proto.chaos_kill ~id:(J.Int 5) ();
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = Proto.encode_request req in
      match Proto.decode_request line with
      | Error e -> Alcotest.failf "decode %s: %s" line e
      | Ok got ->
          check (Proto.op_name req.Proto.op) true (got = req);
          (* and the encoding is a fixed point *)
          check_string "re-encode" line (Proto.encode_request got))
    all_requests

let test_reply_roundtrip () =
  List.iter
    (fun r ->
      match Proto.decode_reply (Proto.encode_reply r) with
      | Error e -> Alcotest.failf "decode reply: %s" e
      | Ok got -> check "reply" true (got = r))
    [
      Proto.Ok_reply { id = J.Int 1; op = "solve"; payload = "OPT 12\nline2" };
      Proto.Rejected { id = J.Null; op = "solve"; reason = "window full" };
      Proto.Error_reply { id = J.Str "x"; op = "?"; reason = "bad \"json\"" };
    ]

let test_decode_rejects () =
  let bad l =
    match Proto.decode_request l with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "decoded: %s" l
  in
  bad "";
  bad "nonsense";
  bad "[1,2]";
  bad {|{"id":1}|};
  bad {|{"op":"no-such-op"}|};
  bad {|{"op":"solve","ell":"four"}|};
  bad {|{"op":"solve","budget_nodes":0}|}

(* ------------------------------------------------------------------ *)
(* Decoder fuzzing: neither wire decoder may raise on any input, and
   every accepted input re-encodes to a fixed point. *)

let json_fixed_point line =
  match J.parse line with
  | Error _ -> true
  | Ok j -> (
      let s = J.to_string j in
      match J.parse s with Ok j' -> J.to_string j' = s | Error _ -> false)

let request_fixed_point line =
  match Proto.decode_request line with
  | Error _ -> true
  | Ok r -> (
      let s = Proto.encode_request r in
      match Proto.decode_request s with
      | Ok r' -> Proto.encode_request r' = s
      | Error _ -> false)

let decoders_total line =
  match json_fixed_point line && request_fixed_point line with
  | ok -> ok
  | exception e ->
      QCheck.Test.fail_reportf "raised %s on %S" (Printexc.to_string e) line

let fuzz_rand () = Random.State.make [| 0x5e7e |]

let encodings = Array.of_list (List.map Proto.encode_request all_requests)

(* One byte replaced, or the line cut short, in a known-good encoding. *)
let gen_mutation =
  let open QCheck.Gen in
  let* line = oneofa encodings in
  let n = String.length line in
  let* pos = int_bound (n - 1) in
  let* c = char in
  let* truncate = bool in
  return
    (if truncate then String.sub line 0 pos
     else String.mapi (fun i x -> if i = pos then c else x) line)

(* Arrays nested just under, at and past [Jsonx.max_depth], bare or as a
   request's id, balanced or cut short. *)
let gen_deep =
  let open QCheck.Gen in
  let* depth = int_range (J.max_depth - 2) (J.max_depth + 64) in
  let* in_request = bool in
  let* cut = int_bound 3 in
  let doc = String.make depth '[' ^ String.make (max 0 (depth - cut)) ']' in
  return (if in_request then {|{"op":"ping","id":|} ^ doc ^ "}" else doc)

let fuzz_cases =
  [
    QCheck.Test.make ~count:300 ~name:"random bytes"
      QCheck.(make ~print:(Printf.sprintf "%S") Gen.(string_size (int_bound 64)))
      decoders_total;
    QCheck.Test.make ~count:300 ~name:"mutated request encodings"
      (QCheck.make ~print:(Printf.sprintf "%S") gen_mutation)
      decoders_total;
    QCheck.Test.make ~count:200 ~name:"nesting past max_depth"
      (QCheck.make ~print:(Printf.sprintf "%S") gen_deep)
      decoders_total;
  ]

let test_addr_of_string () =
  check "unix" true
    (Proto.addr_of_string "unix:/tmp/x.sock" = Ok (Proto.Unix_sock "/tmp/x.sock"));
  check "bare path" true
    (Proto.addr_of_string "relative/path.sock"
    = Ok (Proto.Unix_sock "relative/path.sock"));
  check "tcp" true
    (Proto.addr_of_string "tcp:127.0.0.1:7070"
    = Ok (Proto.Tcp ("127.0.0.1", 7070)));
  check "bad port" true (Result.is_error (Proto.addr_of_string "tcp:host:0"));
  check "no port" true (Result.is_error (Proto.addr_of_string "tcp:host"));
  check "empty" true (Result.is_error (Proto.addr_of_string ""))

(* ------------------------------------------------------------------ *)
(* In-process daemon harness *)

let with_daemon ?(configure = Fun.id) f =
  let sock = fresh_sock () in
  let cfg =
    configure
      {
        (Daemon.default_config ~listen:(Proto.Unix_sock sock) ()) with
        Daemon.allow_chaos = true;
      }
  in
  let d = Daemon.create cfg in
  let h = Domain.spawn (fun () -> Daemon.run d) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Domain.join h)
    (fun () -> f (Proto.Unix_sock sock) d)

let solve_sp =
  {
    Proto.solve_defaults with
    Proto.ell = 3;
    players = 2;
    seed = 11;
    budget_nodes = Some 200_000;
  }

let test_daemon_basic_ops () =
  with_daemon (fun addr _d ->
      let c = Client.connect addr in
      (let r = Client.request c (Proto.ping ~id:(J.Int 9) ()) in
       check_string "ping payload" "pong"
         (Option.value (Proto.reply_payload r) ~default:"");
       check "ping echoes id" true (Proto.reply_id r = J.Int 9));
      (let r = Client.request c (Proto.solve solve_sp) in
       check_string "solve status" "ok" (Proto.reply_status r);
       check_string "solve payload" "OPT 12"
         (Option.value (Proto.reply_payload r) ~default:""));
      (let r = Client.request c (Proto.stats ()) in
       check_string "stats status" "ok" (Proto.reply_status r));
      Client.close c)

let test_malformed_line_survives () =
  with_daemon (fun addr _d ->
      let c = Client.connect addr in
      Client.send_raw c "{\"op\":";
      let r = Client.recv c in
      check_string "malformed -> error" "error" (Proto.reply_status r);
      (* the connection lives on *)
      let r = Client.request c (Proto.ping ()) in
      check_string "still serving" "ok" (Proto.reply_status r);
      Client.close c)

let test_malformed_number_survives () =
  (* A bad number lexeme used to escape Jsonx.parse as
     Failure "float_of_string" and crash the event loop; it must be a
     structured error reply on a surviving connection. *)
  with_daemon (fun addr _d ->
      let c = Client.connect addr in
      List.iter
        (fun raw ->
          Client.send_raw c raw;
          let r = Client.recv c in
          check_string (Printf.sprintf "%s -> error" raw) "error"
            (Proto.reply_status r))
        [
          {|{"op":"ping","x":1e}|};
          {|{"op":"ping","x":1E+}|};
          {|{"op":"ping","x":-.}|};
          {|{"op":"solve","seed":2e-}|};
        ];
      let r = Client.request c (Proto.ping ()) in
      check_string "still serving" "ok" (Proto.reply_status r);
      Client.close c)

let test_oversized_line_survives () =
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.max_line_bytes = 256 })
    (fun addr _d ->
      let c = Client.connect addr in
      Client.send_raw c (String.make 1000 'y');
      let r = Client.recv c in
      check_string "oversized -> error" "error" (Proto.reply_status r);
      let r = Client.request c (Proto.ping ()) in
      check_string "still serving" "ok" (Proto.reply_status r);
      Client.close c)

let test_budget_rejection () =
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.max_budget_nodes = 1000 })
    (fun addr _d ->
      let c = Client.connect addr in
      let r =
        Client.request c
          (Proto.solve { solve_sp with Proto.budget_nodes = Some 5000 })
      in
      check_string "over ceiling -> rejected" "rejected" (Proto.reply_status r);
      (* at the ceiling: admitted *)
      let r =
        Client.request c
          (Proto.solve { solve_sp with Proto.budget_nodes = Some 1000 })
      in
      check_string "at ceiling -> served" "ok" (Proto.reply_status r);
      Client.close c)

let test_overload_rejection_and_order () =
  (* A window of 1 with two solves pipelined in one write: the first is
     admitted, the second must be refused (never queued into a hang),
     and replies must come back in arrival order. *)
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.max_inflight = 1 })
    (fun addr _d ->
      let c = Client.connect addr in
      let req id = Proto.encode_request (Proto.solve ~id:(J.Int id) solve_sp) in
      Client.send_raw c (req 1 ^ "\n" ^ req 2);
      let r1 = Client.recv c in
      let r2 = Client.recv c in
      check "arrival order" true (Proto.reply_id r1 = J.Int 1);
      check "arrival order 2" true (Proto.reply_id r2 = J.Int 2);
      check_string "first admitted" "ok" (Proto.reply_status r1);
      check_string "second rejected" "rejected" (Proto.reply_status r2);
      (* the slot freed up: a later request is served again *)
      let r = Client.request c (Proto.solve solve_sp) in
      check_string "window recovered" "ok" (Proto.reply_status r);
      Client.close c)

let test_chaos_kill_contained () =
  with_daemon
    ~configure:(fun cfg -> { cfg with Daemon.jobs = 2 })
    (fun addr _d ->
      let c = Client.connect addr in
      let lines =
        [
          Proto.encode_request (Proto.solve ~id:(J.Int 1) solve_sp);
          Proto.encode_request (Proto.chaos_kill ~id:(J.Int 2) ());
          Proto.encode_request (Proto.solve ~id:(J.Int 3) solve_sp);
        ]
      in
      Client.send_raw c (String.concat "\n" lines);
      let r1 = Client.recv c in
      let r2 = Client.recv c in
      let r3 = Client.recv c in
      check_string "solve before kill" "ok" (Proto.reply_status r1);
      check_string "kill -> error reply" "error" (Proto.reply_status r2);
      check_string "solve after kill" "ok" (Proto.reply_status r3);
      check_string "payload unharmed" "OPT 12"
        (Option.value (Proto.reply_payload r3) ~default:"");
      Client.close c)

let test_chaos_refused_by_default () =
  let sock = fresh_sock () in
  let d = Daemon.create (Daemon.default_config ~listen:(Proto.Unix_sock sock) ()) in
  let h = Domain.spawn (fun () -> Daemon.run d) in
  Fun.protect
    ~finally:(fun () ->
      Daemon.stop d;
      Domain.join h)
    (fun () ->
      let c = Client.connect (Proto.Unix_sock sock) in
      let r = Client.request c (Proto.chaos_kill ()) in
      check_string "chaos disabled" "error" (Proto.reply_status r);
      Client.close c)

let test_requests_served_counter () =
  with_daemon (fun addr d ->
      let before = Daemon.requests_served d in
      let c = Client.connect addr in
      ignore (Client.request c (Proto.ping ()));
      ignore (Client.request c (Proto.ping ()));
      Client.close c;
      check "served counter grows" true (Daemon.requests_served d >= before + 2))

(* ------------------------------------------------------------------ *)
(* Byte parity with the offline CLI *)

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_solve_parity_with_cli () =
  (* The same instance and budget through the socket and through
     `maxis_lb solve` must produce the same payload bytes — cold cache,
     warm cache, and across pool widths. *)
  let out = Filename.temp_file "serve_parity" ".out" in
  let code =
    Sys.command
      (Printf.sprintf
         "%s solve --ell 3 --players 2 --seed 11 --budget-nodes 200000 \
          --no-cache >%s 2>/dev/null"
         (Filename.quote exe) (Filename.quote out))
  in
  check_int "cli exit" 0 code;
  let cli_line = String.trim (slurp out) in
  Sys.remove out;
  List.iter
    (fun jobs ->
      with_daemon
        ~configure:(fun cfg -> { cfg with Daemon.jobs })
        (fun addr _d ->
          let c = Client.connect addr in
          let cold = Client.request c (Proto.solve solve_sp) in
          let warm = Client.request c (Proto.solve solve_sp) in
          check_string
            (Printf.sprintf "socket = cli (cold, jobs=%d)" jobs)
            cli_line
            (Option.value (Proto.reply_payload cold) ~default:"");
          check_string
            (Printf.sprintf "socket = cli (warm, jobs=%d)" jobs)
            cli_line
            (Option.value (Proto.reply_payload warm) ~default:"");
          Client.close c))
    [ 1; 3 ]

let test_cli_solve_exhausted_exit () =
  let code =
    Sys.command
      (Printf.sprintf
         "%s solve --ell 3 --players 2 --seed 11 --budget-nodes 10 --no-cache \
          >/dev/null 2>&1"
         (Filename.quote exe))
  in
  check_int "exhausted solve exits 3" 3 code

(* ------------------------------------------------------------------ *)
(* Drain on SIGTERM against the real executable *)

let wait_no_hang pid =
  (* bounded wait so a drain bug fails the test instead of wedging it *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          Unix.kill pid Sys.sigkill;
          Alcotest.fail "daemon did not exit within 30s of SIGTERM"
        end;
        Unix.sleepf 0.05;
        go ()
    | _, status -> status
  in
  go ()

let test_sigterm_drains_exe () =
  let sock = fresh_sock () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--listen"; "unix:" ^ sock; "--no-cache" |]
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    (fun () ->
      let c = Client.connect (Proto.Unix_sock sock) in
      let r = Client.request c (Proto.solve solve_sp) in
      check_string "served before drain" "ok" (Proto.reply_status r);
      Unix.kill pid Sys.sigterm;
      (match wait_no_hang pid with
      | Unix.WEXITED 0 -> ()
      | Unix.WEXITED n -> Alcotest.failf "drain exited %d, want 0" n
      | Unix.WSIGNALED n -> Alcotest.failf "daemon died on signal %d" n
      | Unix.WSTOPPED _ -> Alcotest.fail "daemon stopped");
      check "socket file unlinked" true (not (Sys.file_exists sock));
      Client.close c)

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_decode_rejects;
          Alcotest.test_case "addr parsing" `Quick test_addr_of_string;
        ] );
      ( "fuzz",
        List.map (QCheck_alcotest.to_alcotest ~rand:(fuzz_rand ())) fuzz_cases );
      ( "daemon",
        [
          Alcotest.test_case "basic ops" `Quick test_daemon_basic_ops;
          Alcotest.test_case "malformed line survives" `Quick
            test_malformed_line_survives;
          Alcotest.test_case "malformed number survives" `Quick
            test_malformed_number_survives;
          Alcotest.test_case "oversized line survives" `Quick
            test_oversized_line_survives;
          Alcotest.test_case "budget rejection" `Quick test_budget_rejection;
          Alcotest.test_case "overload rejected in order" `Quick
            test_overload_rejection_and_order;
          Alcotest.test_case "chaos kill contained" `Quick
            test_chaos_kill_contained;
          Alcotest.test_case "chaos refused by default" `Quick
            test_chaos_refused_by_default;
          Alcotest.test_case "served counter" `Quick test_requests_served_counter;
        ] );
      ( "parity",
        [
          Alcotest.test_case "socket solve = cli solve" `Quick
            test_solve_parity_with_cli;
          Alcotest.test_case "cli solve exit codes" `Quick
            test_cli_solve_exhausted_exit;
        ] );
      ( "drain",
        [
          Alcotest.test_case "SIGTERM drains the real exe" `Quick
            test_sigterm_drains_exe;
        ] );
    ]
