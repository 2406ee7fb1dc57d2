(* Experiment NETCHAOS: the serving layer under network chaos.

   Seeded episodes, each a claim from docs/SERVING.md exercised against
   real sockets with injected faults (Stdx.Netio — the network sibling
   of the Fsio plans the CHAOS leg uses):

   - replay: a scripted fault episode re-run with the same seed must
     reproduce the fault stream exactly (and a different seed must not);
   - client chaos: a fault-injected client against a clean daemon — all
     requests answered ok with payloads byte-identical to a clean run;
   - daemon chaos: an injector plan on the daemon's own live sockets —
     same absorption claim, server side;
   - slow-loris flood: stalled partial-line connections are evicted on
     the read deadline while a healthy client keeps being served;
   - overload: accepts past max_conns are shed with a structured error,
     held connections unharmed.

   The verdict table (stdout + results/netchaos_verdicts.csv) is
   deterministic by construction — booleans of absorption invariants
   plus fault counts of the scripted episode, which are a pure function
   of the seed.  The live episodes' fault counts are run-dependent and
   go to stderr. *)

module T = Stdx.Tablefmt
module J = Stdx.Jsonx
module Netio = Serve.Netio
module Proto = Serve.Proto
module Client = Serve.Client
module Daemon = Serve.Daemon
open Exp_common

let root = Filename.concat "results" "netchaos-bench"

let verdict_csv = Filename.concat "results" "netchaos_verdicts.csv"

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let evictions reason =
  Obs.Metrics.value
    (Obs.Metrics.counter ~labels:[ ("reason", reason) ] "serve_evictions_total")

(* ------------------------------------------------------------------ *)
(* Daemon plumbing *)

let sock_seq = ref 0

let fresh_sock tag =
  incr sock_seq;
  Filename.concat root (Printf.sprintf "%s-%d.sock" tag !sock_seq)

let daemon_on ?(configure = Fun.id) tag =
  let sock = fresh_sock tag in
  let cache =
    Exec.Cache.create ~dir:(Filename.concat root ("cache-" ^ tag)) ()
  in
  let cfg =
    configure
      {
        (Daemon.default_config ~cache ~listen:(Proto.Unix_sock sock) ()) with
        Daemon.tick_s = 0.01;
        jobs = 1;
      }
  in
  let d = Daemon.create cfg in
  let h = Domain.spawn (fun () -> Daemon.run d) in
  (d, h, Proto.Unix_sock sock)

let stop_daemon (d, h, _addr) =
  Daemon.stop d;
  Domain.join h

(* ------------------------------------------------------------------ *)
(* Seeded load: the request sequence is a pure function of [tag], so two
   runs with the same tag are byte-comparable. *)

let corpus =
  [|
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 11 };
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 12 };
    { Proto.solve_defaults with Proto.ell = 4; players = 2; seed = 13 };
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 15; intersecting = true };
  |]

let client_load ?netio addr ~tag ~n =
  let c = Client.connect ?netio addr in
  let rng = rng_for tag in
  let payloads = ref [] in
  let ok = ref 0 in
  for i = 0 to n - 1 do
    let sp = corpus.(Stdx.Prng.int rng (Array.length corpus)) in
    let req =
      Proto.solve ~id:(J.Int i) { sp with Proto.budget_nodes = Some 200_000 }
    in
    let r = Client.request c req in
    if Proto.reply_status r = "ok" then incr ok;
    payloads := Option.value (Proto.reply_payload r) ~default:"" :: !payloads
  done;
  Client.close c;
  (List.rev !payloads, !ok)

(* ------------------------------------------------------------------ *)
(* Episode 1: scripted replay determinism (no daemon, no timing) *)

let scripted_episode seed =
  let payload = String.init 509 (fun i -> Char.chr (i mod 251)) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec write_all off =
    if off < String.length payload then
      write_all
        (off + Unix.write_substring a payload off (String.length payload - off))
  in
  write_all 0;
  Unix.close a;
  let inj =
    Netio.injector
      (Netio.plan
         ~overrides:
           [ ("read", Netio.op_fault ~eintr:0.2 ~stall:0.1 ~short_read:0.6 ()) ]
         seed)
  in
  let faults = ref [] in
  let net = Netio.faulty ~on_fault:(fun k -> faults := k :: !faults) inj in
  let buf = Bytes.create 64 in
  let out = Buffer.create 509 in
  let eof = ref false in
  while not !eof do
    match net.Stdx.Netio.read b buf 0 (Bytes.length buf) with
    | 0 -> eof := true
    | n -> Buffer.add_subbytes out buf 0 n
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        ()
  done;
  Unix.close b;
  (List.rev !faults, Netio.faults_injected inj, Buffer.contents out = payload)

(* ------------------------------------------------------------------ *)
(* Episode 4: slow-loris flood *)

let loris_flood addr ~loris ~pings =
  let evicted = Array.make loris false in
  let threads =
    Array.init loris (fun i ->
        Thread.create
          (fun () ->
            let c = Client.connect addr in
            Client.send_bytes c {|{"op":"so|};  (* partial line, then stall *)
            (match Client.recv c with
            | r ->
                (* the eviction courtesy line *)
                evicted.(i) <- Proto.reply_status r = "error"
            | exception Exec.Error.Error (Exec.Error.Net_io _) ->
                evicted.(i) <- true);
            Client.close c)
          ())
  in
  Thread.delay 0.05;
  (* a healthy client during the flood *)
  let c = Client.connect addr in
  let healthy = ref 0 in
  for i = 1 to pings do
    let r = Client.request c (Proto.ping ~id:(J.Int i) ()) in
    if Proto.reply_status r = "ok" then incr healthy;
    Thread.delay 0.02
  done;
  Client.close c;
  Array.iter Thread.join threads;
  (Array.for_all Fun.id evicted, !healthy)

(* ------------------------------------------------------------------ *)

let run () =
  section "NETCHAOS" "serving layer under network chaos";
  rm_rf root;
  Exec.Cache.mkdir_p root;
  let verdicts =
    T.create [ T.column ~align:T.Left "check"; T.column ~align:T.Left "result" ]
  in
  let verdict name ok = T.add_row verdicts [ name; T.cell_bool ok ] in

  (* ------------- episode 1: scripted replay determinism ------------ *)
  let f1, c1, intact1 = scripted_episode 42 in
  let f2, c2, intact2 = scripted_episode 42 in
  let f3, _, _ = scripted_episode 43 in
  verdict "replay: same seed, identical fault stream" (f1 = f2 && c1 = c2);
  verdict "replay: different seed, different fault stream" (f1 <> f3);
  verdict "replay: transfers intact under faults" (intact1 && intact2);
  T.add_row verdicts
    [
      "replay: fault counts (seed 42)";
      String.concat ";"
        (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) c1);
    ];

  (* ------------- episodes 2+3: absorption on live connections ------ *)
  let n_load = 24 in
  let clean = daemon_on "clean" in
  let _, _, clean_addr = clean in
  let base_payloads, base_ok =
    client_load clean_addr ~tag:"netchaos-load" ~n:n_load
  in
  let client_inj =
    Netio.injector
      (Netio.plan
         ~overrides:
           [
             ("read", Netio.op_fault ~eintr:0.3 ~stall:0.2 ~short_read:0.4 ());
             ("write", Netio.op_fault ~eintr:0.3 ~stall:0.2 ~torn_write:0.4 ());
           ]
         1009)
  in
  let chaos_payloads, chaos_ok =
    client_load ~netio:(Netio.chaos client_inj) clean_addr ~tag:"netchaos-load"
      ~n:n_load
  in
  stop_daemon clean;
  verdict "client chaos: every request ok" (chaos_ok = n_load && base_ok = n_load);
  verdict "client chaos: payload parity with clean run"
    (chaos_payloads = base_payloads);
  verdict "client chaos: faults were injected"
    (Netio.total_injected client_inj > 0);

  let daemon_inj =
    Netio.injector
      (Netio.plan
         ~overrides:
           [
             ("read", Netio.op_fault ~eintr:0.1 ~stall:0.1 ~short_read:0.3 ());
             ("write", Netio.op_fault ~eintr:0.1 ~torn_write:0.3 ());
           ]
         1013)
  in
  let chaotic =
    daemon_on "chaotic" ~configure:(fun cfg ->
        { cfg with Daemon.netio = Netio.chaos daemon_inj })
  in
  let _, _, chaotic_addr = chaotic in
  let srv_payloads, srv_ok =
    client_load chaotic_addr ~tag:"netchaos-load" ~n:n_load
  in
  stop_daemon chaotic;
  verdict "daemon chaos: every request ok" (srv_ok = n_load);
  verdict "daemon chaos: payload parity with clean run"
    (srv_payloads = base_payloads);
  verdict "daemon chaos: faults were injected"
    (Netio.total_injected daemon_inj > 0);

  (* ------------- episode 4: slow-loris flood ----------------------- *)
  let idle_before = evictions "idle" in
  let loris_daemon =
    daemon_on "loris" ~configure:(fun cfg ->
        { cfg with Daemon.read_deadline_s = 0.25 })
  in
  let _, _, loris_addr = loris_daemon in
  let n_loris = 6 in
  let all_evicted, healthy = loris_flood loris_addr ~loris:n_loris ~pings:16 in
  stop_daemon loris_daemon;
  verdict "slow-loris: healthy client fully served during flood" (healthy = 16);
  verdict "slow-loris: every stalled connection evicted" all_evicted;
  verdict "slow-loris: evictions accounted as reason=idle"
    (evictions "idle" - idle_before >= n_loris);

  (* ------------- episode 5: overload past max_conns ---------------- *)
  let cap_before = evictions "capacity" in
  let small =
    daemon_on "small" ~configure:(fun cfg -> { cfg with Daemon.max_conns = 4 })
  in
  let _, _, small_addr = small in
  let holders = List.init 4 (fun _ -> Client.connect small_addr) in
  let holders_live0 =
    List.for_all
      (fun c -> Proto.reply_status (Client.request c (Proto.ping ())) = "ok")
      holders
  in
  let n_extra = 6 in
  let shed_structured =
    List.init n_extra (fun _ ->
        let c = Client.connect small_addr in
        let r =
          match Client.recv c with
          | r -> (
              Proto.reply_status r = "error"
              &&
              match Proto.reply_reason r with
              | Some reason ->
                  (* the reject names the limit, not just "error" *)
                  contains ~needle:"capacity" reason
              | None -> false)
          | exception Exec.Error.Error (Exec.Error.Net_io _) -> false
        in
        Client.close c;
        r)
    |> List.for_all Fun.id
  in
  let holders_live =
    List.for_all
      (fun c -> Proto.reply_status (Client.request c (Proto.ping ())) = "ok")
      holders
  in
  List.iter Client.close holders;
  stop_daemon small;
  verdict "overload: every shed connection got a structured reject"
    shed_structured;
  verdict "overload: held connections unharmed" (holders_live0 && holders_live);
  verdict "overload: sheds accounted as reason=capacity"
    (evictions "capacity" - cap_before >= n_extra);

  Exec.Cache.mkdir_p "results";
  T.print ~csv:verdict_csv verdicts;
  note "wrote %s." verdict_csv;

  Format.eprintf "[netchaos] faults injected: client=%d daemon=%d@."
    (Netio.total_injected client_inj)
    (Netio.total_injected daemon_inj)
