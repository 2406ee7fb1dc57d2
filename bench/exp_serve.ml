(* Experiment SERVE: the solve daemon under multi-client load.

   An in-process daemon (own domain, own pool) is driven two ways:

   - a scripted capability pass over every protocol op — ping, bounds,
     cold solve, warm solve, budget exhaustion, claim-verify, a
     malformed line, an oversized line, an over-ceiling budget — whose
     table is deterministic by construction (payloads are cached solver
     output; statuses are protocol law) and lands on stdout;

   - a seeded load phase — closed-loop client threads and a pipelined
     burst — of which only the reply statuses are checked.  Timing the
     daemon is perfbench's serve-solve workload (perfbench/README.md).

   A chaos episode rides along: worker-killing requests and an
   fs-fault-injected cache mid-load, after which every in-flight
   request must still have received a terminal reply and fsck must
   come back clean.

   MAXIS_SERVE_SOCKET=<addr> (plus MAXIS_SERVE_METRICS_SOCKET) points
   the pass at an externally started daemon instead — the smoke script
   uses this; the chaos and drain legs only run in-process. *)

module T = Stdx.Tablefmt
module J = Stdx.Jsonx
module Proto = Serve.Proto
module Client = Serve.Client
open Exp_common

let serve_root = Filename.concat "results" "serve-bench"

let sock_path = Filename.concat serve_root "wire.sock"

let metrics_path = Filename.concat serve_root "metrics.sock"

let cache_dir = Filename.concat serve_root "cache"

let capability_csv = Filename.concat "results" "serve_capabilities.csv"

let max_line_bytes = 65536

(* ------------------------------------------------------------------ *)
(* Request corpus: small gadget instances, cheap enough that the load
   phase is socket-bound rather than solver-bound once the cache is
   warm. *)

let corpus =
  [|
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 11 };
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 12 };
    { Proto.solve_defaults with Proto.ell = 4; players = 2; seed = 13 };
    { Proto.solve_defaults with Proto.ell = 4; players = 2; seed = 14 };
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 15; intersecting = true };
    { Proto.solve_defaults with Proto.ell = 4; players = 2; seed = 16; intersecting = true };
  |]

let corpus_req rng =
  let sp = corpus.(Stdx.Prng.int rng (Array.length corpus)) in
  Proto.solve { sp with Proto.budget_nodes = Some 200_000 }

(* ------------------------------------------------------------------ *)
(* Load generation *)

type load_stats = { requests : int; ok : int; rejected : int; errored : int }

let count_status replies =
  List.fold_left
    (fun (ok, rej, err) r ->
      match r with
      | Proto.Ok_reply _ -> (ok + 1, rej, err)
      | Proto.Rejected _ -> (ok, rej + 1, err)
      | Proto.Error_reply _ -> (ok, rej, err + 1))
    (0, 0, 0) replies

(* Closed-loop: [clients] threads, each its own connection, each sending
   [per_client] requests back to back and waiting for every reply. *)
let closed_loop addr ~clients ~per_client =
  let results = Array.make clients [] in
  let worker i =
    let rng = rng_for (Printf.sprintf "serve-load-%d" i) in
    let c = Client.connect addr in
    let replies = ref [] in
    for _ = 1 to per_client do
      replies := Client.request c (corpus_req rng) :: !replies
    done;
    Client.close c;
    results.(i) <- !replies
  in
  let threads = Array.init clients (fun i -> Thread.create worker i) in
  Array.iter Thread.join threads;
  let ok, rejected, errored =
    count_status (List.concat (Array.to_list results))
  in
  { requests = clients * per_client; ok; rejected; errored }

(* Burst: one connection, [n] requests pipelined in a single write wave,
   then all replies read back.  Exercises the admission window and the
   batch dispatcher. *)
let burst addr ~n =
  let rng = rng_for "serve-burst" in
  let c = Client.connect addr in
  for _ = 1 to n do
    Client.send c (corpus_req rng)
  done;
  let replies = List.init n (fun _ -> Client.recv c) in
  Client.close c;
  let ok, rejected, errored = count_status replies in
  { requests = n; ok; rejected; errored }

let one_line s = String.map (fun c -> if c = '\n' then ';' else c) s

let last_line s =
  match String.rindex_opt s '\n' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

(* ------------------------------------------------------------------ *)

let run () =
  section "SERVE" "solve daemon: protocol capabilities + multi-client load";
  let external_addr =
    match Sys.getenv_opt "MAXIS_SERVE_SOCKET" with
    | None | Some "" -> None
    | Some s -> (
        match Proto.addr_of_string s with
        | Ok a -> Some a
        | Error e -> failwith ("MAXIS_SERVE_SOCKET: " ^ e))
  in
  (* In-process daemon: its cache reads and writes through a seeded
     fault-injecting filesystem for the entire run, so the chaos episode
     is not a special mode — the capability table's byte-parity rows
     already hold under injected faults. *)
  let injector =
    Exec.Fsio.injector
      (Exec.Fsio.plan
         ~default:
           (Exec.Fsio.op_fault ~eintr:0.03 ~enospc:0.02 ~torn:0.02 ~flip:0.02
              ~fail_rename:0.02 ())
         41)
  in
  let daemon, addr, metrics_addr =
    match external_addr with
    | Some a ->
        let m =
          match Sys.getenv_opt "MAXIS_SERVE_METRICS_SOCKET" with
          | None | Some "" -> None
          | Some s -> (
              match Proto.addr_of_string s with Ok a -> Some a | Error _ -> None)
        in
        (None, a, m)
    | None ->
        rm_rf serve_root;
        Exec.Cache.mkdir_p serve_root;
        let cache =
          Exec.Cache.create ~fs:(Exec.Fsio.chaos injector) ~dir:cache_dir ()
        in
        let listen = Proto.Unix_sock sock_path in
        let metrics = Proto.Unix_sock metrics_path in
        let cfg =
          {
            (Serve.Daemon.default_config ~cache ~listen ()) with
            Serve.Daemon.metrics = Some metrics;
            jobs = Exec.Pool.default_jobs ();
            max_line_bytes;
            allow_chaos = true;
          }
        in
        let d = Serve.Daemon.create cfg in
        let h = Domain.spawn (fun () -> Serve.Daemon.run d) in
        (Some (d, h), listen, Some metrics)
  in

  (* ---------------- capability table (deterministic) -------------- *)
  let table =
    T.create
      [
        T.column ~align:T.Left "request";
        T.column ~align:T.Left "status";
        T.column ~align:T.Left "reply";
      ]
  in
  let row name reply =
    let detail =
      match Proto.reply_payload reply with
      | Some p -> one_line p
      | None -> Option.value (Proto.reply_reason reply) ~default:""
    in
    T.add_row table [ name; Proto.reply_status reply; detail ]
  in
  let c = Client.connect addr in
  row "ping" (Client.request c (Proto.ping ()));
  row "bounds ell=3 t=2"
    (Client.request c (Proto.bounds ~alpha:1 ~ell:3 ~players:2 ()));
  let solve_sp =
    { Proto.solve_defaults with Proto.ell = 3; players = 2; seed = 11;
      budget_nodes = Some 200_000 }
  in
  let cold = Client.request c (Proto.solve solve_sp) in
  row "solve ell=3 t=2 (cold)" cold;
  let warm = Client.request c (Proto.solve solve_sp) in
  T.add_row table
    [
      "solve again (warm)";
      Proto.reply_status warm;
      T.cell_bool (Proto.reply_payload warm = Proto.reply_payload cold)
      ^ " (= cold bytes)";
    ];
  (* Offline parity: the same op through Serve.Ops directly (a fresh
     fault-free cacheless context) must produce the same payload bytes
     the socket returned. *)
  let offline =
    (Serve.Ops.solve ~cache:(Exec.Cache.disabled ())
       ~budget:(Exec.Budget.create ~max_nodes:200_000 ())
       solve_sp)
      .Serve.Ops.payload
  in
  T.add_row table
    [
      "offline Ops.solve parity";
      "-";
      T.cell_bool (Proto.reply_payload cold = Some offline) ^ " (= socket bytes)";
    ];
  row "solve budget_nodes=10"
    (Client.request c
       (Proto.solve { solve_sp with Proto.budget_nodes = Some 10 }));
  let cv =
    Client.request c
      (Proto.claim_verify
         { Proto.verify_defaults with Proto.v_ell = 3; v_players = 2; v_samples = 1 })
  in
  T.add_row table
    [
      "claim-verify ell=3 t=2";
      Proto.reply_status cv;
      (match Proto.reply_payload cv with
      | Some p -> last_line p
      | None -> Option.value (Proto.reply_reason cv) ~default:"");
    ];
  row "over-ceiling budget"
    (Client.request c
       (Proto.solve { solve_sp with Proto.budget_nodes = Some 100_000_000 }));
  Client.send_raw c "{\"op\":";
  row "malformed line" (Client.recv c);
  Client.send_raw c (String.make (max_line_bytes + 5) 'x');
  row "oversized line" (Client.recv c);
  row "ping (same connection)" (Client.request c (Proto.ping ()));
  Client.close c;
  T.print ~csv:capability_csv table;
  note "wrote %s." capability_csv;

  (* ---------------- load phase ------------------------------------ *)
  let cl = closed_loop addr ~clients:4 ~per_client:24 in
  let bu = burst addr ~n:48 in
  let every_reply_terminal =
    cl.ok + cl.rejected + cl.errored = cl.requests
    && bu.ok + bu.rejected + bu.errored = bu.requests
  in

  (* ---------------- chaos episode + drain (in-process only) -------- *)
  let verdicts =
    T.create
      [ T.column ~align:T.Left "check"; T.column ~align:T.Left "result" ]
  in
  T.add_row verdicts
    [ "every load request got a terminal reply"; T.cell_bool every_reply_terminal ];
  (match metrics_addr with
  | None -> ()
  | Some m ->
      let body = Client.scrape m in
      let has_requests =
        (* any serve_requests_total sample with a positive count *)
        String.split_on_char '\n' body
        |> List.exists (fun l ->
               String.length l > 20
               && String.sub l 0 20 = "serve_requests_total"
               && not (String.length l >= 2 && String.sub l (String.length l - 2) 2 = " 0"))
      in
      T.add_row verdicts
        [ "scrape shows serve_requests_total > 0"; T.cell_bool has_requests ]);
  (match daemon with
  | None -> note "external daemon: chaos + drain legs skipped."
  | Some (d, h) ->
      (* Chaos: worker-killing requests interleaved with solves on one
         connection.  Every request — poison included — must get a
         terminal reply, and the killed workers must not take any
         neighbouring request down with them. *)
      let c = Client.connect addr in
      let n_chaos = 12 in
      let rng = rng_for "serve-chaos" in
      let sent =
        List.init n_chaos (fun i ->
            let req =
              if i mod 4 = 1 then Proto.chaos_kill ~id:(J.Int i) ()
              else
                let sp = corpus.(Stdx.Prng.int rng (Array.length corpus)) in
                Proto.solve ~id:(J.Int i)
                  { sp with Proto.budget_nodes = Some 200_000 }
            in
            Client.send c req;
            req)
      in
      let replies = List.map (fun _ -> Client.recv c) sent in
      Client.close c;
      let solves_ok =
        List.for_all2
          (fun req reply ->
            match req.Proto.op with
            | Proto.Chaos_kill -> Proto.reply_status reply = "error"
            | _ -> Proto.reply_status reply = "ok")
          sent replies
      in
      T.add_row verdicts
        [
          "chaos episode: kills contained, solves answered";
          T.cell_bool solves_ok;
        ];
      (* Drain: stop must answer everything and return. *)
      Serve.Daemon.stop d;
      Domain.join h;
      T.add_row verdicts [ "daemon drained on stop"; T.cell_bool true ];
      (* The cache lived behind a fault-injecting filesystem the whole
         run; fsck must repair whatever that corrupted, and a second
         pass must be clean. *)
      let _first = Exec.Fsck.run ~cache_dir ~journal_dir:(Filename.concat serve_root "nojournal") () in
      let second = Exec.Fsck.run ~cache_dir ~journal_dir:(Filename.concat serve_root "nojournal") () in
      T.add_row verdicts
        [ "fsck clean after chaos run"; T.cell_bool (Exec.Fsck.clean second) ];
      Format.eprintf "[serve] daemon replies: %d; fs faults injected: %d@."
        (Serve.Daemon.requests_served d)
        (Exec.Fsio.total_injected injector));
  T.print verdicts
