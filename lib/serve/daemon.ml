module J = Stdx.Jsonx

type config = {
  listen : Proto.addr;
  metrics : Proto.addr option;
  jobs : int;
  cache : Exec.Cache.t;
  max_inflight : int;
  default_budget_nodes : int;
  max_budget_nodes : int;
  max_line_bytes : int;
  batch_max : int;
  tick_s : float;
  allow_chaos : bool;
  max_conns : int;
  idle_timeout_s : float;
  read_deadline_s : float;
  write_deadline_s : float;
  drain_deadline_s : float;
  netio : Netio.t;
  clock : unit -> float;
}

let default_config ?cache ~listen () =
  {
    listen;
    metrics = None;
    jobs = 1;
    cache = (match cache with Some c -> c | None -> Exec.Cache.disabled ());
    max_inflight = 64;
    default_budget_nodes = 1_000_000;
    max_budget_nodes = 4_000_000;
    max_line_bytes = 1 lsl 20;
    batch_max = 64;
    tick_s = 0.02;
    allow_chaos = false;
    max_conns = 1024;
    idle_timeout_s = 300.0;
    read_deadline_s = 30.0;
    write_deadline_s = 5.0;
    drain_deadline_s = 5.0;
    netio = Netio.real;
    clock = Unix.gettimeofday;
  }

(* ------------------------------------------------------------------ *)
(* Metrics (catalogued in docs/SERVING.md) *)

let m_connections = Obs.Metrics.counter "serve_connections_total"
let m_scrapes = Obs.Metrics.counter "serve_scrapes_total"
let m_request_bytes = Obs.Metrics.counter "serve_request_bytes_total"
let m_reply_bytes = Obs.Metrics.counter "serve_reply_bytes_total"
let m_batches = Obs.Metrics.counter "serve_batches_total"
let m_batch_fallbacks = Obs.Metrics.counter "serve_batch_fallbacks_total"
let m_io_errors = Obs.Metrics.counter "serve_io_errors_total"
let m_queue_depth = Obs.Metrics.gauge "serve_queue_depth"
let m_conns = Obs.Metrics.gauge "serve_conns"

type eviction = Idle | Slow_writer | Capacity | Drain

(* Pre-interned: evictions happen on the event-loop hot path. *)
let m_evictions =
  let counter reason =
    Obs.Metrics.counter ~labels:[ ("reason", reason) ] "serve_evictions_total"
  in
  let idle = counter "idle" in
  let slow_writer = counter "slow-writer" in
  let capacity = counter "capacity" in
  let drain = counter "drain" in
  function
  | Idle -> idle
  | Slow_writer -> slow_writer
  | Capacity -> capacity
  | Drain -> drain

let m_latency =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.default_latency_buckets
    "serve_latency_seconds"

let m_requests ~op ~outcome =
  Obs.Metrics.counter
    ~labels:[ ("op", op); ("outcome", outcome) ]
    "serve_requests_total"

(* ------------------------------------------------------------------ *)
(* Connections and work items *)

type slot = { mutable out : string option }  (* encoded reply, sans newline *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  slots : slot Queue.t;  (* arrival order; replies flush strictly FIFO *)
  outbuf : Buffer.t;
  mutable outpos : int;
  mutable skipping : bool;  (* discarding the tail of an oversized line *)
  mutable eof : bool;
  mutable last_read : float;   (* last byte arrival (watchdog: read deadline, idle) *)
  mutable last_wmove : float;  (* last outbound progress (watchdog: slow writer) *)
}

type work = {
  w_slot : slot;
  w_op : Proto.op;
  w_id : J.t;
  w_budget : Exec.Budget.t;
  w_t0 : float;
}

type t = {
  cfg : config;
  pool : Exec.Pool.t;
  admission : Exec.Admission.t;
  wire : Unix.file_descr;
  scrape : Unix.file_descr option;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  queue : work Queue.t;
  stop_flag : bool Atomic.t;
  mutable draining : bool;
  mutable served : int;
  mutable ran : bool;
}

let unix_msg e fn = Printf.sprintf "%s: %s" fn (Unix.error_message e)

(* Bind + listen, replacing a stale Unix-domain socket file (the trace a
   killed daemon leaves behind).  A path occupied by a non-socket is an
   error — never delete something we did not create. *)
let listen_on addr =
  (match addr with
  | Proto.Unix_sock path when Sys.file_exists path -> (
      match (Unix.lstat path).Unix.st_kind with
      | Unix.S_SOCK -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> raise (Netio.net_io "socket path %s exists and is not a socket" path))
  | _ -> ());
  let sa = Proto.sockaddr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  try
    (match addr with
    | Proto.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | Proto.Unix_sock _ -> ());
    Unix.bind fd sa;
    Unix.listen fd 64;
    Unix.set_nonblock fd;
    fd
  with Unix.Unix_error (e, fn, _) ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise (Netio.net_io "cannot listen on %s (%s)" (Format.asprintf "%a" Proto.pp_addr addr) (unix_msg e fn))

let create cfg =
  if cfg.jobs < 1 then invalid_arg "Serve.Daemon.create: jobs must be >= 1";
  if cfg.max_conns < 1 then
    invalid_arg "Serve.Daemon.create: max_conns must be >= 1";
  let wire = listen_on cfg.listen in
  let scrape =
    match cfg.metrics with
    | None -> None
    | Some a -> (
        try Some (listen_on a)
        with e ->
          (try Unix.close wire with Unix.Unix_error _ -> ());
          raise e)
  in
  {
    cfg;
    pool = Exec.Pool.create ~jobs:cfg.jobs ();
    admission =
      Exec.Admission.create ~max_inflight:cfg.max_inflight
        ~default_nodes:cfg.default_budget_nodes ~max_nodes:cfg.max_budget_nodes
        ~clock:cfg.clock ();
    wire;
    scrape;
    conns = Hashtbl.create 16;
    queue = Queue.create ();
    stop_flag = Atomic.make false;
    draining = false;
    served = 0;
    ran = false;
  }

let stop d = Atomic.set d.stop_flag true

let stopped d = Atomic.get d.stop_flag

let requests_served d = d.served

(* ------------------------------------------------------------------ *)
(* Replies *)

let fill d slot reply ~op ~t0 =
  slot.out <- Some (Proto.encode_reply reply);
  d.served <- d.served + 1;
  Obs.Metrics.inc (m_requests ~op ~outcome:(Proto.reply_status reply));
  Obs.Metrics.observe m_latency (d.cfg.clock () -. t0)

let reply_now d conn reply ~op ~t0 =
  let slot = { out = None } in
  Queue.add slot conn.slots;
  fill d slot reply ~op ~t0

let failure_reason = function
  | Exec.Error.Error k -> Exec.Error.to_string k
  | Exec.Pool.Chaos_kill -> "worker killed (chaos)"
  | Invalid_argument m -> "invalid request: " ^ m
  | Failure m -> m
  | e -> Printexc.to_string e

(* ------------------------------------------------------------------ *)
(* Request handling *)

let stats_payload d =
  Printf.sprintf "served=%d inflight=%d queue=%d connections=%d jobs=%d"
    d.served
    (Exec.Admission.inflight d.admission)
    (Queue.length d.queue)
    (Hashtbl.length d.conns)
    (Exec.Pool.jobs d.pool)

let handle_line d conn line =
  let line =
    (* tolerate CRLF clients *)
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
  in
  if line = "" then ()
  else begin
    Obs.Metrics.add m_request_bytes (String.length line + 1);
    let t0 = d.cfg.clock () in
    match Proto.decode_request line with
    | Error reason ->
        reply_now d conn (Proto.Error_reply { id = J.Null; op = "?"; reason })
          ~op:"?" ~t0
    | Ok { Proto.id; op } -> (
        let name = Proto.op_name op in
        match op with
        | Proto.Ping ->
            reply_now d conn (Proto.Ok_reply { id; op = name; payload = "pong" })
              ~op:name ~t0
        | Proto.Stats ->
            reply_now d conn
              (Proto.Ok_reply { id; op = name; payload = stats_payload d })
              ~op:name ~t0
        | Proto.Chaos_kill when not d.cfg.allow_chaos ->
            reply_now d conn
              (Proto.Error_reply
                 { id; op = name; reason = "chaos ops disabled on this server" })
              ~op:name ~t0
        | Proto.Solve _ | Proto.Bounds _ | Proto.Claim_verify _ | Proto.Chaos_kill
          -> (
            let requested_nodes =
              match op with
              | Proto.Solve { Proto.budget_nodes; _ } -> budget_nodes
              | Proto.Claim_verify { Proto.v_budget_nodes; _ } -> v_budget_nodes
              | _ -> None
            in
            match Exec.Admission.admit ?requested_nodes d.admission with
            | Error rejection ->
                reply_now d conn
                  (Proto.Rejected
                     {
                       id;
                       op = name;
                       reason = Exec.Admission.rejection_to_string rejection;
                     })
                  ~op:name ~t0
            | Ok budget ->
                let slot = { out = None } in
                Queue.add slot conn.slots;
                Queue.add
                  { w_slot = slot; w_op = op; w_id = id; w_budget = budget; w_t0 = t0 }
                  d.queue;
                Obs.Metrics.set m_queue_depth (Queue.length d.queue)))
  end

(* Split buffered input into lines; oversized lines are answered with a
   structured error and skipped up to their terminating newline, so the
   connection (and the replies already owed to it) survives. *)
let process_input d conn =
  let data = Buffer.contents conn.inbuf in
  Buffer.clear conn.inbuf;
  let n = String.length data in
  let i = ref 0 in
  while !i < n do
    match String.index_from_opt data !i '\n' with
    | Some j ->
        let line = String.sub data !i (j - !i) in
        if conn.skipping then conn.skipping <- false
        else if String.length line > d.cfg.max_line_bytes then
          reply_now d conn
            (Proto.Error_reply
               {
                 id = J.Null;
                 op = "?";
                 reason =
                   Printf.sprintf "oversized request line (%d > %d bytes)"
                     (String.length line) d.cfg.max_line_bytes;
               })
            ~op:"?" ~t0:(d.cfg.clock ())
        else handle_line d conn line;
        i := j + 1
    | None ->
        let rest = n - !i in
        if conn.skipping then ()  (* keep discarding until a newline shows *)
        else if rest > d.cfg.max_line_bytes then begin
          reply_now d conn
            (Proto.Error_reply
               {
                 id = J.Null;
                 op = "?";
                 reason =
                   Printf.sprintf "oversized request line (> %d bytes)"
                     d.cfg.max_line_bytes;
               })
            ~op:"?" ~t0:(d.cfg.clock ());
          conn.skipping <- true
        end
        else Buffer.add_substring conn.inbuf data !i rest;
        i := n
  done

(* ------------------------------------------------------------------ *)
(* Dispatch: batch the admitted queue across the pool.  Tasks never let
   an exception escape — except Chaos_kill, which must reach the pool's
   supervision.  If the batch-level map still fails (a quarantined
   poison task, or a width-1 chaos kill), re-execute each request on the
   event loop so only the genuinely failing request errors. *)

let execute d w =
  match w.w_op with
  | Proto.Solve p -> (Ops.solve ~cache:d.cfg.cache ~budget:w.w_budget p).Ops.payload
  | Proto.Bounds { b_alpha; b_ell; b_players } ->
      Ops.bounds ~cache:d.cfg.cache ~alpha:b_alpha ~ell:b_ell ~players:b_players
  | Proto.Claim_verify p ->
      (Ops.claim_verify ~cache:d.cfg.cache ~budget:w.w_budget p).Ops.v_payload
  | Proto.Chaos_kill -> raise Exec.Pool.Chaos_kill
  | Proto.Ping | Proto.Stats -> assert false (* answered inline, never queued *)

let dispatch d =
  while not (Queue.is_empty d.queue) do
    let batch = Queue.create () in
    while
      (not (Queue.is_empty d.queue)) && Queue.length batch < d.cfg.batch_max
    do
      Queue.add (Queue.pop d.queue) batch
    done;
    Obs.Metrics.set m_queue_depth (Queue.length d.queue);
    let works = Array.of_seq (Queue.to_seq batch) in
    Obs.Metrics.inc m_batches;
    let results =
      try
        Exec.Pool.map d.pool
          (fun w ->
            try Ok (execute d w)
            with
            | Exec.Pool.Chaos_kill as e -> raise e
            | e -> Error e)
          works
      with _batch_failure ->
        Obs.Metrics.inc m_batch_fallbacks;
        Array.map (fun w -> try Ok (execute d w) with e -> Error e) works
    in
    Array.iteri
      (fun i w ->
        let op = Proto.op_name w.w_op in
        let reply =
          match results.(i) with
          | Ok payload -> Proto.Ok_reply { id = w.w_id; op; payload }
          | Error e ->
              Proto.Error_reply { id = w.w_id; op; reason = failure_reason e }
        in
        fill d w.w_slot reply ~op ~t0:w.w_t0;
        Exec.Admission.release d.admission)
      works
  done

(* ------------------------------------------------------------------ *)
(* Socket plumbing *)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let drop_conn d conn =
  Hashtbl.remove d.conns conn.fd;
  close_fd conn.fd;
  Obs.Metrics.set m_conns (Hashtbl.length d.conns)

(* Move filled FIFO-head replies into the outgoing byte buffer. *)
let promote_replies conn =
  let rec go () =
    match Queue.peek_opt conn.slots with
    | Some { out = Some line } ->
        ignore (Queue.pop conn.slots);
        Buffer.add_string conn.outbuf line;
        Buffer.add_char conn.outbuf '\n';
        Obs.Metrics.add m_reply_bytes (String.length line + 1);
        go ()
    | Some { out = None } | None -> ()
  in
  go ()

(* Write as much of the out buffer as the socket takes; [true] while the
   connection is still healthy. *)
let try_write d conn =
  let data = Buffer.contents conn.outbuf in
  let n = String.length data in
  if conn.outpos >= n then begin
    if n > 0 then begin
      Buffer.clear conn.outbuf;
      conn.outpos <- 0
    end;
    true
  end
  else
    match
      d.cfg.netio.Netio.write conn.fd data conn.outpos (n - conn.outpos)
    with
    | written ->
        conn.outpos <- conn.outpos + written;
        if written > 0 then conn.last_wmove <- d.cfg.clock ();
        if conn.outpos >= n then begin
          Buffer.clear conn.outbuf;
          conn.outpos <- 0
        end;
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        true
    | exception Unix.Unix_error (_, _, _) ->
        (* A vanished client costs its connection, nothing else — the
           Net_io taxonomy's degraded mode for the write path. *)
        Obs.Metrics.inc m_io_errors;
        drop_conn d conn;
        false

(* A structured error line for a peer about to be closed: one
   nonblocking write attempt, retried only on EINTR.  A peer that does
   not read loses the line (or its tail); it cannot hold the loop. *)
let send_notice d fd reason =
  let line =
    Proto.encode_reply (Proto.Error_reply { id = J.Null; op = "?"; reason })
    ^ "\n"
  in
  let rec attempt () =
    match d.cfg.netio.Netio.write fd line 0 (String.length line) with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> attempt ()
    | exception Unix.Unix_error _ -> ()
  in
  attempt ()

let read_chunk = Bytes.create 65536

(* [true] when more bytes may come later, [false] at EOF. *)
let read_into d conn =
  match d.cfg.netio.Netio.read conn.fd read_chunk 0 (Bytes.length read_chunk) with
  | 0 ->
      conn.eof <- true;
      false
  | n ->
      Buffer.add_subbytes conn.inbuf read_chunk 0 n;
      conn.last_read <- d.cfg.clock ();
      true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      false
  | exception Unix.Unix_error (_, _, _) ->
      Obs.Metrics.inc m_io_errors;
      conn.eof <- true;
      false

(* Take every byte the socket holds now, then answer the complete lines. *)
let read_conn d conn =
  while (not conn.eof) && read_into d conn do
    ()
  done;
  process_input d conn

let add_conn d fd ~eof ~out =
  let now = d.cfg.clock () in
  let outbuf = Buffer.create 256 in
  Buffer.add_string outbuf out;
  Hashtbl.replace d.conns fd
    {
      fd;
      inbuf = Buffer.create 256;
      slots = Queue.create ();
      outbuf;
      outpos = 0;
      skipping = false;
      eof;
      last_read = now;
      last_wmove = now;
    };
  Obs.Metrics.set m_conns (Hashtbl.length d.conns)

(* One scrape = one connection that starts with the Prometheus rendering
   of the live registry already queued as a minimal HTTP response, and
   nothing to read.  It is flushed and reaped like a reply, so a scraper
   that stops reading is a slow writer like any other. *)
let scrape_response () =
  let body = Obs.Export.prometheus (Obs.Metrics.snapshot ()) in
  Printf.sprintf
    "HTTP/1.0 200 OK\r\n\
     Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    (String.length body) body

(* Accept everything pending on [listener].  A wire accept at capacity is
   shed: the peer gets a structured error line, never a silent close,
   and the shed is accounted as an eviction.  The cap bounds select()
   fan-in and memory, so one flood cannot starve established
   connections. *)
let accept d listener =
  let rec go () =
    match d.cfg.netio.Netio.accept listener with
    | fd, _ ->
        Unix.set_nonblock fd;
        if listener <> d.wire then begin
          Obs.Metrics.inc m_scrapes;
          add_conn d fd ~eof:true ~out:(scrape_response ())
        end
        else begin
          Obs.Metrics.inc m_connections;
          if Hashtbl.length d.conns >= d.cfg.max_conns then begin
            Obs.Metrics.inc (m_evictions Capacity);
            send_notice d fd
              (Printf.sprintf "server at connection capacity (max_conns=%d)"
                 d.cfg.max_conns);
            close_fd fd
          end
          else add_conn d fd ~eof:false ~out:""
        end;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error (_, _, _) -> Obs.Metrics.inc m_io_errors
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The event loop *)

let flushable conn =
  Buffer.length conn.outbuf > conn.outpos
  || match Queue.peek_opt conn.slots with Some { out = Some _ } -> true | _ -> false

(* An in-flight request (admitted, no reply yet) exempts a connection
   from idle eviction: the client is waiting on us, not vice versa. *)
let awaiting_us conn =
  (not (Queue.is_empty conn.slots)) || Buffer.length conn.outbuf > conn.outpos

let evict d conn reason =
  Obs.Metrics.inc (m_evictions reason);
  (* An idle peer that still reads learns why. *)
  if reason = Idle then
    send_notice d conn.fd "connection evicted: idle past deadline";
  drop_conn d conn

(* The connection watchdog sweep: once per tick, against the injectable
   clock. *)
let sweep_lifecycle d now =
  let victims = ref [] in
  Hashtbl.iter
    (fun _ conn ->
      let reason =
        if flushable conn && now -. conn.last_wmove > d.cfg.write_deadline_s
        then Some Slow_writer
        else if
          (not conn.eof)
          && (Buffer.length conn.inbuf > 0 || conn.skipping)
          && now -. conn.last_read > d.cfg.read_deadline_s
        then Some Idle  (* a partial request line, stalled mid-frame *)
        else if
          (not conn.eof)
          && (not (awaiting_us conn))
          && Buffer.length conn.inbuf = 0
          && now -. conn.last_read > d.cfg.idle_timeout_s
        then Some Idle  (* no traffic, nothing owed either way *)
        else None
      in
      match reason with
      | Some r -> victims := (conn, r) :: !victims
      | None -> ())
    d.conns;
  List.iter (fun (conn, r) -> evict d conn r) !victims

let close_listeners d =
  close_fd d.wire;
  Option.iter close_fd d.scrape;
  List.iter
    (function
      | Proto.Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
      | Proto.Tcp _ -> ())
    (d.cfg.listen :: Option.to_list d.cfg.metrics)

let run d =
  if d.ran then invalid_arg "Serve.Daemon.run: already ran";
  d.ran <- true;
  (* A client that disconnects mid-reply must cost EPIPE, not the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let drain_by = ref infinity in
  let finished = ref false in
  while not !finished do
    (* Entering drain: close the front door, parse the bytes already
       received on accepted connections and answer everything admitted.
       The flush grace starts after that; the loop below is the same one
       that serves, minus the listeners and the watchdog. *)
    if Atomic.get d.stop_flag && not d.draining then begin
      d.draining <- true;
      close_listeners d;
      Hashtbl.iter
        (fun _ conn ->
          read_conn d conn;
          conn.eof <- true)
        d.conns;
      dispatch d;
      drain_by := d.cfg.clock () +. d.cfg.drain_deadline_s
    end;
    let read_fds =
      (if d.draining then [] else d.wire :: Option.to_list d.scrape)
      @ Hashtbl.fold (fun fd c acc -> if c.eof then acc else fd :: acc) d.conns []
    in
    let write_fds =
      Hashtbl.fold (fun fd c acc -> if flushable c then fd :: acc else acc) d.conns []
    in
    (match Unix.select read_fds write_fds [] d.cfg.tick_s with
    | readable, _, _ ->
        List.iter
          (fun fd ->
            if fd = d.wire || Some fd = d.scrape then accept d fd
            else Option.iter (read_conn d) (Hashtbl.find_opt d.conns fd))
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    dispatch d;
    (* Flush replies; reap connections that are done. *)
    let now = d.cfg.clock () in
    let done_conns = ref [] in
    Hashtbl.iter
      (fun _ conn ->
        let was_flushable = flushable conn in
        promote_replies conn;
        (* The slow-writer watchdog starts when output first appears —
           not from the last write of a long-quiet connection. *)
        if (not was_flushable) && flushable conn then conn.last_wmove <- now;
        if try_write d conn then
          if
            conn.eof
            && Queue.is_empty conn.slots
            && Buffer.length conn.outbuf <= conn.outpos
          then done_conns := conn :: !done_conns)
      d.conns;
    List.iter (drop_conn d) !done_conns;
    if not d.draining then sweep_lifecycle d (d.cfg.clock ())
    else if Hashtbl.length d.conns = 0 || d.cfg.clock () >= !drain_by then begin
      (* A peer that never drains its socket got its grace period. *)
      Hashtbl.iter
        (fun _ conn ->
          if flushable conn then Obs.Metrics.inc (m_evictions Drain);
          close_fd conn.fd)
        d.conns;
      Hashtbl.reset d.conns;
      Obs.Metrics.set m_conns 0;
      finished := true
    end
  done;
  Exec.Pool.shutdown d.pool
