(* Fd-level, netio-threaded: every socket operation goes through the
   pluggable Netio record so the netchaos harness can inject seeded
   faults (EINTR, stalls, short reads, torn writes, resets) into a live
   client.  Blocking semantics are preserved by looping: EINTR retries,
   EAGAIN waits on select — both genuine kernel behaviors the injector
   merely makes frequent. *)

type t = {
  fd : Unix.file_descr;
  net : Netio.t;
  rbuf : Buffer.t;  (* received bytes not yet consumed as lines *)
  scratch : Bytes.t;
  mutable closed : bool;
}

let connect ?(retries = 5) ?(netio = Netio.real) addr =
  let dial () =
    let sa = Proto.sockaddr addr in
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    try
      netio.Netio.connect fd sa;
      fd
    with Unix.Unix_error (e, fn, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise
        (Netio.net_io "connect %s: %s: %s"
           (Format.asprintf "%a" Proto.pp_addr addr)
           fn (Unix.error_message e))
  in
  let fd =
    Exec.Error.with_retries ~attempts:retries ~label:"serve-connect" dial
  in
  { fd; net = netio; rbuf = Buffer.create 256; scratch = Bytes.create 65536; closed = false }

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let wait_fd ~read fd =
  let r, w = if read then ([ fd ], []) else ([], [ fd ]) in
  match Unix.select r w [] 1.0 with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Verbatim bytes, no newline appended: partial-frame and slow-loris
   tests dribble request fragments through here. *)
let send_bytes t data =
  if t.closed then raise (Netio.net_io "connection closed");
  let n = String.length data in
  let off = ref 0 in
  try
    while !off < n do
      match t.net.Netio.write t.fd data !off (n - !off) with
      | w -> off := !off + w
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          wait_fd ~read:false t.fd
    done
  with Unix.Unix_error (e, fn, _) ->
    raise (Netio.net_io "send: %s: %s" fn (Unix.error_message e))

let write_line t line = send_bytes t (line ^ "\n")

let send t req = write_line t (Proto.encode_request req)

let send_raw t line = write_line t line

(* Pop one newline-terminated line off the receive buffer, or None when
   no full line is buffered yet. *)
let pop_line t =
  let data = Buffer.contents t.rbuf in
  match String.index_opt data '\n' with
  | None -> None
  | Some i ->
      Buffer.clear t.rbuf;
      Buffer.add_substring t.rbuf data (i + 1) (String.length data - i - 1);
      Some (String.sub data 0 i)

(* EOF with buffered bytes means the peer vanished mid-frame — a fault;
   EOF on a frame boundary is a clean shutdown (daemon drained).  The two
   get distinct messages so logs and tests can tell them apart. *)
let eof_error t =
  let pending = Buffer.length t.rbuf in
  if pending = 0 then Netio.net_io "connection closed by server (clean eof)"
  else
    Netio.net_io
      "connection torn mid-frame (%d byte(s) of a partial reply buffered)"
      pending

let recv_raw t =
  if t.closed then raise (Netio.net_io "connection closed");
  let rec go () =
    match pop_line t with
    | Some line -> line
    | None -> (
        match t.net.Netio.read t.fd t.scratch 0 (Bytes.length t.scratch) with
        | 0 -> raise (eof_error t)
        | n ->
            Buffer.add_subbytes t.rbuf t.scratch 0 n;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            wait_fd ~read:true t.fd;
            go ()
        | exception Unix.Unix_error (e, fn, _) ->
            let pending = Buffer.length t.rbuf in
            if pending = 0 then
              raise (Netio.net_io "recv: %s: %s" fn (Unix.error_message e))
            else
              raise
                (Netio.net_io
                   "recv: %s: %s (connection torn mid-frame, %d byte(s) of a \
                    partial reply buffered)"
                   fn (Unix.error_message e) pending))
  in
  go ()

let recv t =
  let line = recv_raw t in
  match Proto.decode_reply line with
  | Ok r -> r
  | Error e -> raise (Netio.net_io "undecodable reply (%s): %s" e line)

let request t req =
  send t req;
  recv t

let scrape ?netio addr =
  let c = connect ?netio addr in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      let buf = Buffer.create 4096 in
      let eof = ref false in
      while not !eof do
        match c.net.Netio.read c.fd c.scratch 0 (Bytes.length c.scratch) with
        | 0 -> eof := true
        | n -> Buffer.add_subbytes buf c.scratch 0 n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            wait_fd ~read:true c.fd
        | exception Unix.Unix_error _ ->
            (* a torn scrape yields what arrived — scrapes are periodic
               and self-healing, so permissiveness beats an exception *)
            eof := true
      done;
      let all = Buffer.contents buf in
      (* strip the HTTP header block; tolerate a bare body too *)
      let sep = "\r\n\r\n" in
      let limit = String.length all - String.length sep in
      let rec find i =
        if i > limit then None
        else if String.sub all i (String.length sep) = sep then Some i
        else find (i + 1)
      in
      match find 0 with
      | Some i -> String.sub all (i + 4) (String.length all - i - 4)
      | None -> all)
