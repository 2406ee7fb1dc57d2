(* The operation record is syscall-grained, unlike Fsio's whole-file
   grain: sockets are streams, and the interesting network failures —
   short reads, torn writes, resets mid-frame — live *between* the
   syscalls, where buffering and reassembly logic can get them wrong.
   Injected failures are genuine Unix_errors (argument "injected") so
   they exercise the same EAGAIN/EINTR/ECONNRESET branches real sockets
   reach. *)

type t = {
  accept : Unix.file_descr -> Unix.file_descr * Unix.sockaddr;
  connect : Unix.file_descr -> Unix.sockaddr -> unit;
  read : Unix.file_descr -> bytes -> int -> int -> int;
  write : Unix.file_descr -> string -> int -> int -> int;
}

let real =
  {
    accept = (fun fd -> Unix.accept fd);
    connect = Unix.connect;
    read = Unix.read;
    write = Unix.write_substring;
  }

(* ------------------------------------------------------------------ *)
(* Fault plans *)

type op_fault = {
  eintr : float;
  refuse : float;
  reset : float;
  short_read : float;
  torn_write : float;
  stall : float;
}

let no_fault =
  {
    eintr = 0.0;
    refuse = 0.0;
    reset = 0.0;
    short_read = 0.0;
    torn_write = 0.0;
    stall = 0.0;
  }

let op_fault ?(eintr = 0.0) ?(refuse = 0.0) ?(reset = 0.0) ?(short_read = 0.0)
    ?(torn_write = 0.0) ?(stall = 0.0) () =
  let check = Inject.check_prob ~what:"Netio.op_fault" in
  check "eintr" eintr;
  check "refuse" refuse;
  check "reset" reset;
  check "short_read" short_read;
  check "torn_write" torn_write;
  check "stall" stall;
  { eintr; refuse; reset; short_read; torn_write; stall }

type plan = {
  seed : int;
  default : op_fault;
  overrides : (string * op_fault) list;
}

let plan ?(default = no_fault) ?(overrides = []) seed = { seed; default; overrides }

(* ------------------------------------------------------------------ *)
(* Injection *)

type injector = { plan : plan; stream : Inject.t }

let injector plan =
  {
    plan;
    stream =
      Inject.create
        ~kinds:[| "eintr"; "refuse"; "reset"; "short_read"; "torn_write"; "stall" |]
        plan.seed;
  }

let faults_injected inj = Inject.faults_injected inj.stream

let total_injected inj = Inject.total_injected inj.stream

let fault_for inj op =
  match List.assoc_opt op inj.plan.overrides with
  | Some f -> f
  | None -> inj.plan.default

let injected e fn = Unix.Unix_error (e, fn, "injected")

let faulty ?on_fault inj =
  (* One auxiliary draw for an operation on [len] bytes: the prefix
     cut. *)
  let draw op probs ~len =
    Inject.draw inj.stream ?on_fault (probs (fault_for inj op)) ~bounds:[| len |]
  in
  let accept fd =
    match draw "accept" (fun f -> [ ("eintr", f.eintr) ]) ~len:0 with
    | Some "eintr", _ -> raise (injected Unix.EINTR "accept")
    | _ -> real.accept fd
  in
  let connect fd sa =
    match
      draw "connect" (fun f -> [ ("eintr", f.eintr); ("refuse", f.refuse) ]) ~len:0
    with
    | Some "eintr", _ -> raise (injected Unix.EINTR "connect")
    | Some "refuse", _ -> raise (injected Unix.ECONNREFUSED "connect")
    | _ -> real.connect fd sa
  in
  (* Reads and writes share three failure kinds; [truncate] picks the
     kind that cuts the transfer short. *)
  let stream_op op truncate real_op fd buf off len =
    match
      draw op
        (fun f ->
          [ ("eintr", f.eintr); ("reset", f.reset); ("stall", f.stall); truncate f ])
        ~len
    with
    | Some "eintr", _ -> raise (injected Unix.EINTR op)
    | Some "reset", _ -> raise (injected Unix.ECONNRESET op)
    | Some "stall", _ -> raise (injected Unix.EAGAIN op)
    | Some _, aux when len > 0 -> real_op fd buf off (1 + (aux.(0) mod len))
    | _ -> real_op fd buf off len
  in
  {
    accept;
    connect;
    read = stream_op "read" (fun f -> ("short_read", f.short_read)) real.read;
    (* A torn write accepts a prefix and reports the short count —
       legal socket behavior, just rarer than write loops usually see. *)
    write = stream_op "write" (fun f -> ("torn_write", f.torn_write)) real.write;
  }
