(* The operation record is deliberately whole-file / whole-line grained:
   channels held open across calls would smuggle unfaultable state past
   the injector, and every consumer in the repository (cache entries,
   journal lines, CSV/JSONL exports) is naturally all-or-nothing at that
   grain anyway. *)

type t = {
  read_file : string -> string;
  write_file : string -> string -> unit;
  append_line : string -> string -> unit;
  rename : string -> string -> unit;
  remove : string -> unit;
  mkdir : string -> unit;
  rmdir : string -> unit;
  file_exists : string -> bool;
  is_directory : string -> bool;
  readdir : string -> string array;
}

let real_read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let real_write_file path contents =
  let oc = open_out_bin path in
  match output_string oc contents with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      raise e

let real_append_line path chunk =
  let oc =
    open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path
  in
  match output_string oc chunk with
  | () -> close_out oc (* close_out flushes *)
  | exception e ->
      close_out_noerr oc;
      raise e

let real =
  {
    read_file = real_read_file;
    write_file = real_write_file;
    append_line = real_append_line;
    rename = Sys.rename;
    remove = Sys.remove;
    mkdir = (fun path -> Sys.mkdir path 0o755);
    rmdir = Sys.rmdir;
    file_exists = Sys.file_exists;
    is_directory = Sys.is_directory;
    readdir = Sys.readdir;
  }

let rec mkdir_p ?(fs = real) path =
  if path <> "" && path <> "." && path <> "/" && not (fs.file_exists path)
  then begin
    mkdir_p ~fs (Filename.dirname path);
    try fs.mkdir path
    with Sys_error _ -> () (* lost a race with a concurrent mkdir: fine *)
  end

(* Temps live beside their target (rename is only atomic within one
   filesystem); the pid and a process-wide sequence keep concurrent
   writers, across domains and processes, off each other's temps. *)
let temp_prefix = ".tmp-"

let is_temp name = String.starts_with ~prefix:temp_prefix name

let temp_seq = Atomic.make 0

(* A cleanup [remove] can itself be interrupted; retry it while the temp
   is still there, a bounded number of times (Stdx sits below
   [Exec.Error]'s retry loop). *)
let cleanup_attempts = 8

let remove_temp fs tmp =
  let rec go k =
    if k > 0 && fs.file_exists tmp then
      match fs.remove tmp with () -> () | exception Sys_error _ -> go (k - 1)
  in
  go cleanup_attempts

let write_atomic ?(fs = real) path contents =
  let tmp =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf "%s%s-%d-%d" temp_prefix (Filename.basename path)
         (Unix.getpid ()) (Atomic.fetch_and_add temp_seq 1))
  in
  try
    fs.write_file tmp contents;
    fs.rename tmp path
  with e ->
    remove_temp fs tmp;
    raise e

(* ------------------------------------------------------------------ *)
(* Fault plans *)

type op_fault = {
  eintr : float;
  enospc : float;
  torn : float;
  flip : float;
  fail_rename : float;
}

let no_fault = { eintr = 0.0; enospc = 0.0; torn = 0.0; flip = 0.0; fail_rename = 0.0 }

let op_fault ?(eintr = 0.0) ?(enospc = 0.0) ?(torn = 0.0) ?(flip = 0.0)
    ?(fail_rename = 0.0) () =
  let check = Inject.check_prob ~what:"Fsio.op_fault" in
  check "eintr" eintr;
  check "enospc" enospc;
  check "torn" torn;
  check "flip" flip;
  check "fail_rename" fail_rename;
  { eintr; enospc; torn; flip; fail_rename }

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
      Inject.create ~kinds:[| "eintr"; "enospc"; "torn"; "flip"; "rename" |] plan.seed;
  }

let faults_injected inj = Inject.faults_injected inj.stream

let total_injected inj = Inject.total_injected inj.stream

let fault_for inj path =
  match
    List.find_opt (fun (prefix, _) -> String.starts_with ~prefix path) inj.plan.overrides
  with
  | Some (_, f) -> f
  | None -> inj.plan.default

let injected_error path what =
  Sys_error (Printf.sprintf "%s: %s (injected)" path what)

let flip_bit s bit =
  let b = Bytes.of_string s in
  let i = bit / 8 and j = bit mod 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl j)));
  Bytes.to_string b

let faulty ?on_fault inj =
  (* Auxiliary draws for an operation on [len] bytes: the prefix cut
     and the flipped bit. *)
  let draw path probs ~len =
    Inject.draw inj.stream ?on_fault (probs (fault_for inj path))
      ~bounds:[| len; len * 8 |]
  in
  let interrupted path = injected_error path "Interrupted system call" in
  let read_file path =
    let s = real.read_file path in
    match
      draw path (fun f -> [ ("eintr", f.eintr); ("flip", f.flip) ]) ~len:(String.length s)
    with
    | Some "eintr", _ -> raise (interrupted path)
    | Some "flip", aux when String.length s > 0 -> flip_bit s aux.(1)
    | _ -> s
  in
  let write_like real_write path contents =
    match
      draw path
        (fun f -> [ ("eintr", f.eintr); ("enospc", f.enospc); ("torn", f.torn) ])
        ~len:(String.length contents)
    with
    | Some "eintr", _ -> raise (interrupted path)
    | Some "enospc", aux ->
        (try real_write path (String.sub contents 0 aux.(0)) with Sys_error _ -> ());
        raise (injected_error path "No space left on device")
    | Some "torn", aux ->
        (* The lying write: a prefix lands on disk, success is reported. *)
        real_write path (String.sub contents 0 aux.(0))
    | _ -> real_write path contents
  in
  let rename src dst =
    match
      draw src (fun f -> [ ("eintr", f.eintr); ("rename", f.fail_rename) ]) ~len:0
    with
    | Some "eintr", _ -> raise (interrupted src)
    | Some "rename", _ -> raise (injected_error src "rename failed")
    | _ -> real.rename src dst
  in
  let eintr_only real_op path =
    match draw path (fun f -> [ ("eintr", f.eintr) ]) ~len:0 with
    | Some "eintr", _ -> raise (interrupted path)
    | _ -> real_op path
  in
  {
    read_file;
    write_file = write_like real.write_file;
    append_line = write_like real.append_line;
    rename;
    remove = eintr_only real.remove;
    mkdir = eintr_only real.mkdir;
    rmdir = real.rmdir;
    file_exists = real.file_exists;
    is_directory = real.is_directory;
    readdir = real.readdir;
  }
