(* The journal is an append-only set of completed sweep cells, one line
   per cell:

     maxis-journal v1\n               (header, written at creation)
     <digest hex> <escaped canonical key>\n
     ...

   Each line is self-validating: the digest is the MD5 of the unescaped
   canonical key (exactly [Cache.digest_hex]), so a line torn by a crash
   mid-append fails re-derivation and loading stops there — every line
   before the tear is still trusted.  Appends go through
   [Fsio.append_line] — open-append, write, flush, close per cell — so
   each is durable the moment [record] returns, concurrent writers
   within one process (pool workers) serialize under the mutex, and a
   SIGKILL can lose at most the line being written, never corrupt
   earlier ones.  Routing through [Fsio] also puts the torn-tail claim
   under the chaos suite's injected-fault microscope.

   The journal records *completion*, not values: values re-materialize
   from [Exec.Cache], which is written before the journal line (store
   then record), so a journaled cell always has its cache entry on disk
   modulo cache eviction — and a missing entry merely recomputes. *)

let schema_version = 1

let magic = Printf.sprintf "maxis-journal v%d" schema_version

let default_dir = Filename.concat "results" "journal"

type t = {
  path : string option;  (* None = disabled *)
  fs : Fsio.t;
  mutable writable : bool;  (* false after [close] *)
  completed : (string, unit) Hashtbl.t;  (* digest hex -> () *)
  mutable resumed : int;  (* entries loaded from disk at open *)
  mutable appended : int;  (* entries written by this process *)
  mutable skipped : int;  (* memo calls answered by a journaled cell *)
  lock : Mutex.t;
}

(* Process-wide twins of the per-journal counters, aggregated across
   journal instances for the --metrics export. *)
let m_appends = Obs.Metrics.counter "journal_appends_total"

let m_resumed = Obs.Metrics.counter "journal_resumed_total"

let m_skipped = Obs.Metrics.counter "journal_skipped_total"

let disabled () =
  {
    path = None;
    fs = Fsio.real;
    writable = false;
    completed = Hashtbl.create 1;
    resumed = 0;
    appended = 0;
    skipped = 0;
    lock = Mutex.create ();
  }

let enabled t = t.path <> None

let path t = t.path

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Parse one journal line; [None] on any mismatch (torn tail, foreign
   bytes, truncated digest). *)
let parse_line line =
  match String.index_opt line ' ' with
  | None -> None
  | Some i ->
      let digest = String.sub line 0 i in
      let escaped = String.sub line (i + 1) (String.length line - i - 1) in
      if String.length digest <> 32 then None
      else (
        match
          try Some (Scanf.unescaped escaped) with Scanf.Scan_failure _ | Failure _ -> None
        with
        | None -> None
        | Some canonical ->
            if Digest.to_hex (Digest.string canonical) = digest then Some digest
            else None)

(* Split raw journal bytes into the header and the newline-terminated
   body lines; the final chunk, if not newline-terminated, is a torn
   append and is returned as-is (it will fail [parse_line]). *)
let split_lines contents =
  let n = String.length contents in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      match String.index_from_opt contents pos '\n' with
      | Some nl -> go (nl + 1) (String.sub contents pos (nl - pos) :: acc)
      | None -> List.rev (String.sub contents pos (n - pos) :: acc)
  in
  go 0 []

(* The number of leading journal lines (header excluded) that are
   individually valid; loading and fsck both stop at the first bad
   line — everything after it is untrusted.  Exposed for {!Fsck}. *)
let valid_prefix lines =
  let rec go acc = function
    | [] -> List.rev acc
    | line :: rest -> (
        match parse_line line with
        | Some digest -> go ((line, digest) :: acc) rest
        | None -> List.rev acc)
  in
  go [] lines

let load_existing t p =
  let contents =
    try t.fs.Fsio.read_file p
    with Sys_error m -> raise (Error.Error (Error.Journal_io m))
  in
  match split_lines contents with
  | [] -> raise (Error.Error (Error.Journal_io (p ^ ": empty journal file")))
  | header :: lines ->
      if header <> magic then
        raise (Error.Error (Error.Journal_io (p ^ ": not a journal (bad header)")));
      List.iter
        (fun (_line, digest) ->
          if not (Hashtbl.mem t.completed digest) then begin
            Hashtbl.replace t.completed digest ();
            Obs.Metrics.inc m_resumed;
            t.resumed <- t.resumed + 1
          end)
        (valid_prefix lines)

let open_ ?(fs = Fsio.real) ?(dir = default_dir) ?(resume = true) ~run_id () =
  if run_id = "" then invalid_arg "Exec.Journal.open_: empty run_id";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> ()
      | _ ->
          invalid_arg
            (Printf.sprintf "Exec.Journal.open_: run_id %S: use [A-Za-z0-9._-]"
               run_id))
    run_id;
  let p = Filename.concat dir (run_id ^ ".journal") in
  let t = { (disabled ()) with path = Some p; fs } in
  Error.with_retries ~label:"journal.open" (fun () ->
      try
        Cache.mkdir_p ~fs dir;
        let existing = fs.Fsio.file_exists p in
        if resume && existing then load_existing t p
        else fs.Fsio.write_file p (magic ^ "\n");
        t.writable <- true;
        t
      with Sys_error m -> raise (Error.Error (Error.Journal_io m)))

let completed t key = Hashtbl.mem t.completed (Cache.digest_hex key)

let resumed_count t = t.resumed

let appended_count t = t.appended

let skipped_count t = t.skipped

let record t key =
  match t.path with
  | None -> ()
  | Some p ->
      if t.writable then begin
        let digest = Cache.digest_hex key in
        locked t (fun () ->
            if not (Hashtbl.mem t.completed digest) then begin
              let line =
                Printf.sprintf "%s %s\n" digest (String.escaped (Cache.canonical key))
              in
              Error.with_retries ~label:"journal.append" (fun () ->
                  try t.fs.Fsio.append_line p line
                  with Sys_error m -> raise (Error.Error (Error.Journal_io m)));
              Hashtbl.replace t.completed digest ();
              Obs.Metrics.inc m_appends;
              t.appended <- t.appended + 1
            end)
      end

let memo t cache key compute =
  let was_completed = completed t key in
  let payload = Cache.memo cache key compute in
  if was_completed then begin
    Obs.Metrics.inc m_skipped;
    locked t (fun () -> t.skipped <- t.skipped + 1)
  end;
  record t key;
  payload

let memo_value t cache key ~encode ~decode compute =
  let was_completed = completed t key in
  let v = Cache.memo_value cache key ~encode ~decode compute in
  if was_completed then begin
    Obs.Metrics.inc m_skipped;
    locked t (fun () -> t.skipped <- t.skipped + 1)
  end;
  record t key;
  v

let close t = t.writable <- false

(* pp_stats is called from signal handlers: no locks here, a slightly
   stale counter beats a deadlock. *)
let pp_stats ppf t =
  match t.path with
  | None -> Format.pp_print_string ppf "journal disabled"
  | Some p ->
      Format.fprintf ppf "path=%s resumed=%d appended=%d skipped=%d" p t.resumed
        t.appended t.skipped

(* ------------------------------------------------------------------ *)
(* Termination signals *)

let signal_exit_code s = if s = Sys.sigterm then 143 else 130

let on_termination f =
  List.iter
    (fun s ->
      try
        Sys.set_signal s
          (Sys.Signal_handle
             (fun s ->
               (try f s with _ -> ());
               exit (signal_exit_code s)))
      with Invalid_argument _ | Sys_error _ -> () (* unsupported platform *))
    [ Sys.sigint; Sys.sigterm ]
