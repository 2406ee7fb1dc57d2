(* Entries live at [dir/<d0d1>/<digest>.entry] (two-hex-char shards keep
   directories small on big sweeps).  The on-disk format is four header
   lines followed by the raw payload bytes:

     maxis-exec-cache v<schema>\n
     <escaped canonical key>\n
     <payload md5 hex>\n
     <payload byte length>\n
     <payload>

   Every read re-derives the payload digest and compares the stored key,
   so a truncated file, a hash collision, a schema change or random bit
   rot all degrade to a miss.  All I/O goes through an [Fsio.t] backend
   so the chaos suite can inject filesystem faults under exactly these
   claims. *)

let schema_version = 1

let default_dir = Filename.concat "results" "cache"

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable errors : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
}

let fresh_stats () =
  { hits = 0; misses = 0; stores = 0; errors = 0; bytes_read = 0; bytes_written = 0 }

(* Process-wide twins of the per-cache [stats]: the struct stays the
   source of truth for [pp_stats], the Obs counters aggregate across
   every cache instance for the --metrics export. *)
let m_hits = Obs.Metrics.counter "cache_hits_total"

let m_misses = Obs.Metrics.counter "cache_misses_total"

let m_stores = Obs.Metrics.counter "cache_stores_total"

let m_errors = Obs.Metrics.counter "cache_errors_total"

let m_bytes_read = Obs.Metrics.counter "cache_read_bytes_total"

let m_bytes_written = Obs.Metrics.counter "cache_written_bytes_total"

type t = {
  dir : string option;  (* None = disabled *)
  fs : Fsio.t;
  stats : stats;
  lock : Mutex.t;
}

let create ?(fs = Fsio.real) ?(dir = default_dir) () =
  { dir = Some dir; fs; stats = fresh_stats (); lock = Mutex.create () }

let disabled () =
  { dir = None; fs = Fsio.real; stats = fresh_stats (); lock = Mutex.create () }

let enabled t = t.dir <> None

let stats t = t.stats

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d stores=%d errors=%d read=%dB written=%dB"
    s.hits s.misses s.stores s.errors s.bytes_read s.bytes_written

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* ------------------------------------------------------------------ *)
(* Keys *)

type key = { canonical : string; digest : string }

let fingerprint s = Digest.to_hex (Digest.string s)

let key ?(extra = "") ~family ~params ~seed ~solver () =
  let canonical =
    Printf.sprintf "v%d|family=%s|params=%s|seed=%d|solver=%s|extra=%s"
      schema_version family params seed solver extra
  in
  { canonical; digest = fingerprint canonical }

let canonical k = k.canonical

let digest_hex k = k.digest

(* ------------------------------------------------------------------ *)
(* Paths *)

let magic = Printf.sprintf "maxis-exec-cache v%d" schema_version

let shard_dir dir k = Filename.concat dir (String.sub k.digest 0 2)

let entry_path dir k = Filename.concat (shard_dir dir k) (k.digest ^ ".entry")

let mkdir_p ?fs path = Stdx.Fsio.mkdir_p ?fs path

(* ------------------------------------------------------------------ *)
(* Entry format *)

let encode_entry canonical payload =
  let b = Buffer.create (String.length payload + 128) in
  Buffer.add_string b magic;
  Buffer.add_char b '\n';
  Buffer.add_string b (String.escaped canonical);
  Buffer.add_char b '\n';
  Buffer.add_string b (Digest.to_hex (Digest.string payload));
  Buffer.add_char b '\n';
  Buffer.add_string b (string_of_int (String.length payload));
  Buffer.add_char b '\n';
  Buffer.add_string b payload;
  Buffer.contents b

(* Parse the four header lines + payload out of raw file contents.
   Returns [(escaped_key, payload)]; [Error reason] on any structural or
   digest mismatch. *)
let decode_entry contents =
  let next_line pos =
    match String.index_from_opt contents pos '\n' with
    | None -> None
    | Some nl -> Some (String.sub contents pos (nl - pos), nl + 1)
  in
  match next_line 0 with
  | Some (m, pos) when m = magic -> (
      match next_line pos with
      | None -> Error "truncated header (no key line)"
      | Some (escaped_key, pos) -> (
          match next_line pos with
          | None -> Error "truncated header (no digest line)"
          | Some (payload_md5, pos) -> (
              match next_line pos with
              | None -> Error "truncated header (no length line)"
              | Some (len_line, pos) -> (
                  match int_of_string_opt len_line with
                  | None -> Error "unparsable payload length"
                  | Some len when len < 0 -> Error "negative payload length"
                  | Some len ->
                      if String.length contents - pos < len then
                        Error "truncated payload"
                      else
                        let payload = String.sub contents pos len in
                        if Digest.to_hex (Digest.string payload) = payload_md5
                        then Ok (escaped_key, payload)
                        else Error "payload digest mismatch"))))
  | Some _ -> Error "bad magic"
  | None -> Error "empty file"

let read_entry fs path k =
  match decode_entry (fs.Fsio.read_file path) with
  | Error _ -> None
  | Ok (escaped_key, payload) ->
      if escaped_key = String.escaped k.canonical then Some payload else None

(* Standalone structural validation for fsck: checks magic, header
   shape, payload digest, and that the file's basename matches the MD5
   of the canonical key it claims to hold. *)
let validate_file ?(fs = Fsio.real) path =
  match fs.Fsio.read_file path with
  | exception Sys_error m -> Error ("unreadable: " ^ m)
  | contents -> (
      match decode_entry contents with
      | Error reason -> Error reason
      | Ok (escaped_key, _payload) -> (
          match Scanf.unescaped escaped_key with
          | exception (Scanf.Scan_failure _ | Failure _) ->
              Error "unparsable canonical key"
          | canonical ->
              let expected = fingerprint canonical ^ ".entry" in
              if Filename.basename path = expected then Ok canonical
              else Error "filename does not match key digest"))

(* ------------------------------------------------------------------ *)
(* Lookup *)

let find t k =
  match t.dir with
  | None -> None
  | Some dir ->
      let path = entry_path dir k in
      if not (t.fs.Fsio.file_exists path) then begin
        Obs.Metrics.inc m_misses;
        locked t (fun () -> t.stats.misses <- t.stats.misses + 1);
        None
      end
      else begin
        let result = try read_entry t.fs path k with _ -> None in
        locked t (fun () ->
            match result with
            | Some payload ->
                Obs.Metrics.inc m_hits;
                Obs.Metrics.add m_bytes_read (String.length payload);
                t.stats.hits <- t.stats.hits + 1;
                t.stats.bytes_read <- t.stats.bytes_read + String.length payload
            | None ->
                Obs.Metrics.inc m_misses;
                Obs.Metrics.inc m_errors;
                t.stats.misses <- t.stats.misses + 1;
                t.stats.errors <- t.stats.errors + 1);
        result
      end

(* ------------------------------------------------------------------ *)
(* Storage *)

let store t k payload =
  match t.dir with
  | None -> ()
  | Some dir -> (
      let attempt () =
        mkdir_p ~fs:t.fs (shard_dir dir k);
        Fsio.write_atomic ~fs:t.fs (entry_path dir k) (encode_entry k.canonical payload)
      in
      (* A full disk or a racing cleaner can fail one attempt without
         poisoning the sweep: retry transient failures briefly, then
         drop the write — the cache is an accelerator, not a correctness
         dependency. *)
      try
        Error.with_retries ~label:"cache.store" attempt;
        Obs.Metrics.inc m_stores;
        Obs.Metrics.add m_bytes_written (String.length payload);
        locked t (fun () ->
            t.stats.stores <- t.stats.stores + 1;
            t.stats.bytes_written <- t.stats.bytes_written + String.length payload)
      with _ ->
        Obs.Metrics.inc m_errors;
        locked t (fun () -> t.stats.errors <- t.stats.errors + 1))

let memo t k compute =
  match find t k with
  | Some payload -> payload
  | None ->
      let payload = compute () in
      store t k payload;
      payload

let memo_value t k ~encode ~decode compute =
  let recompute () =
    let v = compute () in
    store t k (encode v);
    v
  in
  match find t k with
  | None -> recompute ()
  | Some payload -> (
      match decode payload with
      | Some v -> v
      | None ->
          (* Obs counters are monotone: the raw payload hit above stays
             counted; the decode rejection surfaces as an error + miss. *)
          Obs.Metrics.inc m_errors;
          Obs.Metrics.inc m_misses;
          locked t (fun () ->
              t.stats.errors <- t.stats.errors + 1;
              t.stats.hits <- t.stats.hits - 1;
              t.stats.misses <- t.stats.misses + 1);
          recompute ())

(* ------------------------------------------------------------------ *)
(* Maintenance *)

let clear t =
  match t.dir with
  | None -> ()
  | Some dir ->
      let fs = t.fs in
      let rec rm path =
        if fs.Fsio.file_exists path then
          if fs.Fsio.is_directory path then begin
            Array.iter (fun f -> rm (Filename.concat path f)) (fs.Fsio.readdir path);
            try fs.Fsio.rmdir path with Sys_error _ -> ()
          end
          else try fs.Fsio.remove path with Sys_error _ -> ()
      in
      rm dir
