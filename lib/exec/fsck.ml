(* Offline integrity scan for the on-disk execution state: every cache
   entry under [cache_dir] and every journal under [journal_dir] is
   re-validated against the same invariants the hot paths enforce
   (Cache.validate_file, Journal.parse_line).  Damage is quarantined,
   never deleted:

   - an invalid cache entry is renamed to
     [<cache_dir>/quarantine/<basename>] so the next [Cache.find] is a
     clean miss instead of a per-read parse failure;
   - stray [Fsio.write_atomic] temps ([.tmp-*]) in the cache shards and
     the journal directory, left by a store or a journal repair that
     failed mid-publish, are removed — they were never published,
     nothing references them;
   - a journal with a torn or corrupt tail is rewritten to its valid
     prefix with [Fsio.write_atomic], the dropped bytes saved to
     [<journal_dir>/quarantine/<name>.dropped].

   The scan is idempotent: a second pass over a repaired tree reports
   zero quarantines.  All I/O goes through [Fsio.t], so the chaos suite
   can check that fsck itself survives injected faults. *)

type report = {
  cache_scanned : int;
  cache_valid : int;
  cache_quarantined : int;
  tmp_removed : int;
  journals_scanned : int;
  journal_lines_valid : int;
  journal_lines_dropped : int;
}

let empty_report =
  {
    cache_scanned = 0;
    cache_valid = 0;
    cache_quarantined = 0;
    tmp_removed = 0;
    journals_scanned = 0;
    journal_lines_valid = 0;
    journal_lines_dropped = 0;
  }

let clean r = r.cache_quarantined = 0 && r.journal_lines_dropped = 0

(* [tmp_removed] counts temps swept from the cache shards and the
   journal directory alike, so it is printed after both groups. *)
let pp_report ppf r =
  Format.fprintf ppf
    "cache: scanned=%d valid=%d quarantined=%d@ journal: files=%d \
     lines_valid=%d lines_dropped=%d@ tmp_removed=%d"
    r.cache_scanned r.cache_valid r.cache_quarantined r.journals_scanned
    r.journal_lines_valid r.journal_lines_dropped r.tmp_removed

let m_quarantined kind =
  Obs.Metrics.counter ~labels:[ ("kind", kind) ] "fsck_quarantined_total"

let quarantine_dir_name = "quarantine"

let has_suffix ~suffix s =
  let ls = String.length suffix and n = String.length s in
  n >= ls && String.sub s (n - ls) ls = suffix

let sorted_entries fs dir =
  if fs.Fsio.file_exists dir && fs.Fsio.is_directory dir then begin
    let a = fs.Fsio.readdir dir in
    Array.sort compare a;
    a
  end
  else [||]

(* Move [path] into [root/quarantine/], keeping the basename.  Rename
   within one filesystem; failures are swallowed (a second fsck pass
   will retry) but still counted as quarantined — the entry is known
   bad either way. *)
let quarantine_file ?on_quarantine fs ~root ~kind path =
  let qdir = Filename.concat root quarantine_dir_name in
  (try Stdx.Fsio.mkdir_p ~fs qdir with Sys_error _ -> ());
  (try fs.Fsio.rename path (Filename.concat qdir (Filename.basename path))
   with Sys_error _ -> ());
  Obs.Metrics.inc (m_quarantined kind);
  match on_quarantine with Some f -> f ~kind ~path | None -> ()

(* An unpublished temp: never referenced, safe to delete. *)
let sweep_temp fs path r =
  (try fs.Fsio.remove path with Sys_error _ -> ());
  { r with tmp_removed = r.tmp_removed + 1 }

(* ------------------------------------------------------------------ *)
(* Cache tree *)

let scan_cache ?on_quarantine fs dir r =
  let r = ref r in
  Array.iter
    (fun shard ->
      if shard <> quarantine_dir_name then begin
        let shard_path = Filename.concat dir shard in
        if fs.Fsio.is_directory shard_path then
          Array.iter
            (fun name ->
              let path = Filename.concat shard_path name in
              if Fsio.is_temp name then r := sweep_temp fs path !r
              else if has_suffix ~suffix:".entry" name then begin
                r := { !r with cache_scanned = !r.cache_scanned + 1 };
                match Cache.validate_file ~fs path with
                | Ok _canonical ->
                    r := { !r with cache_valid = !r.cache_valid + 1 }
                | Error _reason ->
                    quarantine_file ?on_quarantine fs ~root:dir
                      ~kind:"cache_entry" path;
                    r :=
                      { !r with cache_quarantined = !r.cache_quarantined + 1 }
              end)
            (sorted_entries fs shard_path)
      end)
    (sorted_entries fs dir);
  !r

(* ------------------------------------------------------------------ *)
(* Journal tree *)

(* Rewrite a damaged journal to its valid prefix with
   [Fsio.write_atomic] (the cache's publication discipline), saving the
   dropped tail bytes beside the quarantined cache entries. *)
let repair_journal ?on_quarantine fs ~root path ~valid ~dropped_bytes =
  let qdir = Filename.concat root quarantine_dir_name in
  (try Stdx.Fsio.mkdir_p ~fs qdir with Sys_error _ -> ());
  let dropped_path =
    Filename.concat qdir (Filename.basename path ^ ".dropped")
  in
  (try fs.Fsio.write_file dropped_path dropped_bytes with Sys_error _ -> ());
  let b = Buffer.create 4096 in
  Buffer.add_string b Journal.magic;
  Buffer.add_char b '\n';
  List.iter
    (fun (line, _digest) ->
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    valid;
  (try Fsio.write_atomic ~fs path (Buffer.contents b) with Sys_error _ -> ());
  Obs.Metrics.inc (m_quarantined "journal_tail");
  match on_quarantine with
  | Some f -> f ~kind:"journal_tail" ~path
  | None -> ()

let scan_journal ?on_quarantine fs ~root path r =
  match fs.Fsio.read_file path with
  | exception Sys_error _ ->
      quarantine_file ?on_quarantine fs ~root ~kind:"journal_unreadable" path;
      { r with journals_scanned = r.journals_scanned + 1 }
  | contents -> (
      let r = { r with journals_scanned = r.journals_scanned + 1 } in
      match Journal.split_lines contents with
      | header :: lines when header = Journal.magic ->
          let valid = Journal.valid_prefix lines in
          let n_valid = List.length valid in
          let n_dropped = List.length lines - n_valid in
          let r =
            { r with journal_lines_valid = r.journal_lines_valid + n_valid }
          in
          if n_dropped = 0 then r
          else begin
            (* Byte offset where the first invalid line starts: header +
               every valid line, each '\n'-terminated. *)
            let ok_bytes =
              List.fold_left
                (fun acc (line, _) -> acc + String.length line + 1)
                (String.length header + 1)
                valid
            in
            let dropped_bytes =
              String.sub contents ok_bytes (String.length contents - ok_bytes)
            in
            repair_journal ?on_quarantine fs ~root path ~valid ~dropped_bytes;
            { r with journal_lines_dropped = r.journal_lines_dropped + n_dropped }
          end
      | _ ->
          (* Not a journal at all (bad or missing header): quarantine the
             whole file rather than guess at its contents. *)
          quarantine_file ?on_quarantine fs ~root ~kind:"journal_header" path;
          r)

let scan_journals ?on_quarantine fs dir r =
  let r = ref r in
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      if Fsio.is_temp name then r := sweep_temp fs path !r
      else if has_suffix ~suffix:".journal" name then
        r := scan_journal ?on_quarantine fs ~root:dir path !r)
    (sorted_entries fs dir);
  !r

(* ------------------------------------------------------------------ *)

let run ?(fs = Fsio.real) ?(cache_dir = Cache.default_dir)
    ?(journal_dir = Journal.default_dir) ?on_quarantine () =
  let r = scan_cache ?on_quarantine fs cache_dir empty_report in
  scan_journals ?on_quarantine fs journal_dir r
