(* perfbench: one workload, one run.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
               [--rev REV] [--nproc N]

   Prints a human-readable block (provenance, workload facts, every
   metric with its unit) and, as the last line of stdout, the JSON
   result object.  The daemon's socket, the timing samples and the span
   dump live under .perfbench/ in the working directory. *)

open Perfbench
module H = Harness
module W = Workloads

(* Later performance claims must also hold on this seed, which is never
   used while tuning a change. *)
let held_out_seed = 7919

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 \
     [--rev REV] [--nproc N]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and traced = ref false in
  let rev = ref "unknown" and nproc = ref 0 in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> traced := v = "1"; parse rest
    | "--rev" :: v :: rest -> rev := v; parse rest
    | "--nproc" :: v :: rest -> nproc := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload W.all with Some f -> f | None -> usage ()
  in
  let base = ".perfbench" in
  let dir = Filename.concat base (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists base) then Sys.mkdir base 0o755;
  W.rm_rf dir;
  Sys.mkdir dir 0o755;
  let ctx = { W.size = W.full; seed = !seed; seconds = !seconds; traced = !traced; dir } in
  let outcome =
    match run ctx with
    | o -> H.stop_probes (); W.rm_rf dir; o
    | exception e ->
        H.stop_probes ();
        W.rm_rf dir;
        Printf.eprintf "perfbench: %s failed: %s\n%!" !workload (Printexc.to_string e);
        exit 1
  in
  let provenance =
    [
      ("workload", H.json_string !workload);
      ("seed", string_of_int !seed);
      ("held_out_seed", string_of_int held_out_seed);
      ("seconds", Printf.sprintf "%g" !seconds);
      ("traced", string_of_bool !traced);
      ("host_domains", string_of_int (Domain.recommended_domain_count ()));
      ("nproc", string_of_int !nproc);
      ("ocaml", H.json_string Sys.ocaml_version);
      ("rev", H.json_string !rev);
    ]
  in
  print_endline ("provenance " ^ H.json_object provenance);
  List.iter (fun (k, v) -> Printf.printf "  %-24s %s\n" k v) outcome.H.info;
  let t = outcome.H.tally in
  Printf.printf "  %-24s %.6f (%d failed of %d checked)%s\n" "fail_frac"
    (if t.H.attempted = 0 then 1.0
     else float_of_int t.H.failed /. float_of_int t.H.attempted)
    t.H.failed t.H.attempted
    (if t.H.first_failure = "" then "" else "; first: " ^ t.H.first_failure);
  let metrics = if !traced then outcome.H.layers else outcome.H.end_to_end in
  List.iter
    (fun mt -> Printf.printf "  %-24s %.6g %s\n" mt.H.name mt.H.value mt.H.unit_)
    metrics;
  let samples = Filename.concat base (Printf.sprintf "samples-%s.csv" !workload) in
  H.write_samples samples outcome.H.samples;
  Printf.printf "  %-24s %s\n" "samples" samples;
  if !traced then begin
    let path = Filename.concat base (Printf.sprintf "spans-%s.csv" !workload) in
    Spans.write path;
    Printf.printf "  %-24s %s\n" "spans" path
  end;
  print_endline
    (H.result_line
       ~correct:(t.H.failed = 0 && t.H.attempted > 0)
       ~attempted:t.H.attempted ~failed:t.H.failed metrics)
