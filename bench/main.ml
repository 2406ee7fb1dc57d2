(* The experiment harness: regenerates every figure and theorem-level
   artifact of the paper (see DESIGN.md section 3 for the index, and
   EXPERIMENTS.md for recorded paper-vs-measured results).

   Usage:
     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- list    # list experiment ids
     dune exec bench/main.exe -- F1 SIM  # run a subset *)

let experiments =
  [
    ("F1-F6", "paper figures 1-6 regenerated", Exp_figures.run);
    ("T1-gap", "linear gap vs t (Lemma 2)", Exp_gaps.run);
    ("T1-bound", "Theorems 1/2 round bounds + baseline", Exp_bounds.run);
    ("SIM", "Theorem 5 simulation + CC + Limitations", Exp_sim.run);
    ("UNW", "Remark 1 unweighted transform", Exp_unweighted.run);
    ("ABL", "ablations: code distance, bandwidth, broadcast", Exp_ablations.run);
    ("FAULTS", "fault injection: hardened delivery vs adversarial links", Exp_faults.run);
    ("OBS", "metrics + span profile of one pipeline cell", Exp_obs.run);
    ("CHAOS", "supervised execution under combined fault plans", Exp_chaos.run);
    ("SERVE", "solve daemon: capabilities + multi-client load", Exp_serve.run);
    ("NETCHAOS", "serving layer under network chaos", Exp_netchaos.run);
  ]

(* Subsets of the umbrella ids, so `-- T2-gap` etc. also work. *)
let aliases =
  [
    ("F1", "F1-F6");
    ("F2", "F1-F6");
    ("F3", "F1-F6");
    ("F4-F6", "F1-F6");
    ("T2-gap", "T1-gap");
    ("T2-bound", "T1-bound");
    ("BASE", "T1-bound");
    ("CC", "SIM");
    ("LIM", "SIM");
    ("ABL-code", "ABL");
    ("ABL-bandwidth", "ABL");
    ("ABL-broadcast", "ABL");
  ]

let () =
  (* Retry backoff should yield the CPU, not spin: the library default
     exists only because lib/exec carries no unix dependency. *)
  Exec.Error.set_default_sleep Unix.sleepf;
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [ "list" ] ->
      List.iter (fun (id, doc, _) -> Printf.printf "%-10s %s\n" id doc) experiments;
      List.iter (fun (a, target) -> Printf.printf "%-10s -> %s\n" a target) aliases
  | [] ->
      print_endline
        "Reproduction harness for 'Beyond Alice and Bob' (Efron, Grossman, \
         Khoury; PODC 2020).";
      print_endline
        "The paper is a lower-bound paper: its artifacts are gadget figures \
         and theorem-level";
      print_endline
        "gaps/bounds, all regenerated below.  See EXPERIMENTS.md for the \
         paper-vs-measured record.";
      List.iter (fun (_, _, run) -> run ()) experiments
  | ids ->
      let resolve id =
        match List.assoc_opt id aliases with Some t -> t | None -> id
      in
      List.iter
        (fun id ->
          let id = resolve id in
          match
            List.find_opt (fun (eid, _, _) -> eid = id) experiments
          with
          | Some (_, _, run) -> run ()
          | None ->
              Printf.eprintf "unknown experiment %s (try `list`)\n" id;
              exit 1)
        ids
