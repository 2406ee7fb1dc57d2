(* Tests for the fault-injection layer: plans, the injector, runtime
   integration (drop/duplicate/corrupt/delay/crash), structured failure
   reporting via run_checked, the lazy trace index, and the harden
   reliable-delivery combinator.

   The load-bearing claims, mirrored from docs/FAULTS.md:
   - replay: identical (config.seed, plan) => byte-identical traces;
   - hardened algorithms produce the exact fault-free outputs under
     drop/duplicate/corrupt/delay plans;
   - Theorem 5's T*2|cut|*B cap bounds ATTEMPTED cut traffic even when a
     plan drops part of it, and delivered = attempted - dropped + dup. *)

module Build = Wgraph.Build
module Msg = Congest.Msg
module Program = Congest.Program
module Runtime = Congest.Runtime
module Trace = Congest.Trace
module Faults = Congest.Faults
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Plans *)

let test_link_validation () =
  check "valid" true (Faults.link ~drop:0.5 () = Faults.link ~drop:0.5 ());
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "drop > 1" true (rejects (fun () -> Faults.link ~drop:1.5 ()));
  check "negative dup" true (rejects (fun () -> Faults.link ~duplicate:(-0.1) ()));
  check "negative delay" true (rejects (fun () -> Faults.link ~max_delay:(-1) ()));
  check "negative crash round" true
    (rejects (fun () -> Faults.plan ~crashes:[ (0, -1) ] 1));
  check "negative crash node" true
    (rejects (fun () -> Faults.plan ~crashes:[ (-2, 0) ] 1))

(* NaN compares false with everything, so a range check written as
   [p < 0 || p > 1] would let it through. *)
let test_link_rejects_nan () =
  let rejects f = try ignore (f ()); false with Invalid_argument _ -> true in
  check "drop nan" true (rejects (fun () -> Faults.link ~drop:Float.nan ()));
  check "duplicate nan" true
    (rejects (fun () -> Faults.link ~duplicate:Float.nan ()));
  check "corrupt nan" true (rejects (fun () -> Faults.link ~corrupt:Float.nan ()))

let test_crash_round () =
  let p = Faults.plan ~crashes:[ (3, 7); (3, 2); (5, 0) ] 1 in
  Alcotest.(check (option int)) "earliest wins" (Some 2)
    (Faults.crash_round p ~node:3);
  Alcotest.(check (option int)) "exact" (Some 0) (Faults.crash_round p ~node:5);
  Alcotest.(check (option int)) "absent" None (Faults.crash_round p ~node:0)

(* ------------------------------------------------------------------ *)
(* Injector decisions *)

let msg8 = Msg.int_msg ~width:8 170 (* 0b10101010 *)

let test_injector_drop_certain () =
  let inj = Faults.injector (Faults.plan ~default:(Faults.link ~drop:1.0 ()) 3) in
  let copies, events = Faults.apply inj ~src:0 ~dst:1 msg8 in
  check_int "no copies" 0 (List.length copies);
  check "dropped event" true (events = [ Trace.Dropped ])

let test_injector_duplicate_certain () =
  let inj =
    Faults.injector (Faults.plan ~default:(Faults.link ~duplicate:1.0 ()) 3)
  in
  let copies, events = Faults.apply inj ~src:0 ~dst:1 msg8 in
  check_int "two copies" 2 (List.length copies);
  check "both intact" true
    (List.for_all (fun (_, (m : Msg.t)) -> m.Msg.payload = msg8.Msg.payload) copies);
  check "duplicated event" true (List.mem Trace.Duplicated events)

let test_injector_corrupt_certain () =
  let inj =
    Faults.injector (Faults.plan ~default:(Faults.link ~corrupt:1.0 ()) 3)
  in
  let copies, events = Faults.apply inj ~src:0 ~dst:1 msg8 in
  (match copies with
  | [ (0, m) ] ->
      check "payload perturbed" true (m.Msg.payload <> msg8.Msg.payload);
      check_int "declared size unchanged" msg8.Msg.bits m.Msg.bits
  | _ -> Alcotest.fail "expected one immediate copy");
  check "corrupted event" true (List.mem Trace.Corrupted events)

let test_injector_delay_bounded () =
  let inj =
    Faults.injector (Faults.plan ~default:(Faults.link ~max_delay:3 ()) 3)
  in
  for _ = 1 to 50 do
    let copies, _ = Faults.apply inj ~src:0 ~dst:1 msg8 in
    List.iter (fun (d, _) -> check "0 <= d <= 3" true (d >= 0 && d <= 3)) copies
  done

let test_injector_per_link_override () =
  let inj =
    Faults.injector
      (Faults.plan
         ~links:[ ((0, 1), Faults.link ~drop:1.0 ()) ]
         42)
  in
  let copies01, _ = Faults.apply inj ~src:0 ~dst:1 msg8 in
  let copies10, _ = Faults.apply inj ~src:1 ~dst:0 msg8 in
  check_int "overridden link drops" 0 (List.length copies01);
  check_int "reverse direction clean" 1 (List.length copies10)

let test_corrupt_msg_kinds () =
  let rng = Prng.create 9 in
  let m = Faults.corrupt_msg rng msg8 in
  check "int flipped" true (m.Msg.payload <> msg8.Msg.payload);
  check_int "bits kept" 8 m.Msg.bits;
  let b = Faults.corrupt_msg rng (Msg.bool_msg true) in
  check "bool negated" true (b.Msg.payload = (Msg.bool_msg false).Msg.payload);
  let u = Faults.corrupt_msg rng Msg.unit_msg in
  check "unit unchanged" true (u.Msg.payload = Msg.unit_msg.Msg.payload)

(* ------------------------------------------------------------------ *)
(* Runtime integration *)

let cfg ?(factor = 4) ?(max_rounds = 10_000) ?(seed = 42) faults =
  { Runtime.default_config with Runtime.bandwidth_factor = factor; max_rounds; seed; faults }

let test_runtime_drop_all_isolates () =
  (* Every message dropped: flooding teaches nobody anything. *)
  let g = Build.path 5 in
  let plan = Faults.plan ~default:(Faults.link ~drop:1.0 ()) 7 in
  let r = Runtime.run ~config:(cfg (Some plan)) (Congest.Algo_flood.max_id ~rounds:5) g in
  Array.iteri
    (fun v o -> Alcotest.(check (option int)) "only own id" (Some v) o)
    r.Runtime.outputs;
  let tr = r.Runtime.trace in
  check "every send dropped" true (Trace.dropped_bits tr = Trace.total_bits tr);
  check "events recorded" true (Trace.total_faults tr = Trace.total_messages tr)

let test_runtime_duplicates_harmless_for_flood () =
  let g = Build.path 5 in
  let plan = Faults.plan ~default:(Faults.link ~duplicate:1.0 ()) 7 in
  let r = Runtime.run ~config:(cfg (Some plan)) (Congest.Algo_flood.max_id ~rounds:5) g in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "max reached" (Some 4) o)
    r.Runtime.outputs;
  let tr = r.Runtime.trace in
  check "duplicated bits = attempted bits" true
    (Trace.duplicated_bits tr = Trace.total_bits tr)

let test_runtime_delay_eventually_delivers () =
  (* Delays defer but never lose: with a generous round budget the flood
     still saturates, and Delayed events appear in the trace. *)
  let g = Build.path 5 in
  let plan = Faults.plan ~default:(Faults.link ~max_delay:2 ()) 5 in
  let r =
    Runtime.run ~config:(cfg (Some plan)) (Congest.Algo_flood.max_id ~rounds:20) g
  in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "max reached" (Some 4) o)
    r.Runtime.outputs;
  let delayed =
    Array.exists
      (fun (f : Trace.fault) -> match f.Trace.kind with Trace.Delayed d -> d > 0 | _ -> false)
      (Trace.fault_events r.Runtime.trace)
  in
  check "some send actually delayed" true delayed;
  check "nothing dropped" true (Trace.dropped_bits r.Runtime.trace = 0)

let test_runtime_crash_stop () =
  (* Path 0-1-2-3, node 1 crashes at round 2: the crash severs the only
     route, so node 0 never learns about node 3. *)
  let g = Build.path 4 in
  let plan = Faults.plan ~crashes:[ (1, 2) ] 7 in
  let r =
    Runtime.run ~config:(cfg (Some plan)) (Congest.Algo_flood.max_id ~rounds:8) g
  in
  check "crashed flag" true r.Runtime.crashed.(1);
  check "others alive" true
    (not (r.Runtime.crashed.(0) || r.Runtime.crashed.(2) || r.Runtime.crashed.(3)));
  check "crash event recorded" true
    (Array.exists
       (fun (f : Trace.fault) ->
         f.Trace.kind = Trace.Crashed && f.Trace.src = 1 && f.Trace.round = 2)
       (Trace.fault_events r.Runtime.trace));
  check "0 never learns 3" true (r.Runtime.outputs.(0) <> Some 3);
  check "run still terminates" true r.Runtime.all_halted

let test_runtime_crash_at_round_zero () =
  let g = Build.path 3 in
  let plan = Faults.plan ~crashes:[ (1, 0) ] 7 in
  let r =
    Runtime.run ~config:(cfg (Some plan)) (Congest.Algo_flood.max_id ~rounds:4) g
  in
  check "crashed immediately" true r.Runtime.crashed.(1);
  (* The crashed node never stepped, so it never sent a bit. *)
  check_int "no bits from node 1" 0
    (Trace.bits_on_edge r.Runtime.trace ~src:1 ~dst:0
    + Trace.bits_on_edge r.Runtime.trace ~src:1 ~dst:2)

let test_replay_determinism () =
  let g = Build.erdos_renyi (Prng.create 31) 12 0.3 in
  let plan =
    Faults.plan
      ~default:(Faults.link ~drop:0.2 ~duplicate:0.1 ~corrupt:0.1 ~max_delay:2 ())
      99
  in
  let once () = Runtime.run ~config:(cfg (Some plan)) Congest.Algo_luby.mis g in
  let r1 = once () and r2 = once () in
  check "same outputs" true (r1.Runtime.outputs = r2.Runtime.outputs);
  check "identical trace digest" true
    (Trace.digest r1.Runtime.trace = Trace.digest r2.Runtime.trace);
  (* A different fault seed must perturb the execution. *)
  let plan' = { plan with Faults.seed = 100 } in
  let r3 = Runtime.run ~config:(cfg (Some plan')) Congest.Algo_luby.mis g in
  check "different fault seed, different trace" true
    (Trace.digest r1.Runtime.trace <> Trace.digest r3.Runtime.trace)

(* ------------------------------------------------------------------ *)
(* run_checked: structured failures *)

let hog_program =
  {
    Program.name = "bandwidth-hog";
    spawn =
      (fun view ->
        let halted = ref false in
        {
          Program.step =
            (fun ~round:_ ~inbox:_ ->
              halted := true;
              match view.Program.neighbors with
              | [||] -> []
              | nbrs -> List.init 50 (fun _ -> (nbrs.(0), Msg.int_msg ~width:8 1)));
          halted = (fun () -> !halted);
          output = (fun () -> None);
        });
  }

let rogue_program =
  {
    Program.name = "rogue";
    spawn =
      (fun view ->
        let halted = ref false in
        {
          Program.step =
            (fun ~round:_ ~inbox:_ ->
              halted := true;
              if view.Program.id = 0 then [ (2, Msg.unit_msg) ] else []);
          halted = (fun () -> !halted);
          output = (fun () -> None);
        });
  }

let test_checked_oversend () =
  match Runtime.run_checked hog_program (Build.path 2) with
  | Ok _ -> Alcotest.fail "oversend not detected"
  | Error { Runtime.round; src; reason; trace_prefix } -> (
      check_int "round" 0 round;
      check "src is an endpoint" true (src = 0 || src = 1);
      match reason with
      | Runtime.Oversend { bits; limit; dst = _ } ->
          check "bits exceed limit" true (bits > limit);
          (* The prefix stops before the violating send. *)
          check "prefix within budget" true
            (Trace.max_bits_per_edge_round trace_prefix <= limit)
      | _ -> Alcotest.fail "wrong reason")

let test_checked_non_neighbor () =
  match Runtime.run_checked rogue_program (Build.path 3) with
  | Ok _ -> Alcotest.fail "illegal recipient not detected"
  | Error { Runtime.round; src; reason; _ } -> (
      check_int "round" 0 round;
      check_int "src" 0 src;
      match reason with
      | Runtime.Non_neighbor { dst } -> check_int "dst" 2 dst
      | _ -> Alcotest.fail "wrong reason")

let test_checked_happy_path () =
  let g = Build.cycle 6 in
  match Runtime.run_checked (Congest.Algo_flood.max_id ~rounds:6) g with
  | Error _ -> Alcotest.fail "clean run reported a failure"
  | Ok r ->
      let plain = Runtime.run (Congest.Algo_flood.max_id ~rounds:6) g in
      check "same as run" true (r.Runtime.outputs = plain.Runtime.outputs)

let test_pp_failure_mentions_context () =
  match Runtime.run_checked rogue_program (Build.path 3) with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error f ->
      let s = Format.asprintf "%a" Runtime.pp_failure f in
      check "mentions round" true (contains s "round");
      check "mentions node 0" true (contains s "0")

(* ------------------------------------------------------------------ *)
(* Lazy trace index (satellite: O(1) repeated queries, correct under
   interleaved mutation) *)

let test_trace_index_interleaved () =
  let tr = Trace.create () in
  Trace.record_send tr ~round:0 ~src:0 ~dst:1 ~bits:3;
  Trace.record_send tr ~round:0 ~src:1 ~dst:0 ~bits:4;
  Trace.record_send tr ~round:2 ~src:0 ~dst:1 ~bits:5;
  (* First query builds the index. *)
  check_int "round 0 bits" 7 (Trace.bits_in_round tr 0);
  check_int "round 1 bits" 0 (Trace.bits_in_round tr 1);
  check_int "round 2 msgs" 1 (Trace.messages_in_round tr 2);
  check_int "edge 0->1" 8 (Trace.bits_on_edge tr ~src:0 ~dst:1);
  (* Mutate after the index exists: it must be invalidated, not stale. *)
  Trace.record_send tr ~round:2 ~src:0 ~dst:1 ~bits:11;
  check_int "edge 0->1 after append" 19 (Trace.bits_on_edge tr ~src:0 ~dst:1);
  check_int "round 2 bits after append" 16 (Trace.bits_in_round tr 2);
  Trace.record_fault tr ~round:3 ~src:0 ~dst:1 ~bits:11 ~kind:Trace.Dropped;
  check_int "rounds cover fault rounds" 4 (Trace.rounds tr);
  check_int "dropped" 11 (Trace.dropped_bits tr);
  (* Out-of-range queries are total. *)
  check_int "negative round" 0 (Trace.bits_in_round tr (-1));
  check_int "beyond last round" 0 (Trace.bits_in_round tr 50);
  check_int "unknown edge" 0 (Trace.bits_on_edge tr ~src:5 ~dst:6)

let test_trace_index_matches_fold () =
  (* Random traffic: the indexed queries must agree with a direct fold. *)
  let rng = Prng.create 17 in
  let tr = Trace.create () in
  let sends = ref [] in
  for _ = 1 to 500 do
    let round = Prng.int rng 20
    and src = Prng.int rng 8
    and dst = Prng.int rng 8
    and bits = 1 + Prng.int rng 12 in
    Trace.record_send tr ~round ~src ~dst ~bits;
    sends := (round, src, dst, bits) :: !sends
  done;
  let fold_bits r =
    List.fold_left
      (fun acc (r', _, _, b) -> if r' = r then acc + b else acc)
      0 !sends
  and fold_edge s d =
    List.fold_left
      (fun acc (_, s', d', b) -> if s' = s && d' = d then acc + b else acc)
      0 !sends
  in
  for r = 0 to 19 do
    check_int (Printf.sprintf "round %d" r) (fold_bits r) (Trace.bits_in_round tr r)
  done;
  for s = 0 to 7 do
    for d = 0 to 7 do
      check_int "edge" (fold_edge s d) (Trace.bits_on_edge tr ~src:s ~dst:d)
    done
  done

let test_trace_delivered_identity () =
  let tr = Trace.create () in
  let part = [| 0; 1 |] in
  Trace.record_send tr ~round:0 ~src:0 ~dst:1 ~bits:10;
  Trace.record_send tr ~round:0 ~src:1 ~dst:0 ~bits:20;
  Trace.record_fault tr ~round:0 ~src:0 ~dst:1 ~bits:10 ~kind:Trace.Dropped;
  Trace.record_fault tr ~round:0 ~src:1 ~dst:0 ~bits:20 ~kind:Trace.Duplicated;
  check_int "attempted" 30 (Trace.cut_bits tr part);
  check_int "dropped" 10 (Trace.cut_bits_dropped tr part);
  check_int "duplicated" 20 (Trace.cut_bits_duplicated tr part);
  check_int "delivered = attempted - dropped + dup" 40
    (Trace.cut_bits_delivered tr part)

(* ------------------------------------------------------------------ *)
(* harden: reliable delivery *)

(* id_width(16) = 4, so factor 64 gives 256 >= 131 bits for hardened
   frames. *)
let harden_graph () = Build.erdos_renyi (Prng.create 23) 16 0.35
let harden_cfg faults = cfg ~factor:64 ~max_rounds:800 faults

let chaos_plan seed =
  Faults.plan
    ~default:(Faults.link ~drop:0.2 ~duplicate:0.1 ~corrupt:0.1 ~max_delay:2 ())
    seed

let check_harden_equiv : type o. o Program.t -> Faults.plan option -> unit =
 fun program plan ->
  let g = harden_graph () in
  let base = Runtime.run ~config:(harden_cfg None) program g in
  let hard = Runtime.run ~config:(harden_cfg plan) (Faults.harden program) g in
  check "hardened halted" true hard.Runtime.all_halted;
  check "outputs equal fault-free" true (hard.Runtime.outputs = base.Runtime.outputs)

let test_harden_no_fault_equiv () =
  check_harden_equiv (Congest.Algo_flood.max_id ~rounds:8) None;
  check_harden_equiv (Congest.Algo_bfs.distances ~root:0 ~rounds:8) None;
  check_harden_equiv Congest.Algo_luby.mis None

let test_harden_drop_equiv () =
  let plan = Some (Faults.plan ~default:(Faults.link ~drop:0.2 ()) 5) in
  check_harden_equiv (Congest.Algo_flood.max_id ~rounds:8) plan;
  check_harden_equiv (Congest.Algo_bfs.distances ~root:0 ~rounds:8) plan;
  check_harden_equiv Congest.Algo_luby.mis plan

let test_harden_chaos_equiv () =
  check_harden_equiv (Congest.Algo_bfs.distances ~root:0 ~rounds:8)
    (Some (chaos_plan 6));
  check_harden_equiv Congest.Algo_luby.mis (Some (chaos_plan 7))

let test_harden_corruption_detected () =
  (* Heavy corruption alone: checksums catch every flip, retransmission
     repairs, outputs stay exact. *)
  let plan = Some (Faults.plan ~default:(Faults.link ~corrupt:0.3 ()) 8) in
  check_harden_equiv (Congest.Algo_flood.max_id ~rounds:8) plan

let test_harden_costs_more_bits () =
  let g = harden_graph () in
  let program = Congest.Algo_luby.mis in
  let base = Runtime.run ~config:(harden_cfg None) program g in
  let hard = Runtime.run ~config:(harden_cfg None) (Faults.harden program) g in
  check "reliability costs bits" true
    (Trace.total_bits hard.Runtime.trace > Trace.total_bits base.Runtime.trace);
  check "and rounds" true
    (hard.Runtime.rounds_executed > base.Runtime.rounds_executed)

let test_harden_replay () =
  let g = harden_graph () in
  let run () =
    Runtime.run
      ~config:(harden_cfg (Some (chaos_plan 13)))
      (Faults.harden Congest.Algo_luby.mis)
      g
  in
  let r1 = run () and r2 = run () in
  check "hardened replay digest" true
    (Trace.digest r1.Runtime.trace = Trace.digest r2.Runtime.trace)

let test_harden_combined_dup_corrupt () =
  (* Duplication and corruption composed on every link (plus delay):
     checksums catch the flips, sequence numbers discard the copies, and
     outputs stay exactly fault-free. *)
  let plan =
    Some
      (Faults.plan
         ~default:(Faults.link ~duplicate:0.2 ~corrupt:0.2 ~max_delay:2 ())
         17)
  in
  check_harden_equiv (Congest.Algo_flood.max_id ~rounds:8) plan;
  check_harden_equiv Congest.Algo_luby.mis plan

let test_harden_combined_with_crash () =
  (* duplicate + corrupt + a crash mid-retransmit.  harden masks message
     faults, not crash faults: a dead peer stalls its neighbors'
     stop-and-wait, so the run may only end at max_rounds and outputs
     need not match the fault-free run.  What must still hold: the crash
     is recorded, the message faults actually fired, the run terminates,
     and the whole thing replays bit-identically. *)
  let g = harden_graph () in
  let plan =
    Faults.plan
      ~default:(Faults.link ~duplicate:0.2 ~corrupt:0.2 ())
      ~crashes:[ (3, 2) ]
      29
  in
  let run () =
    Runtime.run
      ~config:(harden_cfg (Some plan))
      (Faults.harden Congest.Algo_luby.mis)
      g
  in
  let r1 = run () in
  check "crashed flag" true r1.Runtime.crashed.(3);
  let kinds =
    Array.map
      (fun (f : Trace.fault) -> f.Trace.kind)
      (Trace.fault_events r1.Runtime.trace)
  in
  let has k = Array.exists (fun k' -> k' = k) kinds in
  check "duplication fired" true (has Trace.Duplicated);
  check "corruption fired" true (has Trace.Corrupted);
  check "crash recorded" true (has Trace.Crashed);
  check "run terminates" true (r1.Runtime.rounds_executed <= 800);
  let r2 = run () in
  check "replay digest" true
    (Trace.digest r1.Runtime.trace = Trace.digest r2.Runtime.trace);
  check "replay outputs" true (r1.Runtime.outputs = r2.Runtime.outputs)

(* ------------------------------------------------------------------ *)
(* Simulation metering under faults + the fault-free referee guard *)

let lf_instance () =
  let p = Maxis_core.Params.make ~alpha:1 ~ell:4 ~players:3 in
  let rng = Prng.create 3 in
  let x =
    Commcx.Inputs.gen_promise rng ~k:(Maxis_core.Params.k p)
      ~t:p.Maxis_core.Params.players ~intersecting:true
  in
  Maxis_core.Linear_family.instance p x

let test_simulation_attempted_bound_under_faults () =
  let inst = lf_instance () in
  let plan = Faults.plan ~default:(Faults.link ~drop:0.15 ~duplicate:0.05 ()) 21 in
  let config = cfg (Some plan) in
  match Maxis_core.Simulation.simulate_checked ~config Congest.Algo_luby.mis inst with
  | Error f ->
      Alcotest.failf "unexpected failure: %a" Runtime.pp_failure f
  | Ok (result, r) ->
      check "faults actually fired" true (r.Maxis_core.Simulation.faults_injected > 0);
      (* Theorem 5's cap bounds attempted traffic, drops notwithstanding. *)
      check "attempted within T*2cut*B" true r.Maxis_core.Simulation.within_bound;
      let tr = result.Runtime.trace in
      let part = inst.Maxis_core.Family.partition in
      check_int "delivered identity"
        (Trace.cut_bits tr part
        - Trace.cut_bits_dropped tr part
        + Trace.cut_bits_duplicated tr part)
        r.Maxis_core.Simulation.blackboard_bits_delivered;
      check "report mirrors trace" true
        (r.Maxis_core.Simulation.blackboard_bits_dropped
        = Trace.cut_bits_dropped tr part)

let test_player_sim_rejects_faults () =
  let inst = lf_instance () in
  let config = cfg (Some (Faults.plan ~default:(Faults.link ~drop:0.1 ()) 2)) in
  check "referee refuses fault plans" true
    (try
       ignore (Maxis_core.Player_sim.run ~config Congest.Algo_luby.mis inst);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "faults"
    [
      ( "plan",
        [
          Alcotest.test_case "link validation" `Quick test_link_validation;
          Alcotest.test_case "NaN probability rejected" `Quick test_link_rejects_nan;
          Alcotest.test_case "crash round" `Quick test_crash_round;
        ] );
      ( "injector",
        [
          Alcotest.test_case "drop certain" `Quick test_injector_drop_certain;
          Alcotest.test_case "duplicate certain" `Quick test_injector_duplicate_certain;
          Alcotest.test_case "corrupt certain" `Quick test_injector_corrupt_certain;
          Alcotest.test_case "delay bounded" `Quick test_injector_delay_bounded;
          Alcotest.test_case "per-link override" `Quick test_injector_per_link_override;
          Alcotest.test_case "corrupt_msg kinds" `Quick test_corrupt_msg_kinds;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "drop-all isolates" `Quick test_runtime_drop_all_isolates;
          Alcotest.test_case "duplicates harmless" `Quick test_runtime_duplicates_harmless_for_flood;
          Alcotest.test_case "delay delivers" `Quick test_runtime_delay_eventually_delivers;
          Alcotest.test_case "crash stop" `Quick test_runtime_crash_stop;
          Alcotest.test_case "crash at round 0" `Quick test_runtime_crash_at_round_zero;
          Alcotest.test_case "replay determinism" `Quick test_replay_determinism;
        ] );
      ( "run-checked",
        [
          Alcotest.test_case "oversend" `Quick test_checked_oversend;
          Alcotest.test_case "non-neighbor" `Quick test_checked_non_neighbor;
          Alcotest.test_case "happy path" `Quick test_checked_happy_path;
          Alcotest.test_case "pp context" `Quick test_pp_failure_mentions_context;
        ] );
      ( "trace-index",
        [
          Alcotest.test_case "interleaved mutation" `Quick test_trace_index_interleaved;
          Alcotest.test_case "matches direct fold" `Quick test_trace_index_matches_fold;
          Alcotest.test_case "delivered identity" `Quick test_trace_delivered_identity;
        ] );
      ( "harden",
        [
          Alcotest.test_case "no-fault equivalence" `Quick test_harden_no_fault_equiv;
          Alcotest.test_case "drop equivalence" `Quick test_harden_drop_equiv;
          Alcotest.test_case "chaos equivalence" `Quick test_harden_chaos_equiv;
          Alcotest.test_case "corruption detected" `Quick test_harden_corruption_detected;
          Alcotest.test_case "costs more bits" `Quick test_harden_costs_more_bits;
          Alcotest.test_case "hardened replay" `Quick test_harden_replay;
          Alcotest.test_case "combined dup+corrupt" `Quick
            test_harden_combined_dup_corrupt;
          Alcotest.test_case "combined with crash" `Quick
            test_harden_combined_with_crash;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "attempted bound under faults" `Quick
            test_simulation_attempted_bound_under_faults;
          Alcotest.test_case "referee rejects faults" `Quick
            test_player_sim_rejects_faults;
        ] );
    ]
