(* Tests for the CONGEST simulator: messages, runtime semantics, bandwidth
   enforcement, traces, and the distributed algorithms. *)

module Graph = Wgraph.Graph
module Build = Wgraph.Build
module Msg = Congest.Msg
module Program = Congest.Program
module Runtime = Congest.Runtime
module Trace = Congest.Trace
module Bitset = Stdx.Bitset
module Prng = Stdx.Prng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Msg *)

let test_msg_sizes () =
  check_int "unit" 1 Msg.unit_msg.Msg.bits;
  check_int "bool" 1 (Msg.bool_msg true).Msg.bits;
  check_int "int" 5 (Msg.int_msg ~width:5 31).Msg.bits;
  check_int "pair" 9 (Msg.pair_msg ~widths:(4, 5) (15, 31)).Msg.bits;
  check_int "triple" 12 (Msg.triple_msg ~widths:(2, 5, 5) (3, 0, 31)).Msg.bits

let test_msg_overflow_rejected () =
  Alcotest.check_raises "too big" (Invalid_argument "Msg: value 32 does not fit in 5 bits")
    (fun () -> ignore (Msg.int_msg ~width:5 32));
  Alcotest.check_raises "negative" (Invalid_argument "Msg: negative payload")
    (fun () -> ignore (Msg.int_msg ~width:5 (-1)))

let test_id_width () =
  check_int "n=2" 1 (Msg.id_width ~n:2);
  check_int "n=3" 2 (Msg.id_width ~n:3);
  check_int "n=1024" 10 (Msg.id_width ~n:1024);
  check_int "n=1 (clamped)" 1 (Msg.id_width ~n:1)

(* ------------------------------------------------------------------ *)
(* Runtime semantics *)

(* A program that sends its id to all neighbors in round 0 and records what
   it receives in round 1, then halts. *)
let echo_once_program collected =
  {
    Program.name = "echo-once";
    spawn =
      (fun view ->
        let halted = ref false in
        {
          Program.step =
            (fun ~round ~inbox ->
              match round with
              | 0 ->
                  Array.to_list
                    (Array.map
                       (fun nb -> (nb, Msg.id_msg ~n:view.Program.n view.Program.id))
                       view.Program.neighbors)
              | _ ->
                  List.iter
                    (fun (src, (m : Msg.t)) ->
                      match m.Msg.payload with
                      | Msg.Int v -> collected := (view.Program.id, src, v) :: !collected
                      | _ -> ())
                    inbox;
                  halted := true;
                  []);
          halted = (fun () -> !halted);
          output = (fun () -> Some view.Program.id);
        });
  }

let test_delivery_next_round () =
  let collected = ref [] in
  let g = Build.path 3 in
  let result = Runtime.run (echo_once_program collected) g in
  check_int "rounds" 2 result.Runtime.rounds_executed;
  check "all halted" true result.Runtime.all_halted;
  (* node 1 hears from 0 and 2; each payload matches the sender id *)
  check "payload = sender" true
    (List.for_all (fun (_, src, v) -> src = v) !collected);
  check_int "total receptions = 2m" 4 (List.length !collected)

let test_trace_accounting () =
  let collected = ref [] in
  let g = Build.path 3 in
  let result = Runtime.run (echo_once_program collected) g in
  let tr = result.Runtime.trace in
  (* 4 directed sends of id_width(3)=2 bits in round 0 *)
  check_int "messages" 4 (Trace.total_messages tr);
  check_int "bits" 8 (Trace.total_bits tr);
  check_int "round 0 bits" 8 (Trace.bits_in_round tr 0);
  check_int "round 1 bits" 0 (Trace.bits_in_round tr 1);
  check_int "edge 0->1" 2 (Trace.bits_on_edge tr ~src:0 ~dst:1);
  check_int "edge 1->0" 2 (Trace.bits_on_edge tr ~src:1 ~dst:0);
  check_int "edge 0->2 (non-edge)" 0 (Trace.bits_on_edge tr ~src:0 ~dst:2);
  check_int "cut bits" 4 (Trace.cut_bits tr [| 0; 0; 1 |]);
  check_int "cut messages" 2 (Trace.cut_messages tr [| 0; 0; 1 |]);
  check_int "max per edge-round" 2 (Trace.max_bits_per_edge_round tr)

let test_bandwidth_enforced () =
  (* A program that sends far more than c log n bits on one edge. *)
  let hog =
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
                | nbrs ->
                    List.init 50 (fun _ -> (nbrs.(0), Msg.int_msg ~width:8 1)));
            halted = (fun () -> !halted);
            output = (fun () -> None);
          });
    }
  in
  let g = Build.path 2 in
  check "raises" true
    (try
       ignore (Runtime.run hog g);
       false
     with Runtime.Bandwidth_exceeded _ -> true)

let test_illegal_recipient () =
  let rogue =
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
  in
  let g = Build.path 3 in
  (* 0 and 2 are not adjacent in P3 *)
  check "raises" true
    (try
       ignore (Runtime.run rogue g);
       false
     with Runtime.Illegal_recipient _ -> true)

let test_broadcast_mode_uniformity () =
  let non_uniform =
    {
      Program.name = "non-uniform";
      spawn =
        (fun view ->
          let halted = ref false in
          {
            Program.step =
              (fun ~round:_ ~inbox:_ ->
                halted := true;
                Array.to_list
                  (Array.map
                     (fun nb -> (nb, Msg.int_msg ~width:4 (nb mod 2)))
                     view.Program.neighbors));
            halted = (fun () -> !halted);
            output = (fun () -> None);
          });
    }
  in
  let g = Build.star 4 in
  let config = { Runtime.default_config with Runtime.mode = Runtime.Broadcast } in
  check "unicast fine" true
    (try ignore (Runtime.run non_uniform g); true with _ -> false);
  check "broadcast rejects" true
    (try
       ignore (Runtime.run ~config non_uniform g);
       false
     with Runtime.Non_uniform_broadcast { round = 0; src } -> src >= 0);
  (* The checked entry point reports the same violation structurally. *)
  (match Runtime.run_checked ~config non_uniform g with
  | Error { Runtime.reason = Runtime.Broadcast_mismatch; round = 0; _ } -> ()
  | Error _ -> Alcotest.fail "wrong failure reason"
  | Ok _ -> Alcotest.fail "broadcast violation not detected")

let test_broadcast_mode_uniform_ok () =
  (* A uniform multi-recipient outbox is exactly what Broadcast mode
     permits: the same flood must succeed in both modes with identical
     outputs. *)
  let g = Build.star 5 in
  let config = { Runtime.default_config with Runtime.mode = Runtime.Broadcast } in
  let uni = Runtime.run ~config (Congest.Algo_flood.max_id ~rounds:3) g in
  let ref_run = Runtime.run (Congest.Algo_flood.max_id ~rounds:3) g in
  check "halted" true uni.Runtime.all_halted;
  check "same outputs as unicast" true
    (uni.Runtime.outputs = ref_run.Runtime.outputs);
  Array.iter
    (fun o -> Alcotest.(check (option int)) "knows max" (Some 4) o)
    uni.Runtime.outputs

let test_max_rounds_cutoff () =
  let chatty =
    {
      Program.name = "never-halts";
      spawn =
        (fun _view ->
          {
            Program.step = (fun ~round:_ ~inbox:_ -> []);
            halted = (fun () -> false);
            output = (fun () -> None);
          });
    }
  in
  let config = { Runtime.default_config with Runtime.max_rounds = 17 } in
  let result = Runtime.run ~config chatty (Build.path 2) in
  check_int "cutoff" 17 result.Runtime.rounds_executed;
  check "not all halted" false result.Runtime.all_halted

let test_halted_node_receives_nothing () =
  (* A node that halts at round 0 must never be stepped again, even when
     neighbors keep sending to it. *)
  let steps_after_halt = ref 0 in
  let quitter =
    {
      Program.name = "quitter";
      spawn =
        (fun view ->
          let halted = ref false in
          {
            Program.step =
              (fun ~round ~inbox:_ ->
                if view.Program.id = 0 then begin
                  if round > 0 then incr steps_after_halt;
                  halted := true;
                  []
                end
                else if round >= 5 then begin
                  halted := true;
                  []
                end
                else if Array.exists (( = ) 0) view.Program.neighbors then
                  (* keep sending to node 0 *)
                  [ (0, Msg.unit_msg) ]
                else []);
            halted = (fun () -> !halted);
            output = (fun () -> None);
          });
    }
  in
  ignore (Runtime.run quitter (Build.path 3));
  check_int "never stepped after halting" 0 !steps_after_halt

let test_bfs_disconnected () =
  let g = Graph.create 4 in
  Graph.add_edge g 0 1;
  (* 2 and 3 isolated *)
  let result = Runtime.run (Congest.Algo_bfs.distances ~root:0 ~rounds:4) g in
  Alcotest.(check (option int)) "root" (Some 0) result.Runtime.outputs.(0);
  Alcotest.(check (option int)) "neighbor" (Some 1) result.Runtime.outputs.(1);
  Alcotest.(check (option int)) "unreachable" None result.Runtime.outputs.(2)

let test_determinism_same_seed () =
  let g = Build.cycle 9 in
  let r1 = Runtime.run Congest.Algo_luby.mis g in
  let r2 = Runtime.run Congest.Algo_luby.mis g in
  check "same outputs" true (r1.Runtime.outputs = r2.Runtime.outputs);
  let config = { Runtime.default_config with Runtime.seed = 4242 } in
  let r3 = Runtime.run ~config Congest.Algo_luby.mis g in
  (* Different seed *may* give a different MIS; at minimum it must still be
     a valid one (checked in the Luby tests).  Here we only pin that seed
     is what controls randomness: same config twice agrees. *)
  let r4 = Runtime.run ~config Congest.Algo_luby.mis g in
  check "same outputs (other seed)" true (r3.Runtime.outputs = r4.Runtime.outputs)

(* ------------------------------------------------------------------ *)
(* Algorithms: flooding / leader / BFS *)

let test_max_id_flood () =
  let g = Build.path 6 in
  let result = Runtime.run (Congest.Algo_flood.max_id ~rounds:6) g in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "knows max" (Some 5) o)
    result.Runtime.outputs

let test_max_id_flood_too_few_rounds () =
  (* One round is not enough on a path: node 0 cannot know about node 5. *)
  let g = Build.path 6 in
  let result = Runtime.run (Congest.Algo_flood.max_id ~rounds:1) g in
  Alcotest.(check (option int)) "node 0 still local" (Some 0) result.Runtime.outputs.(0)

let test_leader_election () =
  let g = Build.cycle 7 in
  let result = Runtime.run (Congest.Algo_flood.leader_election ~rounds:8) g in
  let leaders =
    Array.to_list result.Runtime.outputs
    |> List.mapi (fun i o -> (i, o))
    |> List.filter (fun (_, o) -> o = Some true)
  in
  Alcotest.(check (list (pair int (option bool)))) "only max id" [ (6, Some true) ] leaders

let test_bfs_distances () =
  let g = Build.cycle 8 in
  let result = Runtime.run (Congest.Algo_bfs.distances ~root:0 ~rounds:8) g in
  let expected = Wgraph.Metrics.bfs_distances g 0 in
  Array.iteri
    (fun v o ->
      Alcotest.(check (option int)) (Printf.sprintf "dist %d" v) (Some expected.(v)) o)
    result.Runtime.outputs

let test_bfs_on_random_connected () =
  let rng = Prng.create 77 in
  for _ = 1 to 5 do
    let g = Build.erdos_renyi rng 20 0.25 in
    if Wgraph.Metrics.is_connected g then begin
      let result = Runtime.run (Congest.Algo_bfs.distances ~root:3 ~rounds:21) g in
      let expected = Wgraph.Metrics.bfs_distances g 3 in
      Array.iteri
        (fun v o -> Alcotest.(check (option int)) "distance" (Some expected.(v)) o)
        result.Runtime.outputs
    end
  done

let test_bfs_rounds_near_diameter () =
  let g = Build.path 10 in
  let result = Runtime.run (Congest.Algo_bfs.distances ~root:0 ~rounds:10) g in
  check "completes by rounds budget" true
    (result.Runtime.rounds_executed <= 10)

(* ------------------------------------------------------------------ *)
(* Algorithms: Luby & greedy MIS *)

let mis_set_of_outputs outputs =
  let n = Array.length outputs in
  let s = Bitset.create n in
  Array.iteri (fun v o -> if o = Some true then Bitset.add s v) outputs;
  s

let test_luby_valid_mis () =
  let rng = Prng.create 51 in
  for trial = 1 to 8 do
    let g = Build.erdos_renyi rng 25 0.2 in
    let config = { Runtime.default_config with Runtime.seed = trial } in
    let result = Runtime.run ~config Congest.Algo_luby.mis g in
    check "halted" true result.Runtime.all_halted;
    let s = mis_set_of_outputs result.Runtime.outputs in
    check "independent" true (Wgraph.Check.is_independent g s);
    check "maximal" true (Wgraph.Check.is_maximal_independent g s);
    (* every node decided *)
    Array.iter (fun o -> check "decided" true (o <> None)) result.Runtime.outputs
  done

let test_luby_on_clique () =
  let g = Build.complete 10 in
  let result = Runtime.run Congest.Algo_luby.mis g in
  check_int "exactly one" 1 (Bitset.cardinal (mis_set_of_outputs result.Runtime.outputs))

let test_luby_on_edgeless () =
  let g = Graph.create 7 in
  let result = Runtime.run Congest.Algo_luby.mis g in
  check_int "everyone" 7 (Bitset.cardinal (mis_set_of_outputs result.Runtime.outputs))

let test_luby_rounds_logarithmic_ish () =
  (* Not a proof, just a regression guard: on a 60-node random graph the
     run should finish far sooner than the n-round worst case. *)
  let rng = Prng.create 5 in
  let g = Build.erdos_renyi rng 60 0.1 in
  let result = Runtime.run Congest.Algo_luby.mis g in
  check "fast" true (result.Runtime.rounds_executed < 60)

let test_greedy_mis_valid () =
  let rng = Prng.create 53 in
  for _ = 1 to 8 do
    let g = Build.erdos_renyi rng 22 0.25 in
    Build.random_weights rng g 6;
    let result = Runtime.run Congest.Algo_greedy_mis.mis g in
    let s = mis_set_of_outputs result.Runtime.outputs in
    check "independent" true (Wgraph.Check.is_independent g s);
    check "maximal" true (Wgraph.Check.is_maximal_independent g s)
  done

let test_greedy_mis_prefers_heavy () =
  (* Star with heavy center: the center must win. *)
  let g = Build.star 6 in
  Graph.set_weight g 0 50;
  let result = Runtime.run Congest.Algo_greedy_mis.mis g in
  Alcotest.(check (option bool)) "center in" (Some true) result.Runtime.outputs.(0)

let test_greedy_mis_deterministic () =
  let rng = Prng.create 54 in
  let g = Build.erdos_renyi rng 20 0.3 in
  Build.random_weights rng g 5;
  let r1 = Runtime.run Congest.Algo_greedy_mis.mis g in
  let r2 =
    Runtime.run
      ~config:{ Runtime.default_config with Runtime.seed = 999 }
      Congest.Algo_greedy_mis.mis g
  in
  (* weight-based priorities do not consult the rng: seed must not matter *)
  check "seed-independent" true (r1.Runtime.outputs = r2.Runtime.outputs)

(* ------------------------------------------------------------------ *)
(* Algorithms: gather *)

let test_gather_reconstructs () =
  let rng = Prng.create 61 in
  let g = Build.erdos_renyi rng 12 0.4 in
  Build.random_weights rng g 3;
  if Wgraph.Metrics.is_connected g then begin
    let m = Graph.edge_count g in
    let expected = Mis.Exact.opt g in
    let result = Runtime.run (Congest.Algo_gather.exact_maxis ~m) g in
    check "halted" true result.Runtime.all_halted;
    Array.iter
      (fun o -> Alcotest.(check (option int)) "every node agrees on OPT" (Some expected) o)
      result.Runtime.outputs
  end
  else Alcotest.fail "test graph should be connected (fix seed)"

let test_gather_generic_solver () =
  (* Use gather with a different local solve: count edges. *)
  let g = Build.cycle 9 in
  let m = Graph.edge_count g in
  let program = Congest.Algo_gather.gather ~m ~solve:Graph.edge_count in
  let result = Runtime.run program g in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "edge count" (Some 9) o)
    result.Runtime.outputs

let test_gather_respects_bandwidth () =
  (* The gather program must never trip the bandwidth checker (the runtime
     would raise). *)
  let g = Build.complete 8 in
  let m = Graph.edge_count g in
  let result = Runtime.run (Congest.Algo_gather.exact_maxis ~m) g in
  check "finished" true result.Runtime.all_halted;
  check "max per edge round within limit" true
    (Trace.max_bits_per_edge_round result.Runtime.trace
    <= Runtime.bandwidth_bits Runtime.default_config ~n:8)

let test_gather_rounds_scale () =
  (* O(m + D) rounds: on a path (m = n-1) the run should finish within a
     small multiple of n. *)
  let g = Build.path 12 in
  let result = Runtime.run (Congest.Algo_gather.exact_maxis ~m:11) g in
  check "halted" true result.Runtime.all_halted;
  check "rounds bounded" true (result.Runtime.rounds_executed <= 4 * (11 + 12))

let test_gather_rejects_wide_weight () =
  (* n = 4: weights get 2·⌈log n⌉ = 4 bits, so 16 is one bit too wide.
     With no edges nothing is ever sent, so only a check at spawn can
     catch it (a late check would idle until max_rounds). *)
  let g = Graph.create 4 in
  Graph.set_weight g 1 16;
  let config = { Runtime.default_config with Runtime.max_rounds = 50 } in
  match Runtime.run ~config (Congest.Algo_gather.exact_maxis ~m:0) g with
  | _ -> Alcotest.fail "over-wide weight accepted"
  | exception Invalid_argument _ -> ()

(* The fact store on a dense graph: K₃₀ has n + m = 465 facts per
   node.  Every form must reconstruct the same graph in the same
   rounds, and the Light digest pins the send sequence. *)
let gather_k30 () =
  let g = Build.complete 30 in
  let rng = Prng.create 2029 in
  Build.random_weights rng g 9;
  g

let gather_run ?config ?pool form g =
  let trace = Trace.create ~mode:Trace.Light () in
  let m = Graph.edge_count g in
  let r =
    match form with
    | `Native ->
        Runtime.run_flat ?config ~trace ?pool
          (Congest.Algo_gather.exact_maxis_flat ~m)
          (Wgraph.Csr.of_graph g)
    | `List -> Runtime.run ?config ~trace (Congest.Algo_gather.exact_maxis ~m) g
  in
  (r.Runtime.outputs, r.Runtime.rounds_executed, trace)

(* No pool, jobs 2 and 3, then the list form; all must agree with the
   first.  Returns its outputs and trace. *)
let gather_forms_agree ?config g =
  let with_pool jobs =
    Exec.Pool.with_pool ~jobs (fun pool -> gather_run ?config ~pool `Native g)
  in
  let forms =
    [
      ("no pool", gather_run ?config `Native g);
      ("jobs=2", with_pool 2);
      ("jobs=3", with_pool 3);
      ("list form", gather_run ?config `List g);
    ]
  in
  let _, (outputs, rounds, trace) = List.hd forms in
  List.iter
    (fun (label, (o, r, t)) ->
      Alcotest.(check (array (option int))) (label ^ ": outputs") outputs o;
      check_int (label ^ ": rounds") rounds r;
      Alcotest.(check int64)
        (label ^ ": Light digest") (Trace.digest trace) (Trace.digest t))
    forms;
  (outputs, trace)

let test_gather_k30 () =
  let g = gather_k30 () in
  let outputs, _ = gather_forms_agree g in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "OPT" (Some (Mis.Exact.opt g)) o)
    outputs

(* The store's growth path.  Under a corrupt-heavy plan, flipped facts
   are new facts: nodes learn more than n + m, forward them, and never
   drain, so no node halts within the round cap.  A node sends each
   fact it knows at most once per neighbour, so more than (n + m)·2m
   sends in total means some node's distinct count passed n + m, past
   the store's initial size. *)
let test_gather_corrupt_heavy () =
  let g = gather_k30 () in
  let n = Graph.n g and m = Graph.edge_count g in
  let plan =
    Congest.Faults.plan ~default:(Congest.Faults.link ~corrupt:0.01 ()) 0xfac7
  in
  let config =
    { Runtime.default_config with Runtime.max_rounds = 600; faults = Some plan }
  in
  let _, trace = gather_forms_agree ~config g in
  check "distinct facts past n + m" true
    (Trace.total_messages trace > (n + m) * 2 * m)

(* [Trace.record_row] is the [record_send] fold over the row, in both
   modes, with and without a registered cut: seeded streams of rows and
   single sends (rounds mostly ascending, sometimes revisited; rows
   sliced out of padded arrays, some empty) recorded both ways answer
   every query alike.  Full mode's per-edge index is built halfway
   through, so the rest of the stream maintains it incrementally. *)
let prop_record_row_is_fold =
  QCheck.Test.make ~name:"record_row = record_send fold" ~count:100
    QCheck.(pair small_int small_int)
    (fun (seed, nn) ->
      let rng = Prng.create (Hashtbl.hash (seed, nn, "record_row")) in
      let n = 2 + (nn mod 20) in
      let part = Array.init n (fun _ -> Prng.int rng 3) in
      let ops =
        List.init (1 + Prng.int rng 30) (fun i ->
            let round = if Prng.int rng 5 = 0 then Prng.int rng 4 else i / 3 in
            let pad () = Array.init (Prng.int rng 3) (fun _ -> Prng.int rng n) in
            let row = Array.init (Prng.int rng 7) (fun _ -> Prng.int rng n) in
            let pre = pad () in
            ( round,
              Prng.int rng n,
              Array.concat [ pre; row; pad () ],
              Array.length pre,
              Array.length pre + Array.length row,
              Prng.int rng 20,
              if Prng.int rng 3 = 0 then Some (Prng.int rng n) else None ))
      in
      let half = List.length ops / 2 in
      let record ~by_row t =
        List.iteri
          (fun i (round, src, adj, lo, hi, bits, single) ->
            if i = half && Trace.mode t = Trace.Full then
              ignore (Trace.bits_on_edge t ~src:0 ~dst:1);
            match single with
            | Some dst -> Trace.record_send t ~round ~src ~dst ~bits
            | None when by_row -> Trace.record_row t ~round ~src ~adj ~lo ~hi ~bits
            | None ->
                for r = lo to hi - 1 do
                  Trace.record_send t ~round ~src ~dst:adj.(r) ~bits
                done)
          ops;
        t
      in
      let observe t =
        let r = Trace.rounds t in
        let cut =
          if Trace.mode t = Trace.Full || Trace.registered_cut t <> None then
            Some
              ( Trace.cut_bits t part,
                Trace.cut_messages t part,
                Trace.cut_bits_by_side t part,
                Trace.cut_bits_by_round t part )
          else None
        in
        let edges =
          if Trace.mode t = Trace.Full then
            Some
              ( List.init (n * n) (fun k ->
                    Trace.bits_on_edge t ~src:(k / n) ~dst:(k mod n)),
                Trace.max_bits_per_edge_round t )
          else None
        in
        ( (Trace.digest t, Trace.send_digest_state t, r),
          (Trace.total_messages t, Trace.total_bits t),
          List.init (r + 2) (fun i ->
              (Trace.bits_in_round t (i - 1), Trace.messages_in_round t (i - 1))),
          cut,
          edges )
      in
      List.for_all
        (fun (mode, cut) ->
          let fresh () = Trace.create ~mode ?cut () in
          observe (record ~by_row:true (fresh ()))
          = observe (record ~by_row:false (fresh ())))
        [
          (Trace.Full, None);
          (Trace.Full, Some part);
          (Trace.Light, None);
          (Trace.Light, Some part);
        ])

(* Literal Light digests: the digest is a streamed 63-bit fold, and its
   values are pinned here and in perfbench and test_golden, so any
   rewrite of the fold must reproduce them bit for bit.  One fixed
   stream mixes point sends, rows (some empty, one with a large size),
   a delayed fault and a crash, once without a cut and once with a
   3-sided one; the send accumulator's top bit (bit 62) must be set at
   some point of the stream, so the fold's logical shift sees it. *)
let light_stream t =
  let n = 12 in
  let adj = Array.init 40 (fun i -> ((i * 7) + 3) mod n) in
  let top_bit = ref false in
  for i = 0 to 59 do
    let round = i / 6 and src = ((i * 5) + (i / 4)) mod n in
    let bits = if i = 43 then (1 lsl 40) + 12_345 else 1 + (i mod 17) in
    let lo = i mod 10 in
    (match i mod 3 with
    | 0 -> Trace.record_send t ~round ~src ~dst:((src + i + 1) mod n) ~bits
    | 1 ->
        Trace.record_row t ~round ~src ~adj ~lo ~hi:(lo + 1 + (i mod 13)) ~bits
    | _ -> Trace.record_row t ~round ~src ~adj ~lo ~hi:lo ~bits);
    if i = 31 then
      Trace.record_fault t ~round ~src ~dst:adj.(0) ~bits
        ~kind:(Trace.Delayed 2);
    if i = 50 then
      Trace.record_fault t ~round ~src ~dst:src ~bits:0 ~kind:Trace.Crashed;
    if Trace.send_digest_state t < 0 then top_bit := true
  done;
  Trace.set_rounds t 11;
  !top_bit

let test_light_digests_pinned () =
  let part = Array.init 12 (fun v -> v mod 3) in
  let pinned what t ~digest ~state =
    check (what ^ ": accumulator reached bit 62") true (light_stream t);
    Alcotest.(check int64) (what ^ ": digest") digest (Trace.digest t);
    check_int (what ^ ": send digest state") state (Trace.send_digest_state t)
  in
  let digest = 120172352562055120L and state = 3266488399905456200 in
  pinned "no cut" (Trace.create ~mode:Trace.Light ()) ~digest ~state;
  let t = Trace.create ~mode:Trace.Light ~cut:part () in
  pinned "3-sided cut" t ~digest ~state;
  Alcotest.(check (pair (pair int int) (array int)))
    "3-sided cut: crossings"
    ((3_298_534_921_228, 106), [| 3_298_534_920_663; 266; 299 |])
    ((Trace.cut_bits t part, Trace.cut_messages t part),
     Trace.cut_bits_by_side t part)

let prop_luby_always_valid =
  QCheck.Test.make ~name:"Luby always returns a maximal IS" ~count:30
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 3 + (nn mod 15) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.3 in
      let config = { Runtime.default_config with Runtime.seed = seed } in
      let result = Runtime.run ~config Congest.Algo_luby.mis g in
      let s = mis_set_of_outputs result.Runtime.outputs in
      result.Runtime.all_halted
      && Wgraph.Check.is_independent g s
      && Wgraph.Check.is_maximal_independent g s)

let prop_gather_matches_exact =
  QCheck.Test.make ~name:"gather-MaxIS agrees with sequential exact" ~count:15
    QCheck.small_int (fun seed ->
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng 10 0.5 in
      Build.random_weights rng g 4;
      (not (Wgraph.Metrics.is_connected g))
      ||
      let m = Graph.edge_count g in
      let result = Runtime.run (Congest.Algo_gather.exact_maxis ~m) g in
      Array.for_all (fun o -> o = Some (Mis.Exact.opt g)) result.Runtime.outputs)

(* ------------------------------------------------------------------ *)
(* Algorithms: coloring and matching *)

let proper_coloring g outputs =
  let ok = ref true in
  Graph.iter_edges
    (fun u v -> if outputs.(u) = outputs.(v) && outputs.(u) <> None then ok := false)
    g;
  !ok
  && Array.for_all (fun o -> o <> None) outputs

let test_coloring_valid () =
  let rng = Prng.create 71 in
  for trial = 1 to 8 do
    let g = Build.erdos_renyi rng 24 0.25 in
    let config = { Runtime.default_config with Runtime.seed = trial } in
    let result = Runtime.run ~config Congest.Algo_coloring.color g in
    check "halted" true result.Runtime.all_halted;
    check "proper" true (proper_coloring g result.Runtime.outputs);
    (* palette bound: color of v <= deg(v) *)
    Array.iteri
      (fun v o ->
        match o with
        | Some c -> check "within palette" true (c >= 0 && c <= Graph.degree g v)
        | None -> Alcotest.fail "uncolored node")
      result.Runtime.outputs
  done

let test_coloring_clique () =
  (* K_n needs all n colors. *)
  let g = Build.complete 7 in
  let result = Runtime.run Congest.Algo_coloring.color g in
  let colors =
    Array.to_list result.Runtime.outputs
    |> List.filter_map Fun.id
    |> List.sort_uniq compare
  in
  check_int "all distinct" 7 (List.length colors)

let test_coloring_edgeless () =
  let g = Graph.create 5 in
  let result = Runtime.run Congest.Algo_coloring.color g in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "color 0" (Some 0) o)
    result.Runtime.outputs

let matching_pairs outputs =
  let pairs = ref [] in
  Array.iteri
    (fun u o -> match o with Some v when u < v -> pairs := (u, v) :: !pairs | _ -> ())
    outputs;
  !pairs

let test_matching_valid_and_maximal () =
  let rng = Prng.create 73 in
  for trial = 1 to 8 do
    let g = Build.erdos_renyi rng 20 0.3 in
    let config = { Runtime.default_config with Runtime.seed = 100 + trial } in
    let result = Runtime.run ~config Congest.Algo_matching.maximal_matching g in
    check "halted" true result.Runtime.all_halted;
    let outputs = result.Runtime.outputs in
    (* symmetry: u's partner points back *)
    Array.iteri
      (fun u o ->
        match o with
        | Some v -> (
            check "edge exists" true (Graph.has_edge g u v);
            match outputs.(v) with
            | Some u' -> check_int "symmetric" u u'
            | None -> Alcotest.fail "partner unmatched")
        | None -> ())
      outputs;
    check "is matching" true (Wgraph.Matching.is_matching g (matching_pairs outputs));
    (* maximality: no edge with both endpoints unmatched *)
    let maximal = ref true in
    Graph.iter_edges
      (fun u v -> if outputs.(u) = None && outputs.(v) = None then maximal := false)
      g;
    check "maximal" true !maximal
  done

let test_matching_single_edge () =
  let g = Build.path 2 in
  let result = Runtime.run Congest.Algo_matching.maximal_matching g in
  Alcotest.(check (option int)) "0-1 matched" (Some 1) result.Runtime.outputs.(0);
  Alcotest.(check (option int)) "1-0 matched" (Some 0) result.Runtime.outputs.(1)

let test_matching_star () =
  (* Star: exactly one leaf gets the center. *)
  let g = Build.star 6 in
  let result = Runtime.run Congest.Algo_matching.maximal_matching g in
  check_int "one pair" 1 (List.length (matching_pairs result.Runtime.outputs));
  check "center matched" true (result.Runtime.outputs.(0) <> None)

let prop_coloring_always_proper =
  QCheck.Test.make ~name:"coloring always proper" ~count:25
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 14) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.35 in
      let config = { Runtime.default_config with Runtime.seed = seed } in
      let result = Runtime.run ~config Congest.Algo_coloring.color g in
      result.Runtime.all_halted && proper_coloring g result.Runtime.outputs)

let prop_matching_always_maximal =
  QCheck.Test.make ~name:"matching always maximal" ~count:25
    QCheck.(pair small_int small_int) (fun (seed, nn) ->
      let n = 2 + (nn mod 14) in
      let rng = Prng.create seed in
      let g = Build.erdos_renyi rng n 0.35 in
      let config = { Runtime.default_config with Runtime.seed = seed } in
      let result = Runtime.run ~config Congest.Algo_matching.maximal_matching g in
      let outputs = result.Runtime.outputs in
      let maximal = ref true in
      Graph.iter_edges
        (fun u v -> if outputs.(u) = None && outputs.(v) = None then maximal := false)
        g;
      result.Runtime.all_halted
      && Wgraph.Matching.is_matching g (matching_pairs outputs)
      && !maximal)

let qsuite ?(cases = []) name tests =
  (name, List.map QCheck_alcotest.to_alcotest tests @ cases)

let () =
  Alcotest.run "congest"
    [
      ( "msg",
        [
          Alcotest.test_case "sizes" `Quick test_msg_sizes;
          Alcotest.test_case "overflow" `Quick test_msg_overflow_rejected;
          Alcotest.test_case "id width" `Quick test_id_width;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "delivery next round" `Quick test_delivery_next_round;
          Alcotest.test_case "trace accounting" `Quick test_trace_accounting;
          Alcotest.test_case "bandwidth enforced" `Quick test_bandwidth_enforced;
          Alcotest.test_case "illegal recipient" `Quick test_illegal_recipient;
          Alcotest.test_case "broadcast uniformity" `Quick test_broadcast_mode_uniformity;
          Alcotest.test_case "broadcast uniform ok" `Quick test_broadcast_mode_uniform_ok;
          Alcotest.test_case "max rounds cutoff" `Quick test_max_rounds_cutoff;
          Alcotest.test_case "halted stays halted" `Quick test_halted_node_receives_nothing;
          Alcotest.test_case "bfs disconnected" `Quick test_bfs_disconnected;
          Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
        ] );
      ( "flood-bfs",
        [
          Alcotest.test_case "max id flood" `Quick test_max_id_flood;
          Alcotest.test_case "too few rounds" `Quick test_max_id_flood_too_few_rounds;
          Alcotest.test_case "leader election" `Quick test_leader_election;
          Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
          Alcotest.test_case "bfs random" `Quick test_bfs_on_random_connected;
          Alcotest.test_case "bfs rounds" `Quick test_bfs_rounds_near_diameter;
        ] );
      ( "mis-algorithms",
        [
          Alcotest.test_case "luby valid" `Quick test_luby_valid_mis;
          Alcotest.test_case "luby clique" `Quick test_luby_on_clique;
          Alcotest.test_case "luby edgeless" `Quick test_luby_on_edgeless;
          Alcotest.test_case "luby fast" `Quick test_luby_rounds_logarithmic_ish;
          Alcotest.test_case "greedy valid" `Quick test_greedy_mis_valid;
          Alcotest.test_case "greedy heavy center" `Quick test_greedy_mis_prefers_heavy;
          Alcotest.test_case "greedy deterministic" `Quick test_greedy_mis_deterministic;
        ] );
      ( "gather",
        [
          Alcotest.test_case "reconstructs" `Quick test_gather_reconstructs;
          Alcotest.test_case "generic solver" `Quick test_gather_generic_solver;
          Alcotest.test_case "bandwidth" `Quick test_gather_respects_bandwidth;
          Alcotest.test_case "rounds scale" `Quick test_gather_rounds_scale;
          Alcotest.test_case "over-wide weight rejected at spawn" `Quick
            test_gather_rejects_wide_weight;
          Alcotest.test_case "K30 forms agree" `Quick test_gather_k30;
          Alcotest.test_case "fact store grows under corruption" `Quick
            test_gather_corrupt_heavy;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "valid" `Quick test_coloring_valid;
          Alcotest.test_case "clique" `Quick test_coloring_clique;
          Alcotest.test_case "edgeless" `Quick test_coloring_edgeless;
        ] );
      ( "matching",
        [
          Alcotest.test_case "valid + maximal" `Quick test_matching_valid_and_maximal;
          Alcotest.test_case "single edge" `Quick test_matching_single_edge;
          Alcotest.test_case "star" `Quick test_matching_star;
        ] );
      qsuite "congest-props"
        ~cases:
          [
            Alcotest.test_case "Light digests pinned" `Quick
              test_light_digests_pinned;
          ]
        [
          prop_luby_always_valid;
          prop_gather_matches_exact;
          prop_coloring_always_proper;
          prop_matching_always_maximal;
          prop_record_row_is_fold;
        ];
    ]
