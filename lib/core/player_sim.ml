module Runtime = Congest.Runtime
module Program = Congest.Program
module Msg = Congest.Msg
module Graph = Wgraph.Graph
module Blackboard = Commcx.Blackboard

type 'out outcome = {
  outputs : 'out option array;
  rounds : int;
  all_halted : bool;
  board : Blackboard.t;
  internal_bits : int;
}

(* One player: the region's node set and the live node instances it
   simulates.  All state of region Vⁱ lives here; the only inter-player
   channel is the blackboard (plus the typed side-queue that decodes the
   written messages — the board carries the accounted bits). *)
type 'out player = {
  player_id : int;
  instances : (int * 'out Program.instance) list;  (** ascending node *)
}

type pending = { src : int; dst : int; msg : Msg.t }

let run ?(config = Runtime.default_config) (program : 'out Program.t)
    (inst : Family.instance) =
  (* The player protocol is the fault-free referee: its bit-for-bit
     equivalence with Runtime.run is the invariant fault injection is
     tested AGAINST, so a fault plan here would be circular.  Reject it
     explicitly rather than silently ignoring the field. *)
  if config.Runtime.faults <> None then
    invalid_arg
      "Player_sim.run: fault injection is out of scope for the player \
       protocol (run the faulty execution in Congest.Runtime and compare \
       against this fault-free referee)";
  let g = inst.Family.graph in
  let part = inst.Family.partition in
  let n = Graph.n g in
  let t = Wgraph.Cut.parts part in
  let limit = Runtime.bandwidth_bits config ~n in
  (* Spawn in ascending node order so the randomness streams match the
     monolithic runtime exactly. *)
  let master_rng = Stdx.Prng.create config.Runtime.seed in
  let all_instances = Array.make n None in
  for v = 0 to n - 1 do
    let view =
      {
        Program.id = v;
        n;
        weight = Graph.weight g v;
        neighbors = Stdx.Bitset.to_array (Graph.neighbors g v);
        rng = Stdx.Prng.split master_rng;
      }
    in
    all_instances.(v) <- Some (program.Program.spawn view)
  done;
  let instance_of v =
    match all_instances.(v) with
    | Some i -> i
    | None -> assert false
  in
  let players =
    List.init t (fun p ->
        {
          player_id = p;
          instances =
            List.map
              (fun v -> (v, instance_of v))
              (Wgraph.Cut.part_nodes part p);
        })
  in
  let board = Blackboard.create () in
  let internal_bits = ref 0 in
  (* Next-round inboxes, filled by internal delivery and blackboard
     pickup. *)
  let inboxes : (int * Msg.t) list array = Array.make n [] in
  let next_inboxes : (int * Msg.t) list array = Array.make n [] in
  let cross_queue : pending Stdx.Dynvec.t = Stdx.Dynvec.create () in
  let sent_this_round : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let round = ref 0 in
  let all_halted () =
    Array.for_all
      (function Some i -> i.Program.halted () | None -> true)
      all_instances
  in
  while !round < config.Runtime.max_rounds && not (all_halted ()) do
    Hashtbl.reset sent_this_round;
    Array.fill next_inboxes 0 n [];
    Stdx.Dynvec.clear cross_queue;
    (* Each player steps its own nodes; internal messages are delivered
       privately, cross-region messages are written on the board. *)
    List.iter
      (fun player ->
        List.iter
          (fun (v, node) ->
            if not (node.Program.halted ()) then begin
              let outbox = node.Program.step ~round:!round ~inbox:inboxes.(v) in
              (match config.Runtime.mode with
              | Runtime.Unicast -> ()
              | Runtime.Broadcast -> (
                  match outbox with
                  | [] | [ _ ] -> ()
                  | (_, first) :: rest ->
                      List.iter
                        (fun (_, (m : Msg.t)) ->
                          if
                            m.Msg.payload <> first.Msg.payload
                            || m.Msg.bits <> first.Msg.bits
                          then
                            raise
                              (Runtime.Non_uniform_broadcast
                                 { round = !round; src = v }))
                        rest));
              List.iter
                (fun (dst, (m : Msg.t)) ->
                  if not (Graph.has_edge g v dst) then
                    raise
                      (Runtime.Illegal_recipient
                         { round = !round; src = v; dst });
                  let key = (v, dst) in
                  let total =
                    m.Msg.bits
                    + Option.value ~default:0
                        (Hashtbl.find_opt sent_this_round key)
                  in
                  if total > limit then
                    raise
                      (Runtime.Bandwidth_exceeded
                         { round = !round; src = v; dst; bits = total; limit });
                  Hashtbl.replace sent_this_round key total;
                  if part.(dst) = player.player_id then begin
                    (* Internal: player i simulates both endpoints. *)
                    internal_bits := !internal_bits + m.Msg.bits;
                    next_inboxes.(dst) <- (v, m) :: next_inboxes.(dst)
                  end
                  else begin
                    (* Cross: write on the blackboard.  The entry's value
                       encodes the directed edge; bits account the message
                       itself, as in the proof. *)
                    Blackboard.write board ~author:player.player_id
                      ~bits:m.Msg.bits
                      ~tag:(Printf.sprintf "round-%d" !round)
                      ((v * n) + dst);
                    Stdx.Dynvec.push cross_queue { src = v; dst; msg = m }
                  end)
                outbox
            end)
          player.instances)
      players;
    (* Every player reads the board and collects the messages addressed to
       its own nodes. *)
    Stdx.Dynvec.iter
      (fun { src; dst; msg } ->
        next_inboxes.(dst) <- (src, msg) :: next_inboxes.(dst))
      cross_queue;
    for v = 0 to n - 1 do
      inboxes.(v) <-
        List.sort (fun (a, _) (b, _) -> compare a b) next_inboxes.(v)
    done;
    incr round
  done;
  {
    outputs =
      Array.map
        (function Some i -> i.Program.output () | None -> None)
        all_instances;
    rounds = !round;
    all_halted = all_halted ();
    board;
    internal_bits = !internal_bits;
  }

let decide_disjointness ?config (inst : Family.instance) ~predicate =
  let m = Graph.edge_count inst.Family.graph in
  let outcome = run ?config (Congest.Algo_gather.exact_maxis ~m) inst in
  match outcome.outputs.(0) with
  | None ->
      invalid_arg
        "Player_sim.decide_disjointness: gathering did not complete"
  | Some opt -> (Predicate.decides_to predicate opt, outcome)
