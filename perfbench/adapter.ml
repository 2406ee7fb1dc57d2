(* The benchmark's only door into the repository's libraries.

   Every call into lib/ made by the workloads, the oracle and the tracer
   goes through a function in this file, so a change to the library's
   entry points (for instance collapsing the executor family into one
   [run]) edits one call site here and leaves the meaning of every
   workload unchanged.  Nothing here times or counts; the callers wrap
   these functions in spans. *)

module Csr = Wgraph.Csr
module Rt = Congest.Runtime
module Tr = Congest.Trace
module Fp = Congest.Fastpath
module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module Sim = Maxis_core.Simulation
module M = Obs.Metrics
module Proto = Serve.Proto
module Client = Serve.Client

(* ------------------------------------------------------------------ *)
(* Graph layer *)

(* The LARGEN generator: every node draws three partners, so m ≈ 3n and
   the mean degree is about 6. *)
let sparse_graph ~seed ~n =
  let rng = Stdx.Prng.create seed in
  let b = Csr.Builder.create n in
  for v = 0 to n - 1 do
    for _ = 1 to 3 do
      let u = Stdx.Prng.int rng n in
      if u <> v then Csr.Builder.add_edge b v u
    done
  done;
  Csr.Builder.finish b

let nodes = Csr.n
let edges = Csr.edge_count
let resident_words = Csr.resident_words

(* ------------------------------------------------------------------ *)
(* Exec layer: pools *)

type pool = Exec.Pool.t

let pool ~jobs = Exec.Pool.create ~jobs ()
let shutdown_pool = Exec.Pool.shutdown

(* ------------------------------------------------------------------ *)
(* Congest layer: flat programs on a CSR graph with a Light trace *)

type executor = Sequential | Sharded of pool

type algo = Flood of int | Bfs of int | Luby

let algo_name = function Flood _ -> "flood" | Bfs _ -> "bfs" | Luby -> "luby"

(* Everything the oracle compares: exact counts, the Light-trace digest
   and a fold of every node's output. *)
type run = {
  rounds : int;
  messages : int;
  bits : int;
  cut_bits : int;
  digest : int64;
  outputs : int;
  halted : bool;
}

let fold_outputs encode outs =
  Array.fold_left
    (fun h o ->
      let v = match o with None -> -1 | Some x -> encode x in
      (h * 1_000_003) + v + 1)
    17 outs

let execute ?cut ~max_rounds executor fp encode c =
  let trace = Tr.create ~mode:Tr.Light ?cut () in
  let config = { Rt.default_config with Rt.max_rounds } in
  let r =
    match executor with
    | Sequential -> Rt.run_flat ~config ~trace fp c
    | Sharded pool -> Rt.run_flat_par ~config ~trace ~pool fp c
  in
  {
    rounds = r.Rt.rounds_executed;
    messages = Tr.total_messages trace;
    bits = Tr.total_bits trace;
    cut_bits = (match cut with Some p -> Tr.cut_bits trace p | None -> 0);
    digest = Tr.digest trace;
    outputs = fold_outputs encode r.Rt.outputs;
    halted = r.Rt.all_halted;
  }

let run_algo ?cut executor algo c =
  match algo with
  | Flood rounds ->
      execute ?cut ~max_rounds:rounds executor (Fp.max_id ~rounds) Fun.id c
  | Bfs rounds ->
      execute ?cut ~max_rounds:rounds executor
        (Fp.bfs_distances ~root:0 ~rounds)
        Fun.id c
  | Luby ->
      execute ?cut ~max_rounds:Rt.default_config.Rt.max_rounds executor
        Fp.luby_mis
        (fun b -> if b then 1 else 0)
        c

(* ------------------------------------------------------------------ *)
(* Core layer: the Theorem-1 linear family and the Theorem-5 pipeline *)

let linear_params ~ell ~players = P.make ~alpha:1 ~ell ~players

(* α = 1, t = 2 and the largest ℓ whose construction has at most
   [target] nodes (the LARGEN gadget rule). *)
let gadget_params ~target =
  let rec grow ell best =
    let p = P.make ~alpha:1 ~ell ~players:2 in
    if LF.n_nodes p > target then best else grow (ell + 1) p
  in
  grow 3 (P.make ~alpha:1 ~ell:2 ~players:2)

let ell = P.ell
let expected_cut_size = LF.expected_cut_size

let promise_input ~seed p ~intersecting =
  Commcx.Inputs.gen_promise (Stdx.Prng.create seed) ~k:(P.k p) ~t:p.P.players
    ~intersecting

(* f(x̄) for the promise pairwise-disjointness problem. *)
let disjoint = Commcx.Functions.promise_pairwise_disjointness

let gadget_instance p x = LF.instance_csr p x

(* The promise cut-bit cap of Theorem 5 for a Light flood on the gadget:
   rounds · 2|cut| · B. *)
let cut_cap p ~rounds ~n =
  rounds * 2 * LF.expected_cut_size p
  * Rt.bandwidth_bits Rt.default_config ~n

type instance = { inst : Maxis_core.Family.instance; predicate : Maxis_core.Predicate.t }

let decision_instance p x = { inst = LF.instance p x; predicate = LF.predicate p }

type decision = {
  answer : bool option;
  within_bound : bool;
  blackboard_bits : int;
  decide_rounds : int;
  total_bits : int;
}

(* The default engine: list mode with a Full trace. *)
let decide i =
  let d = Sim.decide_disjointness i.inst ~predicate:i.predicate in
  let r = d.Sim.report in
  {
    answer = d.Sim.answer;
    within_bound = r.Sim.within_bound;
    blackboard_bits = r.Sim.blackboard_bits;
    decide_rounds = r.Sim.rounds;
    total_bits = r.Sim.total_bits;
  }

(* ------------------------------------------------------------------ *)
(* Mis layer *)

let solve_budget = 200_000

(* The cold path of a serve solve minus the cache: the instance the
   daemon builds, solved directly by the budgeted exact solver. *)
let request_instance ~ell ~players ~seed ~intersecting =
  let p = P.make ~alpha:1 ~ell ~players in
  let x =
    Commcx.Inputs.gen_promise (Stdx.Prng.create seed) ~k:(P.k p) ~t:players
      ~intersecting
  in
  (LF.instance p x).Maxis_core.Family.graph

let solve_direct g =
  let budget = Exec.Budget.create ~max_nodes:solve_budget () in
  match Mis.Exact.solve_budgeted ~budget g with
  | Mis.Exact.Complete s -> s.Mis.Exact.weight
  | Mis.Exact.Exhausted e -> -e.Mis.Exact.lb

(* ------------------------------------------------------------------ *)
(* Serve layer *)

type solve_request = Proto.solve_params

let solve_request ~ell ~players ~seed ~intersecting =
  {
    Proto.solve_defaults with
    Proto.ell;
    players;
    seed;
    intersecting;
    budget_nodes = Some solve_budget;
  }

let request_fields (sp : solve_request) =
  (sp.Proto.ell, sp.Proto.players, sp.Proto.seed, sp.Proto.intersecting)

type daemon = { d : Serve.Daemon.t; dom : unit Domain.t; addr : Proto.addr }

(* An in-memory filesystem for the daemon's cache.  The cache's keys,
   entry encoding, validation and atomic-rename protocol all run as
   they do on disk; only the disk, whose latency on a shared host swings
   several-fold from minute to minute, is left out. *)
type memory_fs = {
  fs : Stdx.Fsio.t;
  files : (string, string) Hashtbl.t;
  lock : Mutex.t;
  mutable kept : string list;
}

let memory_fs () =
  let files = Hashtbl.create 64 and dirs = Hashtbl.create 16 in
  let lock = Mutex.create () in
  let locked f =
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let missing path = raise (Sys_error (path ^ ": No such file or directory")) in
  let find path = match Hashtbl.find_opt files path with Some s -> s | None -> missing path in
  let fs =
    {
      Stdx.Fsio.read_file = (fun path -> locked (fun () -> find path));
      write_file = (fun path s -> locked (fun () -> Hashtbl.replace files path s));
      append_line =
        (fun path s ->
          locked (fun () ->
              let old = Option.value (Hashtbl.find_opt files path) ~default:"" in
              Hashtbl.replace files path (old ^ s)));
      rename =
        (fun src dst ->
          locked (fun () ->
              let s = find src in
              Hashtbl.remove files src;
              Hashtbl.replace files dst s));
      remove = (fun path -> locked (fun () -> ignore (find path); Hashtbl.remove files path));
      mkdir = (fun path -> locked (fun () -> Hashtbl.replace dirs path ()));
      rmdir = (fun path -> locked (fun () -> Hashtbl.remove dirs path));
      file_exists = (fun path -> locked (fun () -> Hashtbl.mem files path || Hashtbl.mem dirs path));
      is_directory = (fun path -> locked (fun () -> Hashtbl.mem dirs path));
      readdir =
        (fun path ->
          locked (fun () ->
              let names = ref [] in
              let collect p = if Filename.dirname p = path then names := Filename.basename p :: !names in
              Hashtbl.iter (fun p _ -> collect p) files;
              Hashtbl.iter (fun p () -> collect p) dirs;
              Array.of_list (List.sort compare !names)));
    }
  in
  { fs; files; lock; kept = [] }

(* [keep m] marks the current files as the ones to keep; [drop_others m]
   deletes every file written since.  Cold requests carry seeds that are
   never asked again, so dropping their entries between passes changes
   no lookup and keeps memory flat over a run of any length. *)
let keep m =
  Mutex.lock m.lock;
  m.kept <- Hashtbl.fold (fun p _ acc -> p :: acc) m.files [];
  Mutex.unlock m.lock

let drop_others m =
  Mutex.lock m.lock;
  let keep = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace keep p ()) m.kept;
  Hashtbl.filter_map_inplace (fun p s -> if Hashtbl.mem keep p then Some s else None) m.files;
  Mutex.unlock m.lock

let cache_on m = Exec.Cache.create ~fs:m.fs ~dir:"cache" ()

(* Solve each request into the cache on [m] exactly as the daemon's
   miss path does, so a daemon started on [m] hits them. *)
let warm_cache m requests =
  let cache = cache_on m in
  List.iter
    (fun sp ->
      ignore
        (Serve.Ops.solve ~cache ~budget:(Exec.Budget.create ~max_nodes:solve_budget ()) sp))
    requests

(* An in-process daemon at pool width 1 with its cache on [m],
   listening on a Unix socket under [dir] (a relative path keeps the
   socket name short whatever the checkout path). *)
let start_daemon m ~dir =
  let cache = cache_on m in
  let listen = Proto.Unix_sock (Filename.concat dir "wire.sock") in
  let cfg = { (Serve.Daemon.default_config ~cache ~listen ()) with Serve.Daemon.jobs = 1 } in
  let d = Serve.Daemon.create cfg in
  let dom = Domain.spawn (fun () -> Serve.Daemon.run d) in
  { d; dom; addr = listen }

let stop_daemon t =
  Serve.Daemon.stop t.d;
  Domain.join t.dom

let connect t = Client.connect t.addr
let close = Client.close
let encode_solve ~id sp = Proto.encode_request (Proto.solve ~id:(Stdx.Jsonx.Int id) sp)
let send_line = Client.send_raw
let recv_line = Client.recv_raw

(* [Some payload] for an ok reply, [None] for anything else. *)
let decode_payload line =
  match Proto.decode_reply line with
  | Ok (Proto.Ok_reply { payload; _ }) -> Some payload
  | Ok _ | Error _ -> None

(* The offline answer: Serve.Ops.solve on a fresh cacheless context. *)
let offline_solve sp =
  (Serve.Ops.solve ~cache:(Exec.Cache.disabled ())
     ~budget:(Exec.Budget.create ~max_nodes:solve_budget ())
     sp)
    .Serve.Ops.payload

(* ------------------------------------------------------------------ *)
(* Obs layer: counters read at span boundaries *)

type counters = M.snapshot

let counters = M.snapshot
let delta ~before ~after = M.diff ~before ~after
let counter s name = M.sum_family s name

let histogram_sum_count s name =
  match M.find s name with Some x -> (x.M.sum, x.M.value) | None -> (0.0, 0.0)
