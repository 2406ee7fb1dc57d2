(* A fixed-size, self-healing pool of worker domains fed by a per-batch
   atomic task counter.

   Determinism does not come from scheduling (tasks are claimed
   first-come-first-served) but from indexing: task [i] publishes only
   slot [i] of the result array, and the caller reassembles slots in
   input order.  Slot publication is CAS-once ([pub.(i)]: 0 -> 1), so
   [filled] counts slots, not publish calls: the batch is complete at
   [filled = count] only if no slot publishes twice, and the CAS makes
   that hold by construction rather than resting on the claim protocol
   alone (which hands a slot to one executor at a time, and publishes a
   killed slot's poison verdict only after its executor died).  The
   [Atomic.incr filled] after a winning CAS is the happens-before edge
   that makes the (nonatomic) slot write visible to whoever later reads
   [filled = count].

   Supervision model.  OCaml domains cannot be killed from outside, and
   a task that never returns blocks its batch; "supervision" means two
   things:

   - a worker whose task raises {!Chaos_kill} (the chaos harness's
     simulated crash) runs a death protocol on the way out: its claimed
     slot is re-enqueued, its kill is charged to that slot, and the
     caller is woken.  The caller itself drains re-enqueued slots, so
     it can always make progress even if every worker is gone;
   - a slot whose executions have killed [kill_limit] workers is a
     {e poison task}: it is quarantined by publishing
     [Error.Worker_death] as its result instead of re-enqueueing, so a
     deterministic crasher terminates the batch instead of eating the
     whole pool.

   Dead workers are joined and replaced between batches (never
   mid-batch, so a batch's worker array is stable), counted in
   [pool_worker_restarts_total]. *)

exception Chaos_kill

type batch = {
  count : int;
  mutable exec : int -> unit;
      (* compute + publish slot i; may raise Chaos_kill.  Mutable only
         so the reusable [run_range] batch can be wired up after the
         record exists; [map] never reassigns it. *)
  mutable poison : int -> int -> unit;
      (* publish Worker_death for (slot, kills) *)
  next : int Atomic.t;  (* next unclaimed primary index *)
  requeued : int Queue.t;  (* slots orphaned by dead workers; under [m] *)
  kills : int array;  (* worker deaths charged per slot; under [m] *)
  retry : bool;
      (* re-enqueue a killed slot (map semantics)?  [run_range] sets
         false: its tasks mutate shared state in place, so a partially
         executed chunk must never run twice — the first kill poisons. *)
}

type shared = {
  m : Mutex.t;
  ready : Condition.t;  (* a new batch was published (gen bumped) *)
  finished : Condition.t;  (* batch progress: idle worker, death, requeue *)
  mutable job : batch option;
  mutable gen : int;  (* batch generation; workers chase it *)
  mutable stop : bool;
}

(* One worker incarnation; a respawn installs a fresh record. *)
type worker = {
  mutable domain : unit Domain.t option;
  alive : bool Atomic.t;
      (* false once its task killed it (the body is then returning) or
         it could not be spawned *)
}

(* Reusable state for {!run_range}: one chunk per pool slot, rebuilt
   never — the same batch record, publication flags and error slots are
   reset in place each call, so a settled barrier round allocates
   nothing (the closures below are created once per pool, not per
   call). *)
type range_state = {
  mutable rs_f : int -> int -> unit;  (* body for the current call *)
  mutable rs_lo : int;
  mutable rs_hi : int;
  mutable rs_gen : int;  (* generation the current call is wired for *)
  rs_pub : int Atomic.t array;
      (* chunk publication, generation-tagged because the record is
         reused: [g] = open for generation [g], [-g] = published for
         generation [g], [0] = never opened (matches no generation, so
         nothing can publish before the first call). *)
  rs_err : (exn * Printexc.raw_backtrace) option array;
  rs_filled : int Atomic.t;
  rs_batch : batch;
  mutable rs_job : batch option;  (* preallocated [Some rs_batch] *)
}

type t = {
  jobs : int;
  id : int;
  shared : shared option;  (* None iff jobs = 1 *)
  mutable workers : worker array;
  mutable alive : bool;
  mutable restarts : int;  (* workers respawned over the pool's life *)
  mutable range : range_state option;  (* lazily built on first run_range *)
}

(* Workers one slot may kill before it is quarantined as poison. *)
let kill_limit = 2

let jobs t = t.jobs

let restarts t = t.restarts

(* Pool metrics (docs/OBSERVABILITY.md).  One histogram observation per
   [map] batch — never per task — so instrumentation stays off the
   steal-free claim path. *)
let m_batches = Obs.Metrics.counter "pool_batches_total"

let m_tasks = Obs.Metrics.counter "pool_tasks_total"

let m_workers = Obs.Metrics.gauge "pool_workers"

let m_restarts = Obs.Metrics.counter "pool_worker_restarts_total"

let m_requeued = Obs.Metrics.counter "pool_tasks_requeued_total"

let m_map_seconds =
  Obs.Metrics.histogram ~buckets:Obs.Metrics.default_latency_buckets
    "pool_map_seconds"

let timed_batch ~count f =
  Obs.Metrics.inc m_batches;
  Obs.Metrics.add m_tasks count;
  let t0 = Obs.Span.now () in
  let r = f () in
  Obs.Metrics.observe m_map_seconds (Obs.Span.now () -. t0);
  r

let live_workers t =
  Array.fold_left
    (fun n (w : worker) -> if Atomic.get w.alive then n + 1 else n)
    0 t.workers
  + 1 (* the calling domain always participates *)

(* ------------------------------------------------------------------ *)
(* Batch mechanics *)

(* Claim the next slot: the primary counter first, then (under the lock)
   a slot orphaned by a dead worker. *)
let claim sh b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.count then Some i
  else begin
    Mutex.lock sh.m;
    let r = if Queue.is_empty b.requeued then None else Some (Queue.pop b.requeued) in
    Mutex.unlock sh.m;
    r
  end

(* Charge a worker death to slot [i]: re-enqueue it for survivors, or —
   once it has killed [kill_limit] workers — quarantine it as poison by
   publishing [Worker_death].  Call with [sh.m] held. *)
let handle_kill b i =
  b.kills.(i) <- b.kills.(i) + 1;
  if (not b.retry) || b.kills.(i) >= kill_limit then b.poison i b.kills.(i)
  else begin
    Queue.push i b.requeued;
    Obs.Metrics.inc m_requeued
  end

let poison_message i k =
  Printf.sprintf "poison task: slot %d killed %d worker(s); quarantined" i k

(* Worker's share of a batch. *)
let rec drain_worker sh b =
  match claim sh b with
  | None -> `Done
  | Some i -> (
      match b.exec i with () -> drain_worker sh b | exception _ -> `Died i)

let rec worker_loop sh (w : worker) seen =
  Mutex.lock sh.m;
  let rec await seen =
    if sh.stop then None
    else if sh.gen <> seen then (
      match sh.job with
      | Some b -> Some (sh.gen, b)
      | None -> await sh.gen (* batch came and went while we were idle *))
    else begin
      Condition.wait sh.ready sh.m;
      await seen
    end
  in
  match await seen with
  | None -> Mutex.unlock sh.m
  | Some (gen, b) -> (
      Mutex.unlock sh.m;
      match drain_worker sh b with
      | `Done ->
          (* Broadcast even when the batch is not finished: the caller
             may be waiting for requeued work another death produced. *)
          Mutex.lock sh.m;
          Condition.broadcast sh.finished;
          Mutex.unlock sh.m;
          worker_loop sh w gen
      | `Died i ->
          Atomic.set w.alive false;
          Mutex.lock sh.m;
          handle_kill b i;
          Condition.broadcast sh.finished;
          Mutex.unlock sh.m)

(* ------------------------------------------------------------------ *)
(* Spawning and supervision *)

let fresh_worker () = { domain = None; alive = Atomic.make true }

(* Spawning can fail transiently (thread limits, memory pressure).
   Retry briefly; a worker that still cannot spawn is returned dead
   (domain = None) — the pool runs width-degraded and retries the
   respawn before the next batch. *)
let spawn_worker sh =
  let w = fresh_worker () in
  let seen = (Mutex.lock sh.m; let g = sh.gen in Mutex.unlock sh.m; g) in
  (match
     Error.with_retries ~label:"pool.spawn" (fun () ->
         try Domain.spawn (fun () -> worker_loop sh w seen)
         with e -> raise (Error.Error (Error.Worker_death (Printexc.to_string e))))
   with
  | d -> w.domain <- Some d
  | exception Error.Error (Error.Worker_death _) -> Atomic.set w.alive false);
  w

let join_worker (w : worker) =
  match w.domain with
  | Some d -> ( try Domain.join d with _ -> ())
  | None -> ()

(* Replace dead workers (between batches only, so a batch's worker array
   is stable).  A dead worker has already run its death protocol and its
   body is returning, so the join does not wait on any task. *)
let respawn_dead t sh =
  Array.iteri
    (fun k (w : worker) ->
      if not (Atomic.get w.alive) then begin
        join_worker w;
        t.workers.(k) <- spawn_worker sh;
        t.restarts <- t.restarts + 1;
        Obs.Metrics.inc m_restarts
      end)
    t.workers;
  Obs.Metrics.set m_workers (live_workers t)

(* ------------------------------------------------------------------ *)
(* Process-exit registry *)

(* One process-wide at_exit hook over a registry of live pools (domains
   left blocked at process exit would make [exit] hang), instead of one
   closure pinned per pool forever. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 8

let registry_m = Mutex.create ()

let next_pool_id = Atomic.make 0

let rec registry_hook = lazy (at_exit shutdown_all)

and shutdown_all () =
  Mutex.lock registry_m;
  let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
  Mutex.unlock registry_m;
  List.iter shutdown pools

and register t =
  Lazy.force registry_hook;
  Mutex.lock registry_m;
  Hashtbl.replace registry t.id t;
  Mutex.unlock registry_m

and unregister t =
  Mutex.lock registry_m;
  Hashtbl.remove registry t.id;
  Mutex.unlock registry_m

and shutdown t =
  if t.alive then begin
    t.alive <- false;
    unregister t;
    match t.shared with
    | None -> ()
    | Some sh ->
        Mutex.lock sh.m;
        sh.stop <- true;
        Condition.broadcast sh.ready;
        Mutex.unlock sh.m;
        Array.iter join_worker t.workers;
        t.workers <- [||]
  end

(* ------------------------------------------------------------------ *)
(* Construction *)

let create ~jobs () =
  if jobs < 1 then invalid_arg "Exec.Pool.create: jobs must be >= 1";
  let t =
    {
      jobs;
      id = Atomic.fetch_and_add next_pool_id 1;
      shared =
        (if jobs = 1 then None
         else
           Some
             {
               m = Mutex.create ();
               ready = Condition.create ();
               finished = Condition.create ();
               job = None;
               gen = 0;
               stop = false;
             });
      workers = [||];
      alive = true;
      restarts = 0;
      range = None;
    }
  in
  (match t.shared with
  | None -> ()
  | Some sh ->
      t.workers <- Array.init (jobs - 1) (fun _ -> spawn_worker sh);
      Obs.Metrics.set m_workers (live_workers t);
      register t);
  t

(* ------------------------------------------------------------------ *)
(* map *)

(* Sequential fallback honoring the same crash semantics as the pooled
   path: the caller cannot die, so each Chaos_kill counts as one worker
   kill against the slot, and the kill limit quarantines it — identical
   results (and identical poison error) to any [jobs] width. *)
let map_seq f xs =
  Array.mapi
    (fun i x ->
      let rec attempt k =
        match f x with
        | v -> v
        | exception Chaos_kill ->
            let k = k + 1 in
            if k >= kill_limit then
              raise (Error.Error (Error.Worker_death (poison_message i k)))
            else attempt k
      in
      attempt 0)
    xs

let map t f xs =
  if not t.alive then invalid_arg "Exec.Pool.map: pool was shut down";
  let n = Array.length xs in
  if n = 0 then [||]
  else
    timed_batch ~count:n @@ fun () ->
    match t.shared with
    | None -> map_seq f xs
    | Some sh ->
        respawn_dead t sh;
        let slots = Array.make n None in
        let pub = Array.init n (fun _ -> Atomic.make 0) in
        let filled = Atomic.make 0 in
        let publish i r =
          if Atomic.compare_and_set pub.(i) 0 1 then begin
            slots.(i) <- Some r;
            Atomic.incr filled
          end
        in
        let exec i =
          let r =
            try Ok (f xs.(i))
            with
            | Chaos_kill as e -> raise e
            | e -> Error (e, Printexc.get_raw_backtrace ())
          in
          publish i r
        in
        let poison i k =
          publish i
            (Error
               ( Error.Error (Error.Worker_death (poison_message i k)),
                 Printexc.get_callstack 0 ))
        in
        let b =
          {
            count = n;
            exec;
            poison;
            next = Atomic.make 0;
            requeued = Queue.create ();
            kills = Array.make n 0;
            retry = true;
          }
        in
        Mutex.lock sh.m;
        if sh.job <> None then begin
          Mutex.unlock sh.m;
          invalid_arg "Exec.Pool.map: nested or concurrent map on one pool"
        end;
        sh.job <- Some b;
        sh.gen <- sh.gen + 1;
        Condition.broadcast sh.ready;
        Mutex.unlock sh.m;
        (* The calling domain is worker number [jobs]: it drains the
           primary counter alongside the workers, absorbs its own
           Chaos_kills (the caller cannot die — each one is charged as a
           kill and the slot re-enqueued or poisoned), and afterwards
           supervises: draining orphaned slots until every slot has
           published. *)
        let rec drain_caller () =
          match claim sh b with
          | None -> ()
          | Some i ->
              (try b.exec i
               with Chaos_kill ->
                 Mutex.lock sh.m;
                 handle_kill b i;
                 Mutex.unlock sh.m);
              drain_caller ()
        in
        let rec supervise () =
          drain_caller ();
          if Atomic.get filled < n then begin
            (* Every progress event (publish-then-idle, death, requeue)
               broadcasts [finished] under [sh.m], and the predicate is
               rechecked under [sh.m], so no wakeup can be lost. *)
            Mutex.lock sh.m;
            if Atomic.get filled < n && Queue.is_empty b.requeued then
              Condition.wait sh.finished sh.m;
            Mutex.unlock sh.m;
            supervise ()
          end
        in
        supervise ();
        Mutex.lock sh.m;
        sh.job <- None;
        Mutex.unlock sh.m;
        (* Reassemble in input order; re-raise the lowest-index failure
           (what a sequential loop would have raised first). *)
        Array.iter
          (function
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | Some (Ok _) -> ()
            | None -> assert false)
          slots;
        Array.map
          (function Some (Ok v) -> v | Some (Error _) | None -> assert false)
          slots

let map_list t f xs = Array.to_list (map t f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* run_range: the barrier primitive behind the domain-sharded flat
   executor (docs/PERF.md).  [lo, hi) is split into exactly [jobs]
   contiguous chunks; every pool slot (workers + caller) executes one
   chunk as [f clo chi] and the call returns only when all chunks have
   published.  Unlike [map], a killed chunk is NEVER retried: range
   bodies mutate shared state in place (staging arenas, per-shard
   tallies, node state), so re-running a half-executed chunk would
   corrupt it.  The first kill quarantines the chunk with a
   width-independent [Worker_death] — the same exception at every
   [jobs], including 1. *)

let m_range_batches = Obs.Metrics.counter "pool_range_batches_total"

let range_poison_message =
  "range chunk killed its worker; quarantined without retry"

let chunk_bounds ~jobs ~lo ~hi i =
  if jobs < 1 then invalid_arg "Exec.Pool.chunk_bounds: jobs must be >= 1";
  if i < 0 || i >= jobs then
    invalid_arg "Exec.Pool.chunk_bounds: chunk index out of range";
  let len = hi - lo in
  let q = len / jobs and r = len mod jobs in
  let clo = lo + (i * q) + min i r in
  (clo, clo + q + if i < r then 1 else 0)

let dummy_range_f _ _ = ()

let dummy_exec (_ : int) = ()

let dummy_poison (_ : int) (_ : int) = ()

(* Publication is generation-tagged: a slot opened for generation [gen]
   holds [gen] and publishes by CAS [gen -> -gen], so each chunk
   publishes at most once per call, and only under the generation its
   executor read at chunk entry.  Every execution publishes within its
   own call (a killed chunk never publishes; its poison verdict is
   published for it, from the same call), so [rs_filled] counts the
   current call's chunks exactly once.  [rs_err] is written only after
   a winning CAS, and the [rs_filled] increment after that write is the
   happens-before edge publishing it to the caller. *)
let publish_range rs gen err i =
  if Atomic.compare_and_set rs.rs_pub.(i) gen (-gen) then begin
    rs.rs_err.(i) <- err;
    Atomic.incr rs.rs_filled
  end

(* Built once per pool; closes over [rs] only.  Generation and bounds
   are read at entry: the claim that led here observed [run_range]'s
   reset of [next], which is stored after them, so they are the
   current call's. *)
let range_exec rs i =
  let gen = rs.rs_gen in
  let jobs = Array.length rs.rs_pub in
  let len = rs.rs_hi - rs.rs_lo in
  let q = len / jobs and r = len mod jobs in
  let clo = rs.rs_lo + (i * q) + if i < r then i else r in
  let chi = clo + q + if i < r then 1 else 0 in
  let err =
    try
      rs.rs_f clo chi;
      None
    with
    | Chaos_kill as e -> raise e
    | e -> Some (e, Printexc.get_raw_backtrace ())
  in
  publish_range rs gen err i

(* Reached via [handle_kill] while the batch being poisoned is the
   current one, so [rs_gen] is the generation the kill belongs to. *)
let range_poison rs i _kills =
  publish_range rs rs.rs_gen
    (Some
       ( Error.Error (Error.Worker_death range_poison_message),
         Printexc.get_callstack 0 ))
    i

let range_state t =
  match t.range with
  | Some rs -> rs
  | None ->
      let jobs = t.jobs in
      let rs =
        {
          rs_f = dummy_range_f;
          rs_lo = 0;
          rs_hi = 0;
          rs_gen = 0;
          rs_pub = Array.init jobs (fun _ -> Atomic.make 0);
          rs_err = Array.make jobs None;
          rs_filled = Atomic.make 0;
          rs_batch =
            {
              count = jobs;
              exec = dummy_exec;
              poison = dummy_poison;
              next = Atomic.make 0;
              requeued = Queue.create ();
              kills = Array.make jobs 0;
              retry = false;
            };
          rs_job = None;
        }
      in
      (* Wire the once-per-pool closures after the record exists (the
         batch and the state reference each other). *)
      rs.rs_batch.exec <- range_exec rs;
      rs.rs_batch.poison <- range_poison rs;
      rs.rs_job <- Some rs.rs_batch;
      t.range <- Some rs;
      rs

(* Caller's share: claim chunks off the primary counter (no requeue
   exists when [retry = false]) and absorb its own Chaos_kills as
   immediate poison, mirroring a worker death. *)
let rec range_drain_caller sh (b : batch) =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.count then begin
    (try b.exec i
     with Chaos_kill ->
       Mutex.lock sh.m;
       handle_kill b i;
       Mutex.unlock sh.m);
    range_drain_caller sh b
  end

let rec range_supervise sh rs =
  range_drain_caller sh rs.rs_batch;
  if Atomic.get rs.rs_filled < rs.rs_batch.count then begin
    Mutex.lock sh.m;
    if Atomic.get rs.rs_filled < rs.rs_batch.count then
      Condition.wait sh.finished sh.m;
    Mutex.unlock sh.m;
    range_supervise sh rs
  end

let rec range_reraise rs i =
  if i < Array.length rs.rs_err then
    match rs.rs_err.(i) with
    | Some (e, bt) ->
        rs.rs_err.(i) <- None;
        Printexc.raise_with_backtrace e bt
    | None -> range_reraise rs (i + 1)

let run_range t ~lo ~hi f =
  if not t.alive then invalid_arg "Exec.Pool.run_range: pool was shut down";
  if hi < lo then invalid_arg "Exec.Pool.run_range: hi < lo";
  Obs.Metrics.inc m_range_batches;
  match t.shared with
  | None -> (
      (* jobs = 1: the chunk is the whole range, executed in place.  A
         Chaos_kill quarantines exactly as the pooled path would —
         identical exception at every width, and no retry. *)
      try f lo hi
      with Chaos_kill ->
        raise (Error.Error (Error.Worker_death range_poison_message)))
  | Some sh ->
      if Array.exists (fun (w : worker) -> not (Atomic.get w.alive)) t.workers
      then respawn_dead t sh;
      let rs = range_state t in
      let jobs = t.jobs in
      Mutex.lock sh.m;
      (* The nested/concurrent check must precede every write to [rs]:
         the range state is preallocated and shared, so a nested call
         from inside a chunk body would otherwise clobber the in-flight
         batch's cursors before discovering it must raise. *)
      if sh.job <> None then begin
        Mutex.unlock sh.m;
        invalid_arg "Exec.Pool.run_range: nested or concurrent batch on one pool"
      end;
      sh.gen <- sh.gen + 1;
      rs.rs_f <- f;
      rs.rs_lo <- lo;
      rs.rs_hi <- hi;
      rs.rs_gen <- sh.gen;
      Array.fill rs.rs_batch.kills 0 jobs 0;
      for i = 0 to jobs - 1 do
        Atomic.set rs.rs_pub.(i) rs.rs_gen;
        rs.rs_err.(i) <- None
      done;
      Atomic.set rs.rs_filled 0;
      sh.job <- rs.rs_job;
      (* The primary counter is reset LAST.  A worker from the previous
         barrier sitting between its final publish and its next claim
         does not hold [sh.m], so until this store it must keep seeing
         the exhausted old counter (>= count — every chunk is claimed
         through [next] exactly once, so completion implies exhaustion)
         and exit cleanly.  Resetting [next] any earlier would let that
         worker claim a chunk of THIS call while the publication slots
         are still mid-reset: the chunk would execute but its publish
         would be lost (CAS against a stale tag, or the filled
         increment wiped by the reset below it), and with no retry the
         barrier would hang forever.  This store is also the
         publication edge: a claim that does observe the fresh counter
         happens-after it and therefore sees the new
         [rs_f]/[rs_lo]/[rs_hi]/[rs_gen]. *)
      Atomic.set rs.rs_batch.next 0;
      Condition.broadcast sh.ready;
      Mutex.unlock sh.m;
      range_supervise sh rs;
      Mutex.lock sh.m;
      sh.job <- None;
      Mutex.unlock sh.m;
      rs.rs_f <- dummy_range_f;
      (* Lowest-index failure first: what ascending sequential chunk
         execution would have raised. *)
      range_reraise rs 0

let with_pool ~jobs f =
  let t = create ~jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let default_jobs () =
  match Sys.getenv_opt "MAXIS_JOBS" with
  | None -> 1
  | Some s -> (
      match String.trim (String.lowercase_ascii s) with
      | "" -> 1
      | "auto" | "0" -> Domain.recommended_domain_count ()
      | s -> (
          match int_of_string_opt s with Some j when j >= 1 -> j | _ -> 1))
