(* A fixed-size, self-healing pool of worker domains.

   One batch protocol serves [map] and [run_range].  Each call builds a
   fresh [batch] record with its own claim counter [next] and completion
   count [filled], installs it under [sh.m] (bumping the generation the
   workers chase), drains it alongside the workers and supervises it to
   completion.  A worker still holding an earlier batch can only claim
   from that batch's exhausted counter, so it finds nothing and goes
   back to waiting: nothing is ever reset under a running worker.

   Determinism does not come from scheduling (tasks are claimed
   first-come-first-served) but from indexing: task [i] publishes only
   slot [i], and the caller reassembles slots in input order.  Slot
   publication is CAS-once (0 -> 1), so [filled] counts slots, not
   publish calls: the batch is complete at [filled = count] only if no
   slot publishes twice, and the CAS makes that hold by construction
   rather than resting on the claim protocol alone (which hands a slot
   to one executor at a time, and publishes a killed slot's poison
   verdict only after its executor died).  The [Atomic.incr filled]
   after a winning CAS is the happens-before edge that makes the
   (nonatomic) slot write visible to whoever later reads
   [filled = count].

   Supervision model.  OCaml domains cannot be killed from outside, and
   a task that never returns blocks its batch; "supervision" means two
   things:

   - a worker whose task raises {!Chaos_kill} (the chaos harness's
     simulated crash) runs a death protocol on the way out: its kill is
     charged to its claimed slot, which is re-enqueued ([map]) or
     poisoned at once ([run_range]), and the caller is woken.  The
     caller itself drains re-enqueued slots, so it can always make
     progress even if every worker is gone;
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
  exec : int -> unit;  (* compute + publish slot i; may raise Chaos_kill *)
  poison : int -> int -> unit;  (* publish Worker_death for (slot, kills) *)
  next : int Atomic.t;  (* next unclaimed primary index *)
  filled : int Atomic.t;  (* slots published; the batch is done at [count] *)
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

(* [run_range]'s per-pool slots, one per chunk: publication flags
   (CAS-once, 0 -> 1, as in [map]), error slots and kill tallies, and
   the requeue queue, which stays empty because ranges never retry.
   Only the batch record is fresh per call, which keeps a barrier to one
   small allocation; each call leaves the slots clean before it
   returns. *)
type range_slots = {
  r_pub : int Atomic.t array;
  r_err : (exn * Printexc.raw_backtrace) option array;
  r_kills : int array;
  r_requeued : int Queue.t;
}

type t = {
  jobs : int;
  id : int;
  shared : shared option;  (* None iff jobs = 1 *)
  mutable workers : worker array;
  mutable alive : bool;
  mutable restarts : int;  (* workers respawned over the pool's life *)
  range : range_slots;
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

(* Claim the next slot, or -1: the primary counter first, then (under
   the lock, for a batch that retries) a slot orphaned by a dead
   worker. *)
let claim sh b =
  let i = Atomic.fetch_and_add b.next 1 in
  if i < b.count then i
  else if not b.retry then -1
  else begin
    Mutex.lock sh.m;
    let r = if Queue.is_empty b.requeued then -1 else Queue.pop b.requeued in
    Mutex.unlock sh.m;
    r
  end

(* Charge a worker death to slot [i]: re-enqueue it for survivors, or —
   once it has killed [kill_limit] workers, or at once if the batch
   never retries — quarantine it as poison by publishing
   [Worker_death].  Call with [sh.m] held. *)
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
  let i = claim sh b in
  if i < 0 then `Done
  else match b.exec i with () -> drain_worker sh b | exception _ -> `Died i

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
      range =
        {
          r_pub = Array.init jobs (fun _ -> Atomic.make 0);
          r_err = Array.make jobs None;
          r_kills = Array.make jobs 0;
          r_requeued = Queue.create ();
        };
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
(* The batch protocol *)

(* The calling domain is worker number [jobs]: it drains the counter
   alongside the workers and absorbs its own Chaos_kills (the caller
   cannot die — each one is charged as a kill, and the slot re-enqueued
   or poisoned). *)
let rec drain_caller sh b =
  let i = claim sh b in
  if i >= 0 then begin
    (try b.exec i
     with Chaos_kill ->
       Mutex.lock sh.m;
       handle_kill b i;
       Mutex.unlock sh.m);
    drain_caller sh b
  end

(* After its own share the caller supervises: it drains slots that
   deaths re-enqueued until every slot has published.  Every progress
   event (publish-then-idle, death, requeue) broadcasts [finished] under
   [sh.m], and the predicate is rechecked under [sh.m], so no wakeup can
   be lost. *)
let rec supervise sh b =
  drain_caller sh b;
  if Atomic.get b.filled < b.count then begin
    Mutex.lock sh.m;
    if Atomic.get b.filled < b.count && Queue.is_empty b.requeued then
      Condition.wait sh.finished sh.m;
    Mutex.unlock sh.m;
    supervise sh b
  end

(* Install [b] as the pool's batch and wake the workers.  A task
   calling back into its own pool, or a second caller, finds the batch
   slot taken and raises [Invalid_argument nested] before anything of
   the running batch is touched. *)
let install sh ~nested b =
  Mutex.lock sh.m;
  if sh.job <> None then begin
    Mutex.unlock sh.m;
    invalid_arg nested
  end;
  sh.job <- Some b;
  sh.gen <- sh.gen + 1;
  Condition.broadcast sh.ready;
  Mutex.unlock sh.m

(* Free the batch slot once the batch has completed. *)
let release sh =
  Mutex.lock sh.m;
  sh.job <- None;
  Mutex.unlock sh.m

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
            filled;
            requeued = Queue.create ();
            kills = Array.make n 0;
            retry = true;
          }
        in
        install sh ~nested:"Exec.Pool.map: nested or concurrent map on one pool" b;
        supervise sh b;
        release sh;
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

(* Start of chunk [i] of [jobs] over [lo, hi), for [0 <= i <= jobs]:
   chunk [i] is [\[chunk_start i, chunk_start (i + 1))]. *)
let chunk_start ~jobs ~lo ~hi i =
  let len = hi - lo in
  let q = len / jobs and r = len mod jobs in
  lo + (i * q) + if i < r then i else r

let chunk_bounds ~jobs ~lo ~hi i =
  if jobs < 1 then invalid_arg "Exec.Pool.chunk_bounds: jobs must be >= 1";
  if i < 0 || i >= jobs then
    invalid_arg "Exec.Pool.chunk_bounds: chunk index out of range";
  (chunk_start ~jobs ~lo ~hi i, chunk_start ~jobs ~lo ~hi (i + 1))

(* [r_err] is written only after a winning CAS, and the [filled]
   increment after that write publishes it to the caller. *)
let range_publish r filled i err =
  if Atomic.compare_and_set r.r_pub.(i) 0 1 then begin
    r.r_err.(i) <- err;
    Atomic.incr filled
  end

(* Clear chunks [i..] for the next call and return the lowest-index
   failure among them, or [first].  Every chunk has published, and an
   executor touches its chunk's slots only up to its publish (a death
   is charged, and its poison published, before that), so no worker
   races these stores; the next install, under [sh.m], publishes
   them. *)
let rec range_settle r i first =
  if i = Array.length r.r_pub then first
  else begin
    let first = match first with None -> r.r_err.(i) | some -> some in
    Atomic.set r.r_pub.(i) 0;
    r.r_err.(i) <- None;
    r.r_kills.(i) <- 0;
    range_settle r (i + 1) first
  end

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
  | Some sh -> (
      if Array.exists (fun (w : worker) -> not (Atomic.get w.alive)) t.workers
      then respawn_dead t sh;
      let r = t.range and jobs = t.jobs in
      let filled = Atomic.make 0 in
      let exec i =
        range_publish r filled i
          (match
             f (chunk_start ~jobs ~lo ~hi i) (chunk_start ~jobs ~lo ~hi (i + 1))
           with
          | () -> None
          | exception (Chaos_kill as e) -> raise e
          | exception e -> Some (e, Printexc.get_raw_backtrace ()))
      in
      let poison i _kills =
        range_publish r filled i
          (Some
             ( Error.Error (Error.Worker_death range_poison_message),
               Printexc.get_callstack 0 ))
      in
      let b =
        {
          count = jobs;
          exec;
          poison;
          next = Atomic.make 0;
          filled;
          requeued = r.r_requeued;
          kills = r.r_kills;
          retry = false;
        }
      in
      install sh
        ~nested:"Exec.Pool.run_range: nested or concurrent batch on one pool" b;
      supervise sh b;
      (* Settle before [release]: the slots are the pool's, and the next
         batch may be installed as soon as the slot is free. *)
      let first = range_settle r 0 None in
      release sh;
      (* Lowest-index failure first: what ascending sequential chunk
         execution would have raised. *)
      match first with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

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
