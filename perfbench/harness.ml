(* Measurement plumbing shared by the workloads: repeated set-up, a
   fixed-length loop of timed passes, host-speed probes, medians, peak
   RSS and the result line.  No library calls here; those live in [Adapter]. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Latencies in a fixed histogram of 1 µs buckets up to 200 ms (the last
   bucket takes anything slower): memory does not depend on how many
   requests a run made, so neither does peak RSS. *)
type latencies = { counts : int array; mutable total : int }

let latency_buckets = 200_000
let latencies () = { counts = Array.make latency_buckets 0; total = 0 }

let record_latency h seconds =
  let b = min (latency_buckets - 1) (int_of_float (seconds *. 1e6)) in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1

(* Nearest-rank percentile in ms (bucket upper edge), plus how many
   samples lie beyond its bucket — a percentile is only reported with at
   least ten of those. *)
let percentile_ms h q =
  let rank = max 1 (int_of_float (ceil (q /. 100.0 *. float_of_int h.total))) in
  let rec go b seen =
    let seen = seen + h.counts.(b) in
    if seen >= rank || b = latency_buckets - 1 then (float_of_int (b + 1) /. 1000.0, h.total - seen)
    else go (b + 1) seen
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Timing *)

(* Host-speed probes.

   The host this benchmark was tuned on drifts by tens of percent over
   minutes (a fixed loop ran anywhere from 0.16 to 0.32 s), far more
   than a regression bound.  So every timed interval is bracketed by a
   fixed probe that calls nothing in the libraries, and is reported
   drift-corrected: wall × probe_ref / (mean of the two probe times).
   The [Cpu] probe (a heap sort of a fixed array plus an integer loop)
   tracks compute and memory speed; the [Echo] probe (one-byte round
   trips to a benchmark-owned domain over a socket pair) tracks the
   wake-up latency that a closed request loop pays.  Raw walls are kept
   alongside and printed. *)

type probe = Cpu | Cpu2 | Echo

(* Probe durations on a quiet 2-vCPU host; corrected timings read as
   seconds on that host. *)
let probe_ref = function Cpu | Cpu2 -> 0.025 | Echo -> 0.015

let probe_len = 65_536

let probe_template =
  lazy
    (let st = ref 12345 in
     Array.init probe_len (fun _ ->
         st := ((!st * 1103515245) + 12345) land 0x3fffffff;
         !st))

let cpu_work work =
  Array.blit (Lazy.force probe_template) 0 work 0 probe_len;
  Array.sort Int.compare work;
  let acc = ref 0 in
  for i = 0 to (2 * probe_len) - 1 do
    acc := (!acc * 31) + work.(i * 7919 mod probe_len)
  done;
  ignore (Sys.opaque_identity !acc)

let main_work = Array.make probe_len 0
let cpu_probe () = cpu_work main_work

(* The [Cpu2] probe runs the same work on the calling domain and on a
   benchmark-owned helper domain at once, and ends when both are done:
   a workload on two domains waits for the slower one, and so does
   this probe. *)
type helper = { m : Mutex.t; c : Condition.t; mutable go : int; finished : int Atomic.t }

let helper =
  lazy
    (let h = { m = Mutex.create (); c = Condition.create (); go = 0; finished = Atomic.make 0 } in
     let work = Array.make probe_len 0 in
     let dom =
       Domain.spawn (fun () ->
           let seen = ref 0 and live = ref true in
           while !live do
             Mutex.lock h.m;
             while h.go = !seen do
               Condition.wait h.c h.m
             done;
             seen := h.go;
             live := h.go > 0;
             Mutex.unlock h.m;
             if !live then begin
               cpu_work work;
               Atomic.incr h.finished
             end
           done)
     in
     (h, dom))

let signal h go =
  Mutex.lock h.m;
  h.go <- go;
  Condition.signal h.c;
  Mutex.unlock h.m

let cpu2_probe () =
  let h, _ = Lazy.force helper in
  let target = Atomic.get h.finished + 1 in
  signal h (abs h.go + 1);
  cpu_probe ();
  while Atomic.get h.finished < target do
    Domain.cpu_relax ()
  done

let echo_peer =
  lazy
    (let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     let peer =
       Domain.spawn (fun () ->
           let buf = Bytes.create 1 in
           while Unix.read theirs buf 0 1 = 1 && Bytes.get buf 0 = 'p' do
             ignore (Unix.write theirs buf 0 1)
           done;
           Unix.close theirs)
     in
     (mine, peer))

let echo_probe () =
  let fd, _ = Lazy.force echo_peer in
  let buf = Bytes.make 1 'p' in
  for _ = 1 to 1000 do
    ignore (Unix.write fd buf 0 1);
    ignore (Unix.read fd buf 0 1)
  done

(* Stops the probe domains that were started. *)
let stop_probes () =
  if Lazy.is_val echo_peer then begin
    let fd, peer = Lazy.force echo_peer in
    ignore (Unix.write fd (Bytes.make 1 'q') 0 1);
    Domain.join peer;
    Unix.close fd
  end;
  if Lazy.is_val helper then begin
    let h, dom = Lazy.force helper in
    signal h (-1);
    Domain.join dom
  end

let probe kind =
  let t0 = now () in
  (match kind with Cpu -> cpu_probe () | Cpu2 -> cpu2_probe () | Echo -> echo_probe ());
  now () -. t0

(* One timed interval: raw wall, the bracketing probe times, and the
   drift-corrected wall. *)
type sample = { wall : float; probe_s : float; corrected : float }

let timed kind f =
  let p0 = probe kind in
  let t0 = now () in
  let v = f () in
  let wall = now () -. t0 in
  let probe_s = (p0 +. probe kind) /. 2.0 in
  (v, { wall; probe_s; corrected = wall *. probe_ref kind /. probe_s })

let corrected samples = List.map (fun s -> s.corrected) samples
let walls samples = List.map (fun s -> s.wall) samples
let probes samples = List.map (fun s -> s.probe_s) samples

(* Runs [f] [times] times and returns the last result with every
   timing.  Each run starts from a collected heap; [teardown] releases
   every result but the last, outside the clock. *)
let repeat_setup ?(teardown = ignore) ~probe:kind ~times f =
  let last = ref None and samples = ref [] in
  for _ = 1 to times do
    Option.iter teardown !last;
    Gc.full_major ();
    let v, s = timed kind f in
    samples := s :: !samples;
    last := Some v
  done;
  (Option.get !last, List.rev !samples)

(* Timed passes until [seconds] of wall time have gone by, at least
   [min_passes] ran and the count is a multiple of [quantum] (so pass
   kinds cycled by index get equal shares).  Every pass starts from a
   collected heap; only the pass and its probes are timed.  [pass i]
   returns its own result; [check i r] runs after the clock stops. *)
let timed_passes ?(quantum = 2) ~probe:kind ~seconds ~min_passes ~pass ~check () =
  let t_end = now () +. seconds in
  let samples = ref [] and i = ref 0 in
  while !i < min_passes || now () < t_end || !i mod quantum <> 0 do
    Gc.full_major ();
    let r, s = timed kind (fun () -> pass !i) in
    samples := s :: !samples;
    check !i r;
    incr i
  done;
  List.rev !samples

(* ------------------------------------------------------------------ *)
(* Process facts *)

let status_kb key =
  try
    let ic = open_in "/proc/self/status" in
    let rec go () =
      match input_line ic with
      | line ->
          let k = String.length key in
          if String.length line > k && String.sub line 0 k = key then begin
            close_in ic;
            Scanf.sscanf (String.sub line k (String.length line - k)) " %d" Fun.id
          end
          else go ()
      | exception End_of_file ->
          close_in ic;
          0
    in
    go ()
  with Sys_error _ -> 0

let peak_rss_mb () = float_of_int (status_kb "VmHWM:") /. 1024.0

(* ------------------------------------------------------------------ *)
(* Outcome of one workload run *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Operations checked against the oracle, and how many disagreed. *)
type tally = { mutable attempted : int; mutable failed : int; mutable first_failure : string }

let tally () = { attempted = 0; failed = 0; first_failure = "" }

let expect t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.first_failure = "" then t.first_failure <- what
  end

type outcome = {
  end_to_end : metric list;  (** the gated metrics, untraced runs only *)
  layers : metric list;  (** per-layer metrics, traced runs only *)
  info : (string * string) list;  (** human-readable extras: bases, percentiles *)
  tally : tally;
  samples : (string * sample) list;  (** every timed interval, labelled *)
}

let write_samples path samples =
  let oc = open_out path in
  output_string oc "label,wall_s,probe_s,corrected_s\n";
  List.iter
    (fun (label, s) ->
      Printf.fprintf oc "%s,%.9f,%.9f,%.9f\n" label s.wall s.probe_s s.corrected)
    samples;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Output: a human block, then the one-line JSON result *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "null"

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string mt.name)
          (json_number mt.value) (json_string mt.unit_))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " fields)

let json_object kvs =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) kvs)
  ^ "}"
