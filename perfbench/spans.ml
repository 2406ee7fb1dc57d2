(* In-memory span recorder for the traced run.

   A span has a name ("<layer>.<what>"), a start, an end, a parent span
   and an operation id shared by every span of one operation (one
   algorithm pass, one decision, one request).  Spans are recorded only
   by the benchmark's own files, around calls into the adapter; nothing
   inside the libraries is instrumented.  When the recorder is off,
   [span] is a plain call.  Spans are recorded from one thread. *)

type t = {
  mutable on : bool;
  mutable len : int;
  mutable names : string array;
  mutable ops : int array;
  mutable parents : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable next_op : int;
}

let create () =
  {
    on = false;
    len = 0;
    names = Array.make 1024 "";
    ops = Array.make 1024 0;
    parents = Array.make 1024 (-1);
    starts = Array.make 1024 0.0;
    stops = Array.make 1024 0.0;
    next_op = 0;
  }

let recorder = create ()
let enable on = recorder.on <- on

(* Forget every recorded span (one workload run starts from empty). *)
let reset () =
  recorder.len <- 0;
  recorder.next_op <- 0
let count () = recorder.len

let grow r =
  let cap = 2 * Array.length r.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 r.len;
    b
  in
  r.names <- ext r.names "";
  r.ops <- ext r.ops 0;
  r.parents <- ext r.parents (-1);
  r.starts <- ext r.starts 0.0;
  r.stops <- ext r.stops 0.0

(* A fresh operation id; spans opened under [~op] share it. *)
let new_op () =
  let id = recorder.next_op in
  recorder.next_op <- id + 1;
  id

(* [start ~op ~parent name] opens a span below [parent] ([-1] for a
   root) and returns its id, or [-1] when the recorder is off; [stop]
   closes it. *)
let start ~op ~parent name =
  let r = recorder in
  if not r.on then -1
  else begin
    if r.len = Array.length r.names then grow r;
    let id = r.len in
    r.names.(id) <- name;
    r.ops.(id) <- op;
    r.parents.(id) <- parent;
    r.starts.(id) <- Unix.gettimeofday ();
    r.len <- id + 1;
    id
  end

let stop id = if id >= 0 then recorder.stops.(id) <- Unix.gettimeofday ()

(* [span ~op ~parent name f] records [f id] as a span, passing its id to
   [f] so nested calls can hang below it. *)
let span ~op ~parent name f =
  let id = start ~op ~parent name in
  match f id with
  | v ->
      stop id;
      v
  | exception e ->
      stop id;
      raise e

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Self time per layer over the spans whose root span is called [root]:
   a span's duration minus the durations of its children (children of
   one parent run one after another on one thread, so they never
   overlap).  A parent is always opened before its children, so roots
   resolve in one forward sweep. *)
let self_times ~root =
  let r = recorder in
  let child = Array.make r.len 0.0 in
  let top = Array.make r.len 0 in
  for i = 0 to r.len - 1 do
    let p = r.parents.(i) in
    if p >= 0 then begin
      child.(p) <- child.(p) +. (r.stops.(i) -. r.starts.(i));
      top.(i) <- top.(p)
    end
    else top.(i) <- i
  done;
  let tbl = Hashtbl.create 8 in
  for i = 0 to r.len - 1 do
    if r.names.(top.(i)) = root then begin
      let l = layer r.names.(i) in
      let self = r.stops.(i) -. r.starts.(i) -. child.(i) in
      Hashtbl.replace tbl l
        (self +. Option.value (Hashtbl.find_opt tbl l) ~default:0.0)
    end
  done;
  tbl

(* Total duration of the spans called [name]. *)
let total name =
  let r = recorder in
  let s = ref 0.0 in
  for i = 0 to r.len - 1 do
    if r.names.(i) = name then s := !s +. (r.stops.(i) -. r.starts.(i))
  done;
  !s

(* One CSV line per span, times in microseconds from the first span. *)
let write path =
  let r = recorder in
  let t0 = if r.len > 0 then r.starts.(0) else 0.0 in
  let us t = Int64.of_float ((t -. t0) *. 1e6) in
  let oc = open_out path in
  output_string oc "id,op,parent,name,start_us,end_us\n";
  for i = 0 to r.len - 1 do
    Printf.fprintf oc "%d,%d,%d,%s,%Ld,%Ld\n" i r.ops.(i) r.parents.(i)
      r.names.(i) (us r.starts.(i)) (us r.stops.(i))
  done;
  close_out oc
