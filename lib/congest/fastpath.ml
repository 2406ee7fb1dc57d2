(* Flat CONGEST programs: the one implementation of each library
   algorithm, in kernel form.

   [Program.step] speaks in [(int * Msg.t) list] — every round allocates
   a cons cell, a tuple and a [Msg.t] record per message, which is what
   dominates runtime at n ≥ 10⁵.  A flat program exchanges messages as
   (src, tag, bits, word) int quads staged in preallocated buffers the
   executor ([Runtime.run_flat]) reuses across rounds, so a settled run
   allocates nothing per round.  It keeps its state in arrays allocated
   once per run, indexed by node slot and by CSR edge slot, and exposes
   one step function called per node: no per-node closures, no copied
   neighbour rows.  A node telling every neighbour the same thing stages
   one row ([emit_row]) rather than [deg] point sends, and the executor
   expands it only where messages must exist one by one.  The kernels
   below are the sources: [to_program] derives the list-mode form
   ([Algo_flood], [Algo_bfs], [Algo_luby], [Algo_greedy_mis],
   [Algo_gather]) by instantiating a kernel over one node's row, so the
   list-mode executor — fault plans, Broadcast mode — runs the very same
   step functions. *)

(* Tag conventions (mirroring the [Msg.payload] cases the library
   algorithms use). *)
let tag_int = 0
let tag_true = 1
let tag_false = 2

(* Inbox entries are interleaved (src, tag, word) triples in one backing
   array: one packed access touches one cache line where three parallel
   arrays would touch three.  [i_off] lets an inbox be a window into a
   shared delivery arena — [Runtime.run_flat] counting-sorts each
   round's messages into one contiguous buffer and steps every node
   through a single reused view, so there are no per-node inbox
   structures at all.  A standalone inbox (as [make_inbox] returns, and
   as tests use via [push_inbox]) keeps [i_off = 0]. *)
type inbox = {
  mutable i_buf : int array;  (* entry k at 3(i_off+k) .. 3(i_off+k)+2 *)
  mutable i_off : int;
  mutable i_len : int;
}

(* A row send occupies entry 0 with [e_row] set and [e_len = 1]; its
   [e_dst] slot is never read.  [clear] resets both fields together, so
   a point send is never mistaken for a row. *)
type emitter = {
  mutable e_dst : int array;
  mutable e_tag : int array;
  mutable e_bits : int array;
  mutable e_word : int array;
  mutable e_len : int;
  mutable e_row : bool;
}

let make_inbox () = { i_buf = [||]; i_off = 0; i_len = 0 }

(* In range whenever [k < i_len]: the producer ([push_inbox] or the
   executor's scatter pass) sized the buffer past the window's end. *)
let[@inline] in_src b k = Array.unsafe_get b.i_buf (3 * (b.i_off + k))
let[@inline] in_tag b k = Array.unsafe_get b.i_buf ((3 * (b.i_off + k)) + 1)
let[@inline] in_word b k = Array.unsafe_get b.i_buf ((3 * (b.i_off + k)) + 2)

let make_emitter () =
  {
    e_dst = [||];
    e_tag = [||];
    e_bits = [||];
    e_word = [||];
    e_len = 0;
    e_row = false;
  }

let[@inline] clear e =
  e.e_len <- 0;
  e.e_row <- false

(* The only unsafe array accesses in the library live in the two
   staging functions below and the [Runtime.run_flat] loop that drains them:
   the grow check just above each write puts the index in range by
   construction, and at 10⁷–10⁸ messages per sweep the bounds checks are
   a measurable slice of the whole run. *)

let grow_strided ~stride a len =
  (* Capacity stays a multiple of [stride] (8·stride, 16·stride, ...), so
     a full buffer is detected by [base = length] exactly. *)
  let a' = Array.make (max (8 * stride) (2 * Array.length a)) 0 in
  Array.blit a 0 a' 0 len;
  a'

let grow a len = grow_strided ~stride:1 a len

let[@inline] push_inbox b ~src ~tag ~word =
  let base = 3 * (b.i_off + b.i_len) in
  if base = Array.length b.i_buf then
    b.i_buf <- grow_strided ~stride:3 b.i_buf base;
  Array.unsafe_set b.i_buf base src;
  Array.unsafe_set b.i_buf (base + 1) tag;
  Array.unsafe_set b.i_buf (base + 2) word;
  b.i_len <- b.i_len + 1

(* Raised out of line so [emit] and [emit_row] stay small enough to
   inline. *)
let[@inline never] bad_send what ~bits ~word =
  invalid_arg
    (if bits < 0 then Printf.sprintf "Fastpath.%s: negative size %d" what bits
     else
       Printf.sprintf "Fastpath.%s: word %d does not fit in %d bits" what word
         bits)

let[@inline never] mixed what =
  invalid_arg
    (Printf.sprintf
       "Fastpath.%s: a round sends either one row or point messages, not both"
       what)

let[@inline] ill_sized ~tag ~bits ~word =
  bits < 0 || (tag = tag_int && (word < 0 || (bits < 63 && word >= 1 lsl bits)))

let[@inline] emit e ~dst ~tag ~bits ~word =
  if ill_sized ~tag ~bits ~word then bad_send "emit" ~bits ~word;
  if e.e_row then mixed "emit";
  if e.e_len = Array.length e.e_dst then begin
    e.e_dst <- grow e.e_dst e.e_len;
    e.e_tag <- grow e.e_tag e.e_len;
    e.e_bits <- grow e.e_bits e.e_len;
    e.e_word <- grow e.e_word e.e_len
  end;
  Array.unsafe_set e.e_dst e.e_len dst;
  Array.unsafe_set e.e_tag e.e_len tag;
  Array.unsafe_set e.e_bits e.e_len bits;
  Array.unsafe_set e.e_word e.e_len word;
  e.e_len <- e.e_len + 1

let[@inline] emit_row e ~tag ~bits ~word =
  if ill_sized ~tag ~bits ~word then bad_send "emit_row" ~bits ~word;
  if e.e_len > 0 then mixed "emit_row";
  if Array.length e.e_dst = 0 then begin
    e.e_dst <- grow e.e_dst 0;
    e.e_tag <- grow e.e_tag 0;
    e.e_bits <- grow e.e_bits 0;
    e.e_word <- grow e.e_word 0
  end;
  e.e_tag.(0) <- tag;
  e.e_bits.(0) <- bits;
  e.e_word.(0) <- word;
  e.e_len <- 1;
  e.e_row <- true

type shape = {
  n : int;
  base : int;
  slots : int;
  xadj : int array;
  adj : int array;
  weight : int -> int;
  rngs : unit -> Stdx.Prng.t array;
}

type 'out kernel = {
  step : v:int -> round:int -> inbox -> emitter -> unit;
  halted : Bytes.t;
  output : int -> 'out option;
}

type 'out t = { fname : string; kernel : shape -> 'out kernel }

(* The list-mode face of a kernel: each spawned node instantiates the
   kernel over its own row — one node slot, [deg] edge slots — so list
   mode stays O(n + m) and runs the very same step function.  Each node
   owns its inbox and emitter: a [Program.t] value may be spawned on
   several domains at once, so nothing mutable is shared between spawns.
   Payloads other than [Int]/[Bool] are never emitted by a flat program,
   and fault injection keeps a payload's kind, so dropping them loses
   nothing.  A row send expands into one pair per neighbour, in row
   order, so list mode (fault plans, [Player_sim]) sees per-edge
   messages exactly as if the kernel had emitted them one by one. *)
let to_program fp =
  {
    Program.name = fp.fname;
    spawn =
      (fun view ->
        let nbrs = view.Program.neighbors in
        let k =
          fp.kernel
            {
              n = view.Program.n;
              base = view.Program.id;
              slots = 1;
              xadj = [| 0; Array.length nbrs |];
              adj = nbrs;
              weight = (fun _ -> view.Program.weight);
              rngs = (fun () -> [| view.Program.rng |]);
            }
        in
        let inbox = make_inbox () in
        let em = make_emitter () in
        let receive (src, (m : Msg.t)) =
          match m.Msg.payload with
          | Msg.Int w -> push_inbox inbox ~src ~tag:tag_int ~word:w
          | Msg.Bool true -> push_inbox inbox ~src ~tag:tag_true ~word:0
          | Msg.Bool false -> push_inbox inbox ~src ~tag:tag_false ~word:0
          | Msg.Unit | Msg.Pair _ | Msg.Triple _ -> ()
        in
        let message i =
          let tag = em.e_tag.(i) in
          let payload =
            if tag = tag_int then Msg.Int em.e_word.(i)
            else Msg.Bool (tag = tag_true)
          in
          { Msg.bits = em.e_bits.(i); payload }
        in
        {
          Program.step =
            (fun ~round ~inbox:msgs ->
              inbox.i_len <- 0;
              List.iter receive msgs;
              clear em;
              k.step ~v:0 ~round inbox em;
              if em.e_row then
                let m = message 0 in
                Array.fold_right (fun dst acc -> (dst, m) :: acc) nbrs []
              else List.init em.e_len (fun i -> (em.e_dst.(i), message i)));
          halted = (fun () -> Bytes.get k.halted 0 <> '\000');
          output = (fun () -> k.output 0);
        });
  }

(* ------------------------------------------------------------------ *)
(* The library algorithms *)

(* Every kernel keeps its per-node state in arrays indexed by node slot
   and its per-neighbour state in arrays indexed by edge slot (CSR row
   position); [step ~v] reads slot [v]'s row [adj.(xadj.(v)) ..
   adj.(xadj.(v+1) - 1)] in place.  The kernels here that send one
   message to every neighbour do so with one [emit_row]. *)

let max_id ~rounds =
  {
    fname = "max-id-flood";
    kernel =
      (fun sh ->
        let width = Msg.id_width ~n:sh.n in
        let best = Array.init sh.slots (fun v -> sh.base + v) in
        let changed = Bytes.make sh.slots '\001' in
        let halted = Bytes.make sh.slots '\000' in
        let step ~v ~round inbox em =
          let b = ref best.(v) in
          let ch = ref (Bytes.get changed v <> '\000') in
          for k = 0 to inbox.i_len - 1 do
            if in_tag inbox k = tag_int then begin
              let w = in_word inbox k in
              if w > !b then begin
                b := w;
                ch := true
              end
            end
          done;
          best.(v) <- !b;
          if !ch then emit_row em ~tag:tag_int ~bits:width ~word:!b;
          Bytes.set changed v '\000';
          if round + 1 >= rounds then Bytes.set halted v '\001'
        in
        { step; halted; output = (fun v -> Some best.(v)) });
  }

let bfs_distances ~root ~rounds =
  {
    fname = "bfs-distances";
    kernel =
      (fun sh ->
        let n = sh.n in
        let width = Msg.id_width ~n in
        (* -1 encodes "unknown" so no option allocates on the hot path. *)
        let dist =
          Array.init sh.slots (fun v -> if sh.base + v = root then 0 else -1)
        in
        let announced = Bytes.make sh.slots '\000' in
        let halted = Bytes.make sh.slots '\000' in
        let step ~v ~round inbox em =
          let dv = ref dist.(v) in
          for k = 0 to inbox.i_len - 1 do
            if in_tag inbox k = tag_int then begin
              let d = in_word inbox k in
              if !dv < 0 || !dv > d + 1 then dv := d + 1
            end
          done;
          dist.(v) <- !dv;
          if !dv >= 0 && Bytes.get announced v = '\000' then begin
            Bytes.set announced v '\001';
            emit_row em ~tag:tag_int ~bits:width ~word:(min !dv (n - 1))
          end;
          if round + 1 >= rounds then Bytes.set halted v '\001'
        in
        {
          step;
          halted;
          output = (fun v -> if dist.(v) < 0 then None else Some dist.(v));
        });
  }

(* Edge slot of neighbour [x] in the sorted row [adj.(lo) .. adj.(hi-1)],
   or -1: deactivations and priority slots are per edge slot, found by
   binary search. *)
let find_slot adj lo hi x =
  let lo = ref lo and hi = ref hi in
  let res = ref (-1) in
  while !lo < !hi && !res < 0 do
    let mid = (!lo + !hi) / 2 in
    let a = adj.(mid) in
    if a = x then res := mid else if a < x then lo := mid + 1 else hi := mid
  done;
  !res

(* The "local maxima join" MIS skeleton, one 3-round phase per
   [round mod 3]:
     0: active nodes draw and send a priority; covered-announcements from
        the previous phase are consumed here.
     1: active nodes compare their (priority, id) with those received
        from still-active neighbors; strict local maxima join the MIS and
        announce [tag_true].
     2: active nodes hearing a join become covered, announce [tag_false]
        and halt; joiners halt.
   In every phase the globally largest (priority, id) among active nodes
   is a local maximum, so at least one node decides per phase and the
   algorithm terminates. *)
let local_maxima ~name ~width ~draw =
  {
    fname = name;
    kernel =
      (fun sh ->
        let width = width sh and draw = draw sh in
        let xadj = sh.xadj and adj = sh.adj in
        let edges = xadj.(sh.slots) in
        (* 0 = Active, 1 = In_mis, 2 = Covered. *)
        let status = Bytes.make sh.slots '\000' in
        let my_prio = Array.make sh.slots 0 in
        let halted = Bytes.make sh.slots '\000' in
        (* Per edge slot: is the neighbour still active, and the priority
           it sent, round-stamped so no per-phase clearing. *)
        let active = Bytes.make edges '\001' in
        let prio = Array.make edges 0 in
        let prio_round = Array.make edges (-1) in
        let step ~v ~round inbox em =
          let lo = xadj.(v) and hi = xadj.(v + 1) in
          match round mod 3 with
          | 0 ->
              for k = 0 to inbox.i_len - 1 do
                if in_tag inbox k = tag_false then begin
                  let j = find_slot adj lo hi (in_src inbox k) in
                  if j >= 0 then Bytes.set active j '\000'
                end
              done;
              if Bytes.get status v = '\000' then begin
                let w = width v in
                let p = draw ~v ~width:w in
                my_prio.(v) <- p;
                emit_row em ~tag:tag_int ~bits:w ~word:p
              end
          | 1 ->
              for k = 0 to inbox.i_len - 1 do
                if in_tag inbox k = tag_int then begin
                  let j = find_slot adj lo hi (in_src inbox k) in
                  if j >= 0 && Bytes.get active j = '\001' then begin
                    prio.(j) <- in_word inbox k;
                    prio_round.(j) <- round
                  end
                end
              done;
              if Bytes.get status v = '\000' then begin
                let me = my_prio.(v) and id = sh.base + v in
                let win = ref true in
                for j = lo to hi - 1 do
                  if prio_round.(j) = round then begin
                    let p = prio.(j) and src = adj.(j) in
                    (* strict (prio, id) lexicographic comparison *)
                    if not (me > p || (me = p && id > src)) then win := false
                  end
                done;
                if !win then begin
                  Bytes.set status v '\001';
                  emit_row em ~tag:tag_true ~bits:1 ~word:0
                end
              end
          | _ ->
              let neighbor_joined = ref false in
              for k = 0 to inbox.i_len - 1 do
                if in_tag inbox k = tag_true then begin
                  let j = find_slot adj lo hi (in_src inbox k) in
                  if j >= 0 then Bytes.set active j '\000';
                  neighbor_joined := true
                end
              done;
              let st = Bytes.get status v in
              if st = '\001' then Bytes.set halted v '\001'
              else if st = '\000' && !neighbor_joined then begin
                Bytes.set status v '\002';
                Bytes.set halted v '\001';
                emit_row em ~tag:tag_false ~bits:1 ~word:0
              end
        in
        let output v =
          match Bytes.get status v with
          | '\001' -> Some true
          | '\002' -> Some false
          | _ -> None
        in
        { step; halted; output });
  }

let luby_mis =
  local_maxima ~name:"luby-mis"
    ~width:(fun sh ->
      let w = 2 * Msg.id_width ~n:sh.n in
      fun _ -> w)
    ~draw:(fun sh ->
      let rngs = sh.rngs () in
      fun ~v ~width -> Stdx.Prng.int rngs.(v) (1 lsl width))

let greedy_mis =
  local_maxima ~name:"greedy-weight-mis"
    ~width:(fun sh v -> max 1 (Stdx.Mathx.ceil_log2 (sh.weight v + 1)))
    ~draw:(fun sh ~v ~width:_ -> sh.weight v)
