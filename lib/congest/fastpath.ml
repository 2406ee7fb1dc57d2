(* Flat CONGEST programs: the one implementation of each library
   algorithm, in kernel form, and the adapter that runs any list-mode
   program on the same executor.

   [Program.step] speaks in [(int * Msg.t) list] — every round allocates
   a cons cell, a tuple and a [Msg.t] record per message, which is what
   dominates runtime at n ≥ 10⁵.  A flat program exchanges messages as
   (dst, tag, bits, word) int quads staged in preallocated buffers the
   executor ([Runtime.run_flat]) reuses across rounds, so a settled run
   allocates nothing per round.  It keeps its state in arrays allocated
   once per run, indexed by node slot and by CSR edge slot, and exposes
   one step function called per node: no per-node closures, no copied
   neighbour rows.  A node telling every neighbour the same thing stages
   one row ([emit_row]) rather than [deg] point sends, and the executor
   expands it only where messages must exist one by one.  The kernels
   below and in the [Algo_*] modules are the sources: [to_program]
   derives every library algorithm's list-mode form by instantiating a
   kernel over one node's row, and [of_program] turns any list-mode
   program back into a kernel (only [Faults.harden] and ad hoc tests
   have no native one), so [Runtime.run_flat] is the only round loop. *)

(* Tag conventions (mirroring the [Msg.payload] cases the library
   algorithms use). *)
let tag_int = 0
let tag_true = 1
let tag_false = 2

(* [word] names a [Msg.t] in the run's store; only [of_program] sends it. *)
let tag_msg = 3

(* Inbox entries are interleaved (src, tag, word) triples in one backing
   array: one packed access touches one cache line where three parallel
   arrays would touch three.  [i_off] lets an inbox be a window into a
   shared buffer — [Runtime.run_flat] steps every node through a single
   reused view ([aim]), at its window of a round's delivery arena or at
   the shard's scratch copy of its pulled row messages, so there are no
   per-node inbox structures at all.  A standalone inbox (as [make_inbox]
   returns, and as [to_program] fills via [push_inbox]) keeps
   [i_off = 0]. *)
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

let[@inline] aim b buf ~off ~len =
  b.i_buf <- buf;
  b.i_off <- off;
  b.i_len <- len

let[@inline] in_len b = b.i_len

(* In range whenever [k < i_len]: the producer ([push_inbox], or the
   executor's scatter pass or pull copy) sized the buffer past the
   window's end. *)
let[@inline] in_src b k = Array.unsafe_get b.i_buf (3 * (b.i_off + k))
let[@inline] in_tag b k = Array.unsafe_get b.i_buf ((3 * (b.i_off + k)) + 1)
let[@inline] in_word b k = Array.unsafe_get b.i_buf ((3 * (b.i_off + k)) + 2)
let[@inline] in_int b k = if in_tag b k = tag_int then in_word b k else -1

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

(* The message store behind [tag_msg]: a [Msg.t] travels as its index
   here.  Two generations alternate by round, so a word names its
   generation in its low bit and stays readable for the round after it
   was staged (when the receiver reads it) while the next round's sends
   fill the other generation.  [store_advance] rewinds the generation
   about to be written: its messages were staged two rounds ago and
   delivered one round ago, so nothing names them any more. *)
type store = {
  gens : Msg.t array array;
  lens : int array;
  mutable cur : int;
  writable : bool;
}

let make_store ~writable =
  { gens = [| [||]; [||] |]; lens = [| 0; 0 |]; cur = 0; writable }

let store_advance s =
  s.cur <- 1 - s.cur;
  s.lens.(s.cur) <- 0

let store_push s m =
  if not s.writable then
    invalid_arg
      "Fastpath: a Msg.t send needs a store on the calling domain (run list \
       programs without a pool)";
  let g = s.cur in
  let len = s.lens.(g) in
  if len = Array.length s.gens.(g) then begin
    let a = Array.make (max 16 (2 * len)) Msg.unit_msg in
    Array.blit s.gens.(g) 0 a 0 len;
    s.gens.(g) <- a
  end;
  s.gens.(g).(len) <- m;
  s.lens.(g) <- len + 1;
  (len lsl 1) lor g

let store_get s w = s.gens.(w land 1).(w lsr 1)

(* The one mapping between staged entries and [Msg.t] payloads.  A tag
   outside the four conventions carries no payload the executor knows:
   it reads as a contentless [Unit], which corruption leaves alone. *)
let message s ~tag ~bits ~word =
  if tag = tag_msg then store_get s word
  else
    let payload =
      if tag = tag_int then Msg.Int word
      else if tag = tag_true then Msg.Bool true
      else if tag = tag_false then Msg.Bool false
      else Msg.Unit
    in
    { Msg.bits; payload }

let restage s ~tag ~word (m : Msg.t) =
  if tag = tag_msg then (tag, store_push s m)
  else
    match m.Msg.payload with
    | Msg.Int w -> (tag_int, w)
    | Msg.Bool b -> ((if b then tag_true else tag_false), 0)
    | Msg.Unit | Msg.Pair _ | Msg.Triple _ -> (tag, word)

type shape = {
  n : int;
  base : int;
  slots : int;
  xadj : int array;
  adj : int array;
  weight : int -> int;
  rngs : unit -> Stdx.Prng.t array;
  msgs : store;
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
   order, so [Player_sim] sees per-edge messages exactly as if the
   kernel had emitted them one by one.  The kernel never sees [tag_msg],
   so its shape gets a store that refuses writes. *)
let no_store = make_store ~writable:false

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
              msgs = no_store;
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
        let sent i =
          message no_store ~tag:em.e_tag.(i) ~bits:em.e_bits.(i)
            ~word:em.e_word.(i)
        in
        {
          Program.step =
            (fun ~round ~inbox:msgs ->
              inbox.i_len <- 0;
              List.iter receive msgs;
              clear em;
              k.step ~v:0 ~round inbox em;
              if em.e_row then
                let m = sent 0 in
                Array.fold_right (fun dst acc -> (dst, m) :: acc) nbrs []
              else List.init em.e_len (fun i -> (em.e_dst.(i), sent i)));
          halted = (fun () -> Bytes.get k.halted 0 <> '\000');
          output = (fun () -> k.output 0);
        });
  }

(* The flat face of a list-mode program: one [Program.instance] per
   node slot, spawned in ascending slot order over the slot's own row
   and stream.  Every [Msg.t] travels as one point send of tag [tag_msg]
   whose word names it in the run's store; a message equal to the
   node's first of the round shares the first's word, so Broadcast's
   uniformity check compares words alone.  The inbox list is rebuilt in
   window order (ascending sender), and the halted byte mirrors
   [halted ()] after every step. *)
let of_program (p : 'out Program.t) =
  {
    fname = p.Program.name;
    kernel =
      (fun sh ->
        let rngs = sh.rngs () and store = sh.msgs in
        let insts =
          Array.init sh.slots (fun v ->
              let lo = sh.xadj.(v) in
              p.Program.spawn
                {
                  Program.id = sh.base + v;
                  n = sh.n;
                  weight = sh.weight v;
                  neighbors = Array.sub sh.adj lo (sh.xadj.(v + 1) - lo);
                  rng = rngs.(v);
                })
        in
        let halted =
          Bytes.init sh.slots (fun v ->
              if insts.(v).Program.halted () then '\001' else '\000')
        in
        let step ~v ~round inbox em =
          let msgs = ref [] in
          for k = inbox.i_len - 1 downto 0 do
            if in_tag inbox k = tag_msg then
              msgs :=
                (in_src inbox k, store_get store (in_word inbox k)) :: !msgs
          done;
          let inst = insts.(v) in
          (match inst.Program.step ~round ~inbox:!msgs with
          | [] -> ()
          | (_, first) :: _ as out ->
              let w0 = store_push store first in
              List.iter
                (fun (dst, (m : Msg.t)) ->
                  let word =
                    if m == first || m = first then w0 else store_push store m
                  in
                  emit em ~dst ~tag:tag_msg ~bits:m.Msg.bits ~word)
                out);
          if inst.Program.halted () then Bytes.set halted v '\001'
        in
        { step; halted; output = (fun v -> insts.(v).Program.output ()) });
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
          for k = 0 to in_len inbox - 1 do
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
          for k = 0 to in_len inbox - 1 do
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
   algorithm terminates.  [width] and [draw] are applied to the shape
   once, at instantiation; then, once per phase on each still-active
   slot [v], [width v] gives the priority width and [draw ~v ~width] the
   priority, which must be below [2^width]. *)
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
              for k = 0 to in_len inbox - 1 do
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
              for k = 0 to in_len inbox - 1 do
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
              for k = 0 to in_len inbox - 1 do
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
