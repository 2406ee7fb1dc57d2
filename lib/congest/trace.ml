module Dynvec = Stdx.Dynvec

type send = { round : int; src : int; dst : int; bits : int }

type fault_kind = Dropped | Duplicated | Corrupted | Delayed of int | Crashed

type fault = { round : int; src : int; dst : int; bits : int; kind : fault_kind }

type mode = Full | Light

(* Registered-cut accumulators: when the partition is known before the
   run (the simulation theorem's player split always is), every
   cut-crossing aggregate is maintained in O(1) per recorded event, so
   the blackboard accounting costs nothing extra at query time and works
   without the send log (Light mode). *)
type cut = {
  part : int array;
  by_side : int array;  (* attempted bits written by each player *)
  by_round : int Dynvec.t;
  mutable c_bits : int;
  mutable c_msgs : int;
  mutable c_dropped : int;
  mutable c_duplicated : int;
}

type t = {
  mode : mode;
  (* Structure-of-arrays send/fault log — four (five) plain int vectors,
     no per-message record.  Retained in [Full] mode only. *)
  s_round : int Dynvec.t;
  s_src : int Dynvec.t;
  s_dst : int Dynvec.t;
  s_bits : int Dynvec.t;
  f_round : int Dynvec.t;
  f_src : int Dynvec.t;
  f_dst : int Dynvec.t;
  f_bits : int Dynvec.t;
  f_kind : int Dynvec.t;
  mutable executed_rounds : int;
  (* Streaming accumulators — the single source of truth for every
     log-shaped query that does not take a post-hoc partition. *)
  mutable n_sends : int;
  mutable sum_bits : int;
  mutable max_send_round : int;  (* -1 when no send recorded *)
  mutable max_fault_round : int;
  r_bits : int Dynvec.t;  (* per-round attempted bits *)
  r_msgs : int Dynvec.t;
  (* Open accumulation cell for the round currently being recorded: the
     executor sends a whole round's traffic back to back, so the two
     [bump]s per send collapse to two scalar adds, flushed into the
     per-round vectors when the round changes (or a query reads them). *)
  mutable open_round : int;  (* -1 when nothing pending *)
  mutable open_bits : int;
  mutable open_msgs : int;
  mutable n_faults : int;
  mutable b_dropped : int;
  mutable b_duplicated : int;
  mutable b_corrupted : int;
  (* Largest per-(round, directed edge) total, observed by the runtime
     (which tracks the running total for bandwidth enforcement anyway). *)
  mutable max_edge_obs : int;
  cut : cut option;
  (* Streaming 63-bit digests for Light mode, where the Int64 replay
     digest cannot fold a retained log; folded through [mix63]. *)
  mutable h_sends : int;
  mutable h_faults : int;
}

let light_basis = 0x2545f4914f6cdd1d

let create ?(mode = Full) ?cut () =
  {
    mode;
    s_round = Dynvec.create ();
    s_src = Dynvec.create ();
    s_dst = Dynvec.create ();
    s_bits = Dynvec.create ();
    f_round = Dynvec.create ();
    f_src = Dynvec.create ();
    f_dst = Dynvec.create ();
    f_bits = Dynvec.create ();
    f_kind = Dynvec.create ();
    executed_rounds = 0;
    n_sends = 0;
    sum_bits = 0;
    max_send_round = -1;
    max_fault_round = -1;
    r_bits = Dynvec.create ();
    r_msgs = Dynvec.create ();
    open_round = -1;
    open_bits = 0;
    open_msgs = 0;
    n_faults = 0;
    b_dropped = 0;
    b_duplicated = 0;
    b_corrupted = 0;
    max_edge_obs = 0;
    cut =
      Option.map
        (fun part ->
          if Array.exists (fun p -> p < 0) part then
            invalid_arg "Trace.create: negative side in the cut";
          let sides = Array.fold_left (fun acc p -> max acc (p + 1)) 0 part in
          {
            part;
            by_side = Array.make (max sides 1) 0;
            by_round = Dynvec.create ();
            c_bits = 0;
            c_msgs = 0;
            c_dropped = 0;
            c_duplicated = 0;
          })
        cut;
    h_sends = light_basis;
    h_faults = light_basis;
  }

let mode t = t.mode

let registered_cut t = Option.map (fun c -> c.part) t.cut

(* Add [d] at index [i] of a zero-extended vector. *)
let bump vec i d =
  while Dynvec.length vec <= i do
    Dynvec.push vec 0
  done;
  Dynvec.set vec i (Dynvec.get vec i + d)

(* The Light digest's mix, defined on 63-bit ints as
   [((h lxor x) * 0x100000001b3) lxor (h lsr 29)] mod 2⁶³ and computed
   here in untagged Int64, whose low 63 bits carry the int: [logxor]
   and [mul] keep them exact whatever bit 63 holds, the shift needs
   bit 63 cleared first (off the critical path, which is xor, imul,
   xor), and [Int64.to_int] drops it again.  Tagged ints pay a tag
   fix-up around every [imul] of the fold's serial chain. *)
let[@inline] mix63 h x =
  let open Int64 in
  logxor
    (mul (logxor h x) 0x100000001b3L)
    (shift_right_logical (logand h 0x7FFF_FFFF_FFFF_FFFFL) 29)

(* One send's four dependent steps of the Light send digest. *)
let[@inline] send_mix63 h ~round ~src ~dst ~bits =
  mix63 (mix63 (mix63 (mix63 h round) src) dst) bits

let flush_round t =
  if t.open_round >= 0 then begin
    bump t.r_bits t.open_round t.open_bits;
    bump t.r_msgs t.open_round t.open_msgs;
    t.open_round <- -1;
    t.open_bits <- 0;
    t.open_msgs <- 0
  end

(* The streamed scalars of [count] sends totalling [bits] bits in
   [round]: the run totals and the open round's cell. *)
let[@inline] add_sends t ~round ~count ~bits =
  t.n_sends <- t.n_sends + count;
  t.sum_bits <- t.sum_bits + bits;
  if round > t.max_send_round then t.max_send_round <- round;
  if round <> t.open_round then begin
    flush_round t;
    t.open_round <- round
  end;
  t.open_bits <- t.open_bits + bits;
  t.open_msgs <- t.open_msgs + count

(* [count] cut-crossing sends totalling [bits] bits, written by player
   [side]. *)
let[@inline] add_crossings c ~round ~side ~count ~bits =
  c.c_bits <- c.c_bits + bits;
  c.c_msgs <- c.c_msgs + count;
  c.by_side.(side) <- c.by_side.(side) + bits;
  bump c.by_round round bits

let record_send t ~round ~src ~dst ~bits =
  if t.mode = Full then begin
    Dynvec.push t.s_round round;
    Dynvec.push t.s_src src;
    Dynvec.push t.s_dst dst;
    Dynvec.push t.s_bits bits
  end;
  add_sends t ~round ~count:1 ~bits;
  (match t.cut with
  | Some c when c.part.(src) <> c.part.(dst) ->
      add_crossings c ~round ~side:c.part.(src) ~count:1 ~bits
  | _ -> ());
  if t.mode = Light then
    t.h_sends <-
      Int64.(
        to_int
          (send_mix63 (of_int t.h_sends) ~round:(of_int round)
             ~src:(of_int src) ~dst:(of_int dst) ~bits:(of_int bits)))

(* A whole row: [bits] from [src] to each of [adj.(lo) .. adj.(hi-1)],
   in that order.  Full mode retains each send, so it is the
   [record_send] loop; Light mode touches the totals and the open round
   once, then one pass over the row folds the digest per recipient and
   counts the row's cut crossings — the same state [hi - lo]
   [record_send]s leave.  The digest stays in one unboxed Int64 across
   the row, and the crossing count adds a bool instead of branching. *)
let record_row t ~round ~src ~adj ~lo ~hi ~bits =
  if t.mode = Full then
    for r = lo to hi - 1 do
      record_send t ~round ~src ~dst:adj.(r) ~bits
    done
  else if hi > lo then begin
    add_sends t ~round ~count:(hi - lo) ~bits:((hi - lo) * bits);
    let round64 = Int64.of_int round
    and src64 = Int64.of_int src
    and bits64 = Int64.of_int bits in
    let h = ref (Int64.of_int t.h_sends) in
    (match t.cut with
    | None ->
        for r = lo to hi - 1 do
          h :=
            send_mix63 !h ~round:round64 ~src:src64
              ~dst:(Int64.of_int adj.(r)) ~bits:bits64
        done
    | Some c ->
        let part = c.part in
        let side = part.(src) in
        let x = ref 0 in
        for r = lo to hi - 1 do
          let dst = adj.(r) in
          x := !x + Bool.to_int (part.(dst) <> side);
          h :=
            send_mix63 !h ~round:round64 ~src:src64 ~dst:(Int64.of_int dst)
              ~bits:bits64
        done;
        let x = !x in
        if x > 0 then add_crossings c ~round ~side ~count:x ~bits:(x * bits));
    t.h_sends <- Int64.to_int !h
  end

let send_digest_state t = t.h_sends

let fault_code = function
  | Dropped -> 1
  | Duplicated -> 2
  | Corrupted -> 3
  | Delayed d -> 4 lor (d lsl 3)
  | Crashed -> 5

let fault_of_code = function
  | 1 -> Dropped
  | 2 -> Duplicated
  | 3 -> Corrupted
  | 5 -> Crashed
  | c when c land 7 = 4 -> Delayed (c lsr 3)
  | c -> invalid_arg (Printf.sprintf "Trace: bad fault code %d" c)

let record_fault t ~round ~src ~dst ~bits ~kind =
  let code = fault_code kind in
  if t.mode = Full then begin
    Dynvec.push t.f_round round;
    Dynvec.push t.f_src src;
    Dynvec.push t.f_dst dst;
    Dynvec.push t.f_bits bits;
    Dynvec.push t.f_kind code
  end;
  t.n_faults <- t.n_faults + 1;
  if round > t.max_fault_round then t.max_fault_round <- round;
  (match kind with
  | Dropped -> t.b_dropped <- t.b_dropped + bits
  | Duplicated -> t.b_duplicated <- t.b_duplicated + bits
  | Corrupted -> t.b_corrupted <- t.b_corrupted + bits
  | Delayed _ | Crashed -> ());
  (match t.cut with
  | Some c when c.part.(src) <> c.part.(dst) -> (
      match kind with
      | Dropped -> c.c_dropped <- c.c_dropped + bits
      | Duplicated -> c.c_duplicated <- c.c_duplicated + bits
      | Corrupted | Delayed _ | Crashed -> ())
  | _ -> ());
  if t.mode = Light then
    t.h_faults <-
      Int64.(
        to_int
          (mix63
             (send_mix63 (of_int t.h_faults) ~round:(of_int round)
                ~src:(of_int src) ~dst:(of_int dst) ~bits:(of_int bits))
             (of_int code)))

let observe_edge_total t total =
  if total > t.max_edge_obs then t.max_edge_obs <- total

let rounds t =
  max t.executed_rounds (max (t.max_send_round + 1) (t.max_fault_round + 1))

let set_rounds t r = t.executed_rounds <- r

let total_messages t = t.n_sends

let total_bits t = t.sum_bits

let bits_in_round t r =
  flush_round t;
  if r < 0 || r >= Dynvec.length t.r_bits then 0 else Dynvec.get t.r_bits r

let messages_in_round t r =
  flush_round t;
  if r < 0 || r >= Dynvec.length t.r_msgs then 0 else Dynvec.get t.r_msgs r

let need_log t what =
  if t.mode = Light then
    invalid_arg
      (Printf.sprintf
         "Trace.%s: needs the retained send log (Full mode); this trace \
          streams aggregates only"
         what)

let iter_sends t f =
  need_log t "iter_sends";
  for i = 0 to Dynvec.length t.s_round - 1 do
    f ~round:(Dynvec.get t.s_round i) ~src:(Dynvec.get t.s_src i)
      ~dst:(Dynvec.get t.s_dst i) ~bits:(Dynvec.get t.s_bits i)
  done

let send_events t =
  need_log t "send_events";
  Array.init (Dynvec.length t.s_round) (fun i ->
      {
        round = Dynvec.get t.s_round i;
        src = Dynvec.get t.s_src i;
        dst = Dynvec.get t.s_dst i;
        bits = Dynvec.get t.s_bits i;
      })

let bits_on_edge t ~src ~dst =
  need_log t "bits_on_edge";
  let total = ref 0 in
  iter_sends t (fun ~round:_ ~src:s ~dst:d ~bits ->
      if s = src && d = dst then total := !total + bits);
  !total

(* ------------------------------------------------------------------ *)
(* Cut accounting.  Queries against the registered partition are O(1)
   reads of the streamed accumulators; a different partition falls back
   to a fold over the retained log (Full mode only). *)

let same_cut t part =
  match t.cut with
  | Some c -> c.part == part || c.part = part
  | None -> false

let fold_sends t init f =
  let acc = ref init in
  for i = 0 to Dynvec.length t.s_round - 1 do
    acc :=
      f !acc (Dynvec.get t.s_round i) (Dynvec.get t.s_src i)
        (Dynvec.get t.s_dst i) (Dynvec.get t.s_bits i)
  done;
  !acc

let cut_bits t part =
  if same_cut t part then (Option.get t.cut).c_bits
  else begin
    need_log t "cut_bits";
    fold_sends t 0 (fun acc _ src dst bits ->
        if part.(src) <> part.(dst) then acc + bits else acc)
  end

let cut_messages t part =
  if same_cut t part then (Option.get t.cut).c_msgs
  else begin
    need_log t "cut_messages";
    fold_sends t 0 (fun acc _ src dst _ ->
        if part.(src) <> part.(dst) then acc + 1 else acc)
  end

let cut_bits_by_side t part =
  if same_cut t part then Array.copy (Option.get t.cut).by_side
  else begin
    need_log t "cut_bits_by_side";
    let sides = Array.fold_left (fun acc p -> max acc (p + 1)) 0 part in
    let per = Array.make sides 0 in
    fold_sends t () (fun () _ src dst bits ->
        if part.(src) <> part.(dst) then
          per.(part.(src)) <- per.(part.(src)) + bits);
    per
  end

let cut_bits_by_round t part =
  let r = rounds t in
  if same_cut t part then begin
    let c = Option.get t.cut in
    Array.init r (fun i ->
        if i < Dynvec.length c.by_round then Dynvec.get c.by_round i else 0)
  end
  else begin
    need_log t "cut_bits_by_round";
    let per = Array.make r 0 in
    fold_sends t () (fun () round src dst bits ->
        if part.(src) <> part.(dst) then per.(round) <- per.(round) + bits);
    per
  end

let max_bits_per_edge_round t =
  if t.mode = Light then t.max_edge_obs
  else begin
    let tbl = Hashtbl.create 64 in
    fold_sends t () (fun () round src dst bits ->
        let key = (round, src, dst) in
        Hashtbl.replace tbl key
          (bits + Option.value ~default:0 (Hashtbl.find_opt tbl key)));
    Hashtbl.fold (fun _ v acc -> max acc v) tbl 0
  end

(* ------------------------------------------------------------------ *)
(* Injected-fault accounting *)

let total_faults t = t.n_faults

let fault_at t i =
  {
    round = Dynvec.get t.f_round i;
    src = Dynvec.get t.f_src i;
    dst = Dynvec.get t.f_dst i;
    bits = Dynvec.get t.f_bits i;
    kind = fault_of_code (Dynvec.get t.f_kind i);
  }

let fault_events t =
  need_log t "fault_events";
  Array.init (Dynvec.length t.f_round) (fault_at t)

let dropped_bits t = t.b_dropped

let duplicated_bits t = t.b_duplicated

let corrupted_bits t = t.b_corrupted

let fold_faults t init f =
  let acc = ref init in
  for i = 0 to Dynvec.length t.f_round - 1 do
    acc :=
      f !acc (Dynvec.get t.f_src i) (Dynvec.get t.f_dst i)
        (Dynvec.get t.f_bits i)
        (Dynvec.get t.f_kind i)
  done;
  !acc

let cut_bits_dropped t part =
  if same_cut t part then (Option.get t.cut).c_dropped
  else begin
    need_log t "cut_bits_dropped";
    fold_faults t 0 (fun acc src dst bits code ->
        if code = 1 && part.(src) <> part.(dst) then acc + bits else acc)
  end

let cut_bits_duplicated t part =
  if same_cut t part then (Option.get t.cut).c_duplicated
  else begin
    need_log t "cut_bits_duplicated";
    fold_faults t 0 (fun acc src dst bits code ->
        if code = 2 && part.(src) <> part.(dst) then acc + bits else acc)
  end

let cut_bits_delivered t part =
  cut_bits t part - cut_bits_dropped t part + cut_bits_duplicated t part

(* ------------------------------------------------------------------ *)
(* Replay digest *)

let mix h x =
  let open Int64 in
  let h = mul (logxor h (of_int x)) 0x100000001b3L in
  logxor h (shift_right_logical h 29)

let digest t =
  match t.mode with
  | Full ->
      (* The historical definition, folded over the retained log — the
         FAULTS bench prints these values, so they must not drift. *)
      let h = ref 0xcbf29ce484222325L in
      let add x = h := mix !h x in
      add t.executed_rounds;
      for i = 0 to Dynvec.length t.s_round - 1 do
        add (Dynvec.get t.s_round i);
        add (Dynvec.get t.s_src i);
        add (Dynvec.get t.s_dst i);
        add (Dynvec.get t.s_bits i)
      done;
      for i = 0 to Dynvec.length t.f_round - 1 do
        add (Dynvec.get t.f_round i);
        add (Dynvec.get t.f_src i);
        add (Dynvec.get t.f_dst i);
        add (Dynvec.get t.f_bits i);
        add (Dynvec.get t.f_kind i)
      done;
      !h
  | Light ->
      (* Streamed variant: same replay guarantee (a pure function of the
         recorded event sequence), different numeric values than Full. *)
      let open Int64 in
      let h = mix63 (of_int light_basis) (of_int t.executed_rounds) in
      of_int (to_int (mix63 (mix63 h (of_int t.h_sends)) (of_int t.h_faults)))

let pp ppf t =
  Format.fprintf ppf "trace(rounds=%d, msgs=%d, bits=%d, faults=%d)" (rounds t)
    (total_messages t) (total_bits t) (total_faults t)
