module Graph = Wgraph.Graph

(* Facts are flooded with per-edge pipelining: each node keeps the
   facts it knows in the order it learned them, and a per-neighbour
   cursor into that order; each round it sends each neighbour the next
   fact that neighbour has not been sent.  A fact travels as one packed
   int under [Fastpath.tag_int] — kind at bit 3·idw (0 = edge {a, b}
   with a < b, 1 = weight of node a is b), then a (idw bits), then b
   (2·idw bits) — charged 1 + 3·idw bits.  Every field is checked when
   the fact is packed, and every node's own weight fact is packed when
   the kernel is instantiated, so an over-wide weight fails there,
   before round 0.

   A node's fact store is an open-addressing set of ints (linear
   probing, -1 marks an empty cell) beside an insertion-ordered log of
   the same facts.  Packed facts are non-negative, and so is a fact
   with a fault-flipped bit.  Both arrays are sized from n + m: a
   fault-free run learns exactly n + m facts per node, so neither
   grows.  Corrupted facts can push a node past n + m; the table and
   the log then double as they fill.  The flat runtime's
   zero-allocation guarantee covers delivery, not program state.

   A step does two passes, one per kind of work.  Over the inbox, each
   fact is first looked up in its home cell: most arrivals are facts
   the node already knows, and only a miss (an empty or foreign home
   cell) calls [learn] and its probe loop.  Over the row, one walk
   sends each neighbour its next fact and notes whether any neighbour
   is still behind, so the halting test needs no second walk. *)

type facts = {
  mutable table : int array;  (** power-of-two length, -1 = empty *)
  mutable shift : int;  (** 63 − log₂ (length table) *)
  mutable log : int array;  (** the first [len] cells, in learn order *)
  mutable len : int;
}

let facts_create ~expect =
  let k = max 4 (Stdx.Mathx.ceil_log2 (2 * expect)) in
  {
    table = Array.make (1 lsl k) (-1);
    shift = 63 - k;
    log = Array.make (max 1 expect) 0;
    len = 0;
  }

(* Multiplicative hashing: the top bits of the product.  The packed
   layout puts b in the low bits, so masking the fact itself would
   bucket by b alone. *)
let slot st f = (f * 0x2545F4914F6CDD1D) lsr st.shift

(* The cell holding [f], or the empty cell where it belongs. *)
let find st f =
  let t = st.table in
  let mask = Array.length t - 1 in
  let i = ref (slot st f) in
  while t.(!i) <> f && t.(!i) <> -1 do i := (!i + 1) land mask done;
  !i

(* Double the table (one more index bit) and reinsert from the log. *)
let grow st =
  let k = 64 - st.shift in
  st.table <- Array.make (1 lsl k) (-1);
  st.shift <- 63 - k;
  for j = 0 to st.len - 1 do
    let f = st.log.(j) in
    st.table.(find st f) <- f
  done

let learn st f =
  let i = find st f in
  if st.table.(i) = -1 then begin
    st.table.(i) <- f;
    if st.len = Array.length st.log then begin
      let log = Array.make (2 * st.len) 0 in
      Array.blit st.log 0 log 0 st.len;
      st.log <- log
    end;
    st.log.(st.len) <- f;
    st.len <- st.len + 1;
    if 2 * st.len > Array.length st.table then grow st
  end

let gather_flat ~m ~solve =
  {
    Fastpath.fname = "gather-topology";
    kernel =
      (fun sh ->
        let n = sh.Fastpath.n and slots = sh.Fastpath.slots in
        let xadj = sh.Fastpath.xadj and adj = sh.Fastpath.adj in
        let idw = Msg.id_width ~n in
        let fact_bits = 1 + (3 * idw) in
        let bshift = 2 * idw in
        let bmask = (1 lsl bshift) - 1 in
        let amask = (1 lsl idw) - 1 in
        let pack ~kind ~a ~b =
          if b < 0 || b > bmask || a < 0 || a > amask then
            invalid_arg "Algo_gather.gather_flat: fact field too wide";
          (kind lsl (3 * idw)) lor (a lsl bshift) lor b
        in
        (* Per node slot: its fact store; per edge slot: how far down
           the log that neighbour has been sent. *)
        let known = Array.init slots (fun _ -> facts_create ~expect:(n + m)) in
        let cursor = Array.make xadj.(slots) 0 in
        let halted = Bytes.make slots '\000' in
        let result = Array.make slots None in
        for v = 0 to slots - 1 do
          let id = sh.Fastpath.base + v in
          learn known.(v) (pack ~kind:1 ~a:id ~b:(sh.Fastpath.weight v));
          for r = xadj.(v) to xadj.(v + 1) - 1 do
            let nb = adj.(r) in
            learn known.(v) (pack ~kind:0 ~a:(min id nb) ~b:(max id nb))
          done
        done;
        let reconstruct v =
          let g = Graph.create n in
          let st = known.(v) in
          for j = 0 to st.len - 1 do
            let f = st.log.(j) in
            let a = (f lsr bshift) land amask and b = f land bmask in
            if f lsr (3 * idw) = 0 then Graph.add_edge g a b
            else Graph.set_weight g a b
          done;
          g
        in
        let step ~v ~round:_ inbox em =
          let st = known.(v) in
          for k = 0 to Fastpath.in_len inbox - 1 do
            if Fastpath.in_tag inbox k = Fastpath.tag_int then begin
              let f = Fastpath.in_word inbox k in
              if st.table.(slot st f) <> f then learn st f
            end
          done;
          (* Highest neighbor first: the send order decides which
             sends precede an oversend, and the goldens pin it.  The
             same walk finds out whether every neighbour has now been
             sent every known fact. *)
          let len = st.len and log = st.log in
          let drained = ref true in
          for r = xadj.(v + 1) - 1 downto xadj.(v) do
            let c = cursor.(r) in
            if c < len then begin
              Fastpath.emit em ~dst:adj.(r) ~tag:Fastpath.tag_int
                ~bits:fact_bits ~word:log.(c);
              cursor.(r) <- c + 1;
              if c + 1 < len then drained := false
            end
          done;
          if len >= n + m && !drained then begin
            result.(v) <- Some (solve (reconstruct v));
            Bytes.set halted v '\001'
          end
        in
        { Fastpath.step; halted; output = (fun v -> result.(v)) });
  }

let exact_maxis_flat ~m =
  gather_flat ~m ~solve:(fun g -> (Mis.Exact.solve g).Mis.Exact.weight)

let gather ~m ~solve = Fastpath.to_program (gather_flat ~m ~solve)
let exact_maxis ~m = Fastpath.to_program (exact_maxis_flat ~m)
