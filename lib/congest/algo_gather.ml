module Graph = Wgraph.Graph

(* Facts are flooded with per-edge pipelining: each node keeps an
   append-only log of the facts it knows and a per-neighbor cursor; each
   round it sends each neighbor the next fact that neighbor hasn't been
   sent.  A fact travels as one packed int under [Fastpath.tag_int] —
   kind at bit 3·idw (0 = edge {a, b} with a < b, 1 = weight of node a
   is b), then a (idw bits), then b (2·idw bits) — charged 1 + 3·idw
   bits.  Every field is checked when the fact is packed, and every
   node's own weight fact is packed when the kernel is instantiated, so
   an over-wide weight fails there, before round 0.  The fact logs allocate — the flat runtime's zero-allocation
   guarantee covers delivery, not program state. *)

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
        (* Per node slot: the facts it knows, as a set and as an
           append-only log; per edge slot: how far down the log that
           neighbour has been sent. *)
        let known : (int, unit) Hashtbl.t array =
          Array.init slots (fun _ -> Hashtbl.create 64)
        in
        let log : int Stdx.Dynvec.t array =
          Array.init slots (fun _ -> Stdx.Dynvec.create ())
        in
        let cursor = Array.make xadj.(slots) 0 in
        let halted = Bytes.make slots '\000' in
        let result = Array.make slots None in
        let learn v f =
          if not (Hashtbl.mem known.(v) f) then begin
            Hashtbl.replace known.(v) f ();
            Stdx.Dynvec.push log.(v) f
          end
        in
        for v = 0 to slots - 1 do
          let id = sh.Fastpath.base + v in
          learn v (pack ~kind:1 ~a:id ~b:(sh.Fastpath.weight v));
          for r = xadj.(v) to xadj.(v + 1) - 1 do
            let nb = adj.(r) in
            learn v (pack ~kind:0 ~a:(min id nb) ~b:(max id nb))
          done
        done;
        let drained v =
          let len = Stdx.Dynvec.length log.(v) in
          let all = ref true in
          for r = xadj.(v) to xadj.(v + 1) - 1 do
            if cursor.(r) < len then all := false
          done;
          !all
        in
        let reconstruct v =
          let g = Graph.create n in
          Hashtbl.iter
            (fun f () ->
              let a = (f lsr bshift) land amask and b = f land bmask in
              if f lsr (3 * idw) = 0 then Graph.add_edge g a b
              else Graph.set_weight g a b)
            known.(v);
          g
        in
        let step ~v ~round:_ inbox em =
          for k = 0 to Fastpath.in_len inbox - 1 do
            if Fastpath.in_tag inbox k = Fastpath.tag_int then
              learn v (Fastpath.in_word inbox k)
          done;
          let lg = log.(v) in
          (* Highest neighbor first: the send order decides which
             sends precede an oversend, and the goldens pin it. *)
          for r = xadj.(v + 1) - 1 downto xadj.(v) do
            if cursor.(r) < Stdx.Dynvec.length lg then begin
              Fastpath.emit em ~dst:adj.(r) ~tag:Fastpath.tag_int
                ~bits:fact_bits
                ~word:(Stdx.Dynvec.get lg cursor.(r));
              cursor.(r) <- cursor.(r) + 1
            end
          done;
          if Hashtbl.length known.(v) >= n + m && drained v then begin
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
