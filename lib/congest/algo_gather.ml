module Graph = Wgraph.Graph

(* Facts are flooded with per-edge pipelining: each node keeps an
   append-only log of the facts it knows and a per-neighbor cursor; each
   round it sends each neighbor the next fact that neighbor hasn't been
   sent.  A fact travels as one packed int under [Fastpath.tag_int] —
   kind at bit 3·idw (0 = edge {a, b} with a < b, 1 = weight of node a
   is b), then a (idw bits), then b (2·idw bits) — charged 1 + 3·idw
   bits.  Every field is checked when the fact is packed, and a node
   packs its own weight fact at spawn, so an over-wide weight fails
   there.  The fact log allocates — the flat runtime's zero-allocation
   guarantee covers delivery, not program state. *)

let gather_flat ~m ~solve =
  {
    Fastpath.fname = "gather-topology";
    fspawn =
      (fun view ->
        let n = view.Program.n in
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
        let known : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        let log : int Stdx.Dynvec.t = Stdx.Dynvec.create () in
        let learn f =
          if not (Hashtbl.mem known f) then begin
            Hashtbl.replace known f ();
            Stdx.Dynvec.push log f
          end
        in
        learn (pack ~kind:1 ~a:view.Program.id ~b:view.Program.weight);
        Array.iter
          (fun nb ->
            learn
              (pack ~kind:0
                 ~a:(min view.Program.id nb)
                 ~b:(max view.Program.id nb)))
          view.Program.neighbors;
        let nbrs = view.Program.neighbors in
        let deg = Array.length nbrs in
        let cursor = Array.make (max deg 1) 0 in
        let complete () = Hashtbl.length known >= n + m in
        let drained () =
          let all = ref true in
          for i = 0 to deg - 1 do
            if cursor.(i) < Stdx.Dynvec.length log then all := false
          done;
          !all
        in
        let halted = ref false in
        let result = ref None in
        let reconstruct () =
          let g = Graph.create n in
          Hashtbl.iter
            (fun f () ->
              let a = (f lsr bshift) land amask and b = f land bmask in
              if f lsr (3 * idw) = 0 then Graph.add_edge g a b
              else Graph.set_weight g a b)
            known;
          g
        in
        {
          Fastpath.fstep =
            (fun ~round:_ ~inbox em ->
              for k = 0 to inbox.Fastpath.i_len - 1 do
                if Fastpath.in_tag inbox k = Fastpath.tag_int then
                  learn (Fastpath.in_word inbox k)
              done;
              (* Highest neighbor first: the send order decides which
                 sends precede an oversend, and the goldens pin it. *)
              for i = deg - 1 downto 0 do
                if cursor.(i) < Stdx.Dynvec.length log then begin
                  Fastpath.emit em ~dst:nbrs.(i) ~tag:Fastpath.tag_int
                    ~bits:fact_bits
                    ~word:(Stdx.Dynvec.get log cursor.(i));
                  cursor.(i) <- cursor.(i) + 1
                end
              done;
              if complete () && drained () then begin
                result := Some (solve (reconstruct ()));
                halted := true
              end);
          fhalted = (fun () -> !halted);
          foutput = (fun () -> !result);
        });
  }

let exact_maxis_flat ~m =
  gather_flat ~m ~solve:(fun g -> (Mis.Exact.solve g).Mis.Exact.weight)

let gather ~m ~solve = Fastpath.to_program (gather_flat ~m ~solve)
let exact_maxis ~m = Fastpath.to_program (exact_maxis_flat ~m)
