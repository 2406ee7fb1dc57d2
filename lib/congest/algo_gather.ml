module Graph = Wgraph.Graph

(* Facts are flooded with per-edge pipelining: each node keeps an
   append-only log of the facts it knows and a per-neighbor cursor; each
   round it sends each neighbor the next fact that neighbor hasn't been
   sent.  A fact is a triple (kind, a, b): kind 0 = edge {a, b} (a < b),
   kind 1 = weight of node a is b. *)

type fact = Edge of int * int | Weight of int * int

let gather ~m ~solve =
  {
    Program.name = "gather-topology";
    spawn =
      (fun view ->
        let n = view.Program.n in
        let idw = Msg.id_width ~n in
        let weight_width = 2 * idw in
        let widths = (1, idw, weight_width) in
        let known : (fact, unit) Hashtbl.t = Hashtbl.create 64 in
        let log : fact Stdx.Dynvec.t = Stdx.Dynvec.create () in
        let learn f =
          if not (Hashtbl.mem known f) then begin
            Hashtbl.replace known f ();
            Stdx.Dynvec.push log f
          end
        in
        learn (Weight (view.Program.id, view.Program.weight));
        Array.iter
          (fun nb ->
            learn
              (Edge (min view.Program.id nb, max view.Program.id nb)))
          view.Program.neighbors;
        let deg = Array.length view.Program.neighbors in
        let cursor = Array.make deg 0 in
        let complete () = Hashtbl.length known >= n + m in
        let drained () =
          let all = ref true in
          Array.iter (fun c -> if c < Stdx.Dynvec.length log then all := false) cursor;
          !all
        in
        let halted = ref false in
        let result = ref None in
        let reconstruct () =
          let g = Graph.create n in
          Hashtbl.iter
            (fun f () ->
              match f with
              | Edge (u, v) -> Graph.add_edge g u v
              | Weight (v, w) -> Graph.set_weight g v w)
            known;
          g
        in
        let msg_of_fact = function
          | Edge (u, v) -> Msg.triple_msg ~widths (0, u, v)
          | Weight (v, w) -> Msg.triple_msg ~widths (1, v, w)
        in
        let fact_of_msg (m : Msg.t) =
          match m.Msg.payload with
          | Msg.Triple (0, u, v) -> Some (Edge (u, v))
          | Msg.Triple (1, v, w) -> Some (Weight (v, w))
          | _ -> None
        in
        {
          Program.step =
            (fun ~round:_ ~inbox ->
              List.iter
                (fun (_, m) ->
                  match fact_of_msg m with Some f -> learn f | None -> ())
                inbox;
              let outbox = ref [] in
              Array.iteri
                (fun i nb ->
                  if cursor.(i) < Stdx.Dynvec.length log then begin
                    outbox := (nb, msg_of_fact (Stdx.Dynvec.get log cursor.(i))) :: !outbox;
                    cursor.(i) <- cursor.(i) + 1
                  end)
                view.Program.neighbors;
              if complete () && drained () then begin
                result := Some (solve (reconstruct ()));
                halted := true
              end;
              !outbox);
          halted = (fun () -> !halted);
          output = (fun () -> !result);
        });
  }

let exact_maxis ~m = gather ~m ~solve:(fun g -> (Mis.Exact.solve g).Mis.Exact.weight)

(* Flat port for [Runtime.run_flat].  Facts travel as one packed int —
   kind at bit 3·idw, then a (idw bits), then b (2·idw bits) — under
   [Fastpath.tag_int], with the same 1 + 3·idw bit charge as the
   list-mode [Msg.triple_msg].  Per-round message counts, round counts
   and outputs are order-independent (a node's log grows by the set of
   new facts, and cursors advance one fact per neighbor per round), so
   the simulation report built on this port matches the list-mode one
   exactly.  The internal fact log still allocates — the zero-alloc
   guarantee of the flat runtime covers delivery, not program state. *)

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
              for i = 0 to deg - 1 do
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
