(* Seeded, deterministic fault injection for the CONGEST runtime.

   A plan describes per-link message faults (drop, duplication, payload
   corruption, bounded delay) and per-node crashes.  All randomness comes
   from one splitmix64 stream seeded by [plan.seed] and consumed in the
   runtime's deterministic iteration order, so a faulty execution is a pure
   function of [(config, plan)] — the replay guarantee [Trace.digest]
   equality is tested against. *)

type link_fault = {
  drop : float;
  duplicate : float;
  corrupt : float;
  max_delay : int;
}

let no_fault = { drop = 0.0; duplicate = 0.0; corrupt = 0.0; max_delay = 0 }

let link ?(drop = 0.0) ?(duplicate = 0.0) ?(corrupt = 0.0) ?(max_delay = 0) () =
  let check = Stdx.Inject.check_prob ~what:"Faults.link" in
  check "drop" drop;
  check "duplicate" duplicate;
  check "corrupt" corrupt;
  if max_delay < 0 then invalid_arg "Faults.link: negative max_delay";
  { drop; duplicate; corrupt; max_delay }

type plan = {
  seed : int;
  default : link_fault;
  links : ((int * int) * link_fault) list;
  crashes : (int * int) list;
}

let plan ?(default = no_fault) ?(links = []) ?(crashes = []) seed =
  List.iter
    (fun (v, r) ->
      if v < 0 then invalid_arg "Faults.plan: negative crash node";
      if r < 0 then invalid_arg "Faults.plan: negative crash round")
    crashes;
  { seed; default; links; crashes }

let crash_round plan ~node =
  List.fold_left
    (fun acc (v, r) ->
      if v <> node then acc
      else match acc with None -> Some r | Some r' -> Some (min r r'))
    None plan.crashes

let pp_link ppf f =
  Format.fprintf ppf "drop=%g dup=%g corrupt=%g delay<=%d" f.drop f.duplicate
    f.corrupt f.max_delay

let pp_plan ppf p =
  Format.fprintf ppf "plan(seed=%d, %a" p.seed pp_link p.default;
  if p.links <> [] then Format.fprintf ppf ", %d link overrides" (List.length p.links);
  if p.crashes <> [] then
    Format.fprintf ppf ", crashes:%a"
      (Format.pp_print_list (fun ppf (v, r) -> Format.fprintf ppf " %d@r%d" v r))
      p.crashes;
  Format.fprintf ppf ")"

(* ------------------------------------------------------------------ *)
(* Injection *)

type injector = {
  rng : Stdx.Prng.t;
  overrides : (int * int, link_fault) Hashtbl.t;
  default : link_fault;
}

let injector plan =
  let overrides = Hashtbl.create 16 in
  List.iter (fun (edge, f) -> Hashtbl.replace overrides edge f) plan.links;
  { rng = Stdx.Prng.create plan.seed; overrides; default = plan.default }

let link_fault inj ~src ~dst =
  Option.value ~default:inj.default (Hashtbl.find_opt inj.overrides (src, dst))

(* Flip one bit of one payload component.  The message records only its
   total declared size, not per-component widths, so the flip position is
   drawn from the component's own bit-length: v < 2^w implies the result
   stays < 2^w, keeping the corrupted value representable in whatever
   width the component was declared with (a receiver re-encoding it must
   not explode).  The declared size is unchanged; only the content is
   damaged (which a checksum, e.g. [harden]'s, must catch). *)
let flip rng v =
  let width = ref 0 in
  while v lsr !width > 0 do incr width done;
  if !width = 0 then 1 (* v = 0: set the low bit *)
  else v lxor (1 lsl Stdx.Prng.int rng !width)

let corrupt_msg rng (m : Msg.t) =
  let payload =
    match m.Msg.payload with
    | Msg.Unit -> Msg.Unit (* a pure ping carries no content to damage *)
    | Msg.Bool x -> Msg.Bool (not x)
    | Msg.Int v -> Msg.Int (flip rng v)
    | Msg.Pair (x, y) ->
        if Stdx.Prng.bool rng then Msg.Pair (flip rng x, y)
        else Msg.Pair (x, flip rng y)
    | Msg.Triple (x, y, z) -> (
        match Stdx.Prng.int rng 3 with
        | 0 -> Msg.Triple (flip rng x, y, z)
        | 1 -> Msg.Triple (x, flip rng y, z)
        | _ -> Msg.Triple (x, y, flip rng z))
  in
  { m with Msg.payload }

let apply inj ~src ~dst (m : Msg.t) =
  let f = link_fault inj ~src ~dst in
  let events = ref [] in
  let ev k = events := k :: !events in
  let hit p = p > 0.0 && Stdx.Prng.float inj.rng 1.0 < p in
  if hit f.drop then begin
    ev Trace.Dropped;
    ([], List.rev !events)
  end
  else begin
    let m =
      if hit f.corrupt then begin
        ev Trace.Corrupted;
        corrupt_msg inj.rng m
      end
      else m
    in
    let copies =
      if hit f.duplicate then begin
        ev Trace.Duplicated;
        [ m; m ]
      end
      else [ m ]
    in
    let deliveries =
      List.map
        (fun c ->
          let d =
            if f.max_delay > 0 then Stdx.Prng.int inj.rng (f.max_delay + 1) else 0
          in
          if d > 0 then ev (Trace.Delayed d);
          (d, c))
        copies
    in
    (deliveries, List.rev !events)
  end

(* ------------------------------------------------------------------ *)
(* Reliable delivery: the harden combinator.

   Wraps a node program with per-link sequence-numbered stop-and-wait
   ack/retransmit, checksummed packets, and an alpha-synchronizer-style
   end-of-round barrier, so the inner program observes exactly the
   fault-free synchronous semantics: inner round r's outbox arrives,
   complete and uncorrupted, as inner round r+1's inbox.

   Packet = Triple (header, data, checksum), 131 declared bits:
     header (52 bits) = kind(2) | seq(20) | cumulative ack(20) | len(10)
     data   (63 bits) = DATA: tagged inner payload, each component packed
                        in [len] bits; EOR: the inner round index
     checksum (16 bits) over header and data.

   Kinds: DATA carries one inner message; EOR marks the end of an inner
   round's batch (the barrier); HALT announces the inner program halted
   (the link is finished in both directions); ACK carries only the
   cumulative ack.  Per link, at most one packet is sent per physical
   round, so the per-edge cost is bounded — but every inner bit now rides
   in a 131-bit frame and every loss costs a round trip: reliability is
   bought with communication, the currency the paper's lower bounds
   price. *)

let kind_data = 0
let kind_eor = 1
let kind_halt = 2
let kind_ack = 3
let seq_bits = 20
let seq_mask = (1 lsl seq_bits) - 1
let len_mask = (1 lsl 10) - 1
let header_width = 2 + seq_bits + seq_bits + 10
let max_inner_bits = 20

let checksum h d =
  let x = (h * 0x9E3779B1) lxor ((d + 1) * 0x85EBCA77) in
  let x = x lxor (x lsr 13) lxor (x lsr 29) in
  x land 0xFFFF

let encode_payload (m : Msg.t) =
  let b = m.Msg.bits in
  if b > max_inner_bits then
    invalid_arg
      (Printf.sprintf
         "Faults.harden: inner message of %d bits exceeds the %d-bit frame"
         b max_inner_bits);
  match m.Msg.payload with
  | Msg.Unit -> 0
  | Msg.Bool x -> 1 lor ((if x then 1 else 0) lsl 3)
  | Msg.Int v -> 2 lor (v lsl 3)
  | Msg.Pair (x, y) -> 3 lor (x lsl 3) lor (y lsl (3 + b))
  | Msg.Triple (x, y, z) ->
      4 lor (x lsl 3) lor (y lsl (3 + b)) lor (z lsl (3 + (2 * b)))

let decode_payload ~b data =
  let mask = (1 lsl b) - 1 in
  let comp i = (data lsr (3 + (i * b))) land mask in
  match data land 7 with
  | 0 -> Msg.Unit
  | 1 -> Msg.Bool ((data lsr 3) land 1 = 1)
  | 2 -> Msg.Int (comp 0)
  | 3 -> Msg.Pair (comp 0, comp 1)
  | _ -> Msg.Triple (comp 0, comp 1, comp 2)

let packet ~kind ~seq ~ack ~b ~data =
  let header = kind lor (seq lsl 2) lor (ack lsl 22) lor (b lsl 42) in
  Msg.triple_msg ~widths:(header_width, 63, 16) (header, data, checksum header data)

type out_entry = { seq : int; kind : int; b : int; data : int }

type link = {
  nb : int;
  outq : out_entry Queue.t;  (* unacked + unsent, head = next to (re)send *)
  mutable next_seq_out : int;
  mutable next_seq_in : int;
  mutable acc : Msg.t list;  (* current inner-round batch, reversed *)
  ready : Msg.t list Queue.t;  (* completed batches, oldest first *)
  mutable nb_halted : bool;
  mutable need_ack : bool;
}

let harden ?(linger = 8) (inner : 'out Program.t) =
  {
    Program.name = inner.Program.name ^ "+hardened";
    spawn =
      (fun view ->
        let inner_inst = inner.Program.spawn view in
        let links =
          Array.map
            (fun nb ->
              {
                nb;
                outq = Queue.create ();
                next_seq_out = 0;
                next_seq_in = 0;
                acc = [];
                ready = Queue.create ();
                nb_halted = false;
                need_ack = false;
              })
            view.Program.neighbors
        in
        let link_of = Hashtbl.create (Array.length links) in
        Array.iter (fun l -> Hashtbl.replace link_of l.nb l) links;
        let enqueue l ~kind ?(b = 0) data =
          if l.next_seq_out > seq_mask then
            invalid_arg "Faults.harden: per-link sequence space exhausted";
          Queue.push { seq = l.next_seq_out; kind; b; data } l.outq;
          l.next_seq_out <- l.next_seq_out + 1
        in
        let inner_round = ref 0 in
        let inner_halted = ref false in
        let wrapper_halted = ref false in
        let quiet = ref 0 in
        let receive src (m : Msg.t) =
          match (Hashtbl.find_opt link_of src, m.Msg.payload) with
          | Some l, Msg.Triple (header, data, ck) when checksum header data = ck
            ->
              let kind = header land 3 in
              let seq = (header lsr 2) land seq_mask in
              let ack = (header lsr 22) land seq_mask in
              let b = (header lsr 42) land len_mask in
              (* Cumulative ack: everything below [ack] is received. *)
              while
                (not (Queue.is_empty l.outq)) && (Queue.peek l.outq).seq < ack
              do
                ignore (Queue.pop l.outq)
              done;
              if kind <> kind_ack then
                if seq = l.next_seq_in then begin
                  l.next_seq_in <- seq + 1;
                  l.need_ack <- true;
                  if kind = kind_data then
                    l.acc <- { Msg.bits = b; payload = decode_payload ~b data } :: l.acc
                  else if kind = kind_eor then begin
                    Queue.push (List.rev l.acc) l.ready;
                    l.acc <- []
                  end
                  else begin
                    (* HALT: the peer's inner program is done — it will
                       neither send nor consume again, so our own pending
                       packets to it are moot. *)
                    l.nb_halted <- true;
                    Queue.clear l.outq
                  end
                end
                else if seq < l.next_seq_in then
                  (* stale retransmission or duplicate: re-ack *)
                  l.need_ack <- true
          | _ -> () (* corrupted (checksum mismatch) or foreign: ignore *)
        in
        let advance_inner () =
          if not !inner_halted then begin
            let can =
              !inner_round = 0
              || Array.for_all
                   (fun l -> l.nb_halted || not (Queue.is_empty l.ready))
                   links
            in
            if can then begin
              let inbox =
                if !inner_round = 0 then []
                else
                  List.rev
                    (Array.fold_left
                       (fun acc l ->
                         if not (Queue.is_empty l.ready) then
                           List.fold_left
                             (fun acc m -> (l.nb, m) :: acc)
                             acc (Queue.pop l.ready)
                         else acc)
                       [] links)
              in
              let outbox = inner_inst.Program.step ~round:!inner_round ~inbox in
              incr inner_round;
              List.iter
                (fun (dst, (m : Msg.t)) ->
                  match Hashtbl.find_opt link_of dst with
                  | Some l when not l.nb_halted ->
                      enqueue l ~kind:kind_data ~b:m.Msg.bits (encode_payload m)
                  | Some _ -> () (* halted peer never consumes: discard *)
                  | None ->
                      invalid_arg
                        "Faults.harden: inner program addressed a non-neighbor")
                outbox;
              Array.iter
                (fun l ->
                  if not l.nb_halted then
                    enqueue l ~kind:kind_eor (!inner_round - 1))
                links;
              if inner_inst.Program.halted () then begin
                inner_halted := true;
                Array.iter
                  (fun l -> if not l.nb_halted then enqueue l ~kind:kind_halt 0)
                  links
              end
            end
          end
        in
        let step ~round:_ ~inbox =
          if inbox = [] then incr quiet else quiet := 0;
          List.iter (fun (src, m) -> receive src m) inbox;
          advance_inner ();
          let out =
            Array.fold_left
              (fun acc l ->
                if not (Queue.is_empty l.outq) then begin
                  let e = Queue.peek l.outq in
                  l.need_ack <- false;
                  (l.nb, packet ~kind:e.kind ~seq:e.seq ~ack:l.next_seq_in ~b:e.b ~data:e.data)
                  :: acc
                end
                else if l.need_ack then begin
                  l.need_ack <- false;
                  (l.nb, packet ~kind:kind_ack ~seq:0 ~ack:l.next_seq_in ~b:0 ~data:0)
                  :: acc
                end
                else acc)
              [] links
          in
          (* Halt once the inner program is done, every link is flushed
             (acked or peer-halted), and the line has been quiet long
             enough that no peer is still waiting on a lost ack. *)
          if
            !inner_halted
            && Array.for_all (fun l -> l.nb_halted || Queue.is_empty l.outq) links
            && (Array.length links = 0 || !quiet >= linger)
          then wrapper_halted := true;
          List.rev out
        in
        {
          Program.step;
          halted = (fun () -> !wrapper_halted);
          output = inner_inst.Program.output;
        });
  }
