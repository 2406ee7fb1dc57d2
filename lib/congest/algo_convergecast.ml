(* Message: one [tag_int] word [tag lor (value lsl 2)], charged as the
   pair (tag, value) it packs: [2 + value_width] bits.  Tag 0 = BFS wave,
   1 = "you are my parent", 2 = partial aggregate.

   Timeline for a node adopting the wave at round r (the root "adopts" at
   round 0): it relays the wave and claims its parent during round r; its
   children adopt at r+1 and their claims arrive in the inbox of round
   r+2 — after which the children set is final, because every neighbor has
   adopted some parent by then.  A node forwards its aggregate once the
   children set is final and every child has reported.  Per edge slot, a
   byte says whether that neighbor has claimed this node as its parent. *)

let tag_wave = 0
let tag_claim = 1
let tag_value = 2

let aggregate_flat ~name ~root ~value_width ~combine ~contribution =
  {
    Fastpath.fname = name;
    kernel =
      (fun sh ->
        let slots = sh.Fastpath.slots and base = sh.Fastpath.base in
        let xadj = sh.Fastpath.xadj and adj = sh.Fastpath.adj in
        let bits = 2 + value_width and int = Fastpath.tag_int in
        let is_child = Bytes.make xadj.(slots) '\000' in
        (* -1: none *)
        let adopted =
          Array.init slots (fun v -> if base + v = root then 0 else -1)
        in
        let parent = Array.make slots (-1) in
        let children = Array.make slots 0 in
        let acc = Array.make slots 0 in
        let reports = Array.make slots 0 in
        let done_ = Bytes.make slots '\000' in
        let result = Array.make slots None in
        let step ~v ~round inbox em =
          let lo = xadj.(v) and hi = xadj.(v + 1) in
          let just_adopted = ref (base + v = root && round = 0) in
          for k = 0 to Fastpath.in_len inbox - 1 do
            let w = Fastpath.in_int inbox k in
            let src = Fastpath.in_src inbox k in
            if w land 3 = tag_wave && adopted.(v) < 0 then begin
              adopted.(v) <- round;
              parent.(v) <- src;
              just_adopted := true
            end
            else if w land 3 = tag_claim then begin
              let j = Fastpath.find_slot adj lo hi src in
              if j >= 0 && Bytes.get is_child j = '\000' then begin
                Bytes.set is_child j '\001';
                children.(v) <- children.(v) + 1
              end
            end
            else if w land 3 = tag_value then begin
              acc.(v) <- combine acc.(v) (w lsr 2);
              reports.(v) <- reports.(v) + 1
            end
          done;
          let pr = parent.(v) in
          if !just_adopted then
            if pr < 0 then Fastpath.emit_row em ~tag:int ~bits ~word:tag_wave
            else begin
              (* The claim first, then the wave to every other neighbor,
                 highest first (the goldens pin this send order).  The
                 wave skips the parent, which already has it. *)
              Fastpath.emit em ~dst:pr ~tag:int ~bits ~word:tag_claim;
              for j = hi - 1 downto lo do
                if adj.(j) <> pr then
                  Fastpath.emit em ~dst:adj.(j) ~tag:int ~bits ~word:tag_wave
              done
            end;
          let r0 = adopted.(v) in
          if
            r0 >= 0 && round >= r0 + 2
            && Bytes.get done_ v = '\000'
            && reports.(v) = children.(v)
          then begin
            let total =
              combine acc.(v)
                (contribution ~id:(base + v) ~weight:(sh.Fastpath.weight v))
            in
            if base + v = root then result.(v) <- Some total
            else if
              total < 0 || (value_width < 63 && total >= 1 lsl value_width)
            then
              invalid_arg
                (Printf.sprintf
                   "Algo_convergecast: value %d does not fit in %d bits" total
                   value_width)
            else if pr >= 0 then
              Fastpath.emit em ~dst:pr ~tag:int ~bits
                ~word:(tag_value lor (total lsl 2));
            Bytes.set done_ v '\001'
          end
        in
        { Fastpath.step; halted = done_; output = (fun v -> result.(v)) });
  }

let aggregate ~name ~root ~value_width ~combine ~contribution =
  Fastpath.to_program
    (aggregate_flat ~name ~root ~value_width ~combine ~contribution)

let sum_of_weights_flat ~root ~value_width =
  aggregate_flat ~name:"convergecast-weight-sum" ~root ~value_width
    ~combine:( + ) ~contribution:(fun ~id:_ ~weight -> weight)

let sum_of_weights ~root ~value_width =
  Fastpath.to_program (sum_of_weights_flat ~root ~value_width)

let count_nodes ~root ~value_width =
  aggregate ~name:"convergecast-count" ~root ~value_width ~combine:( + )
    ~contribution:(fun ~id:_ ~weight:_ -> 1)

let max_weight ~root ~value_width =
  aggregate ~name:"convergecast-max-weight" ~root ~value_width ~combine:max
    ~contribution:(fun ~id:_ ~weight -> weight)
