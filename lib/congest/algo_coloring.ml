(* Phase layout (round mod 2):
     0: uncolored nodes consume lock announcements, draw a random color
        from their residual palette and propose it to all neighbors.
     1: a proposal is locked iff no uncolored neighbor proposed the same
        color; locking nodes announce it and halt one phase later so the
        announcement is delivered.

   Message: one [tag_int] word [(c lsl 1) lor locked], charged as the
   pair (color, flag) it packs: [color_width + 1] bits.  The flag is the
   low bit, so a receiver decodes without knowing the sender's degree.
   Node v's palette is [deg + 1] bytes at [xadj.(v) + v], nonzero where a
   neighbor locked that color. *)

let color_flat =
  {
    Fastpath.fname = "trial-coloring";
    kernel =
      (fun sh ->
        let slots = sh.Fastpath.slots and xadj = sh.Fastpath.xadj in
        let rngs = sh.Fastpath.rngs () in
        let forbidden = Bytes.make (xadj.(slots) + slots) '\000' in
        let free pal c = Bytes.get forbidden (pal + c) = '\000' in
        (* -1: none *)
        let my_color = Array.make slots (-1) in
        let proposal = Array.make slots (-1) in
        let halted = Bytes.make slots '\000' in
        let step ~v ~round inbox em =
          let deg = xadj.(v + 1) - xadj.(v) and pal = xadj.(v) + v in
          let bits = max 1 (Stdx.Mathx.ceil_log2 (max 2 (deg + 1))) + 1 in
          if round mod 2 = 0 then begin
            for k = 0 to Fastpath.in_len inbox - 1 do
              let w = Fastpath.in_int inbox k in
              if w > 0 && w land 1 = 1 && w lsr 1 <= deg then
                Bytes.set forbidden (pal + (w lsr 1)) '\001'
            done;
            if my_color.(v) >= 0 then Bytes.set halted v '\001'
            else begin
              (* The k-th free color, ascending.  At most deg neighbors
                 lock, so the deg+1 colors never all go. *)
              let n_free = ref 0 in
              for c = 0 to deg do
                if free pal c then incr n_free
              done;
              let k = ref (Stdx.Prng.int rngs.(v) !n_free) and c = ref 0 in
              while !k > 0 || not (free pal !c) do
                if free pal !c then decr k;
                incr c
              done;
              proposal.(v) <- !c;
              Fastpath.emit_row em ~tag:Fastpath.tag_int ~bits ~word:(!c lsl 1)
            end
          end
          else begin
            let p = proposal.(v) and conflict = ref false in
            for k = 0 to Fastpath.in_len inbox - 1 do
              if Fastpath.in_int inbox k = p lsl 1 then conflict := true
            done;
            if p >= 0 && not !conflict then begin
              my_color.(v) <- p;
              Fastpath.emit_row em ~tag:Fastpath.tag_int ~bits
                ~word:((p lsl 1) lor 1)
            end
            else proposal.(v) <- -1
          end
        in
        let output v = if my_color.(v) < 0 then None else Some my_color.(v) in
        { Fastpath.step; halted; output });
  }

let color = Fastpath.to_program color_flat
