(* Phase layout (round mod 3):
     0: consume matched-announcements (shrinking the active neighbor set);
        a node with no active neighbors left halts; proposers send a
        proposal to one random active neighbor.
     1: acceptors accept the smallest-id proposal (if any) and are thereby
        matched; the accept message is the handshake.
     2: proposers receiving an accept are matched; both sides of every new
        pair announce "matched" to all neighbors and halt afterwards.

   Message: one [tag_int] word [tag lor (value lsl 2)], charged as the
   pair (tag, value) it packs: 2 + 1 bits, value always 0.  Per edge slot,
   a byte says whether that neighbor is still active. *)

let tag_propose = 0
let tag_accept = 1
let tag_matched = 2
let bits = 3
let got inbox k tag = Fastpath.in_int inbox k land 3 = tag

let maximal_matching_flat =
  {
    Fastpath.fname = "maximal-matching";
    kernel =
      (fun sh ->
        let slots = sh.Fastpath.slots in
        let xadj = sh.Fastpath.xadj and adj = sh.Fastpath.adj in
        let rngs = sh.Fastpath.rngs () in
        let active = Bytes.make xadj.(slots) '\001' in
        (* -1: none *)
        let partner = Array.make slots (-1) in
        let proposed_to = Array.make slots (-1) in
        let is_proposer = Bytes.make slots '\000' in
        let must_announce = Bytes.make slots '\000' in
        let halted = Bytes.make slots '\000' in
        let step ~v ~round inbox em =
          let lo = xadj.(v) and hi = xadj.(v + 1) in
          match round mod 3 with
          | 0 ->
              for k = 0 to Fastpath.in_len inbox - 1 do
                if got inbox k tag_matched then begin
                  let src = Fastpath.in_src inbox k in
                  let j = Fastpath.find_slot adj lo hi src in
                  if j >= 0 then Bytes.set active j '\000'
                end
              done;
              let live = ref 0 in
              for j = lo to hi - 1 do
                if Bytes.get active j <> '\000' then incr live
              done;
              (* Matched last phase (the announcement went out at its
                 end), or every neighbor is matched: rest. *)
              if partner.(v) >= 0 || !live = 0 then Bytes.set halted v '\001'
              else begin
                let proposer = Stdx.Prng.bool rngs.(v) in
                Bytes.set is_proposer v (if proposer then '\001' else '\000');
                proposed_to.(v) <- -1;
                if proposer then begin
                  (* The k-th active neighbor, ascending. *)
                  let k = ref (Stdx.Prng.int rngs.(v) !live) and j = ref lo in
                  while !k > 0 || Bytes.get active !j = '\000' do
                    if Bytes.get active !j <> '\000' then decr k;
                    incr j
                  done;
                  proposed_to.(v) <- adj.(!j);
                  Fastpath.emit em ~dst:adj.(!j) ~tag:Fastpath.tag_int ~bits
                    ~word:tag_propose
                end
              end
          | 1 ->
              if partner.(v) < 0 && Bytes.get is_proposer v = '\000' then begin
                let best = ref (-1) in
                for k = 0 to Fastpath.in_len inbox - 1 do
                  let src = Fastpath.in_src inbox k in
                  if got inbox k tag_propose && (!best < 0 || src < !best) then
                    best := src
                done;
                if !best >= 0 then begin
                  partner.(v) <- !best;
                  Bytes.set must_announce v '\001';
                  Fastpath.emit em ~dst:partner.(v) ~tag:Fastpath.tag_int ~bits
                    ~word:tag_accept
                end
              end
          | _ ->
              if Bytes.get is_proposer v <> '\000' && partner.(v) < 0 then
                for k = 0 to Fastpath.in_len inbox - 1 do
                  if
                    got inbox k tag_accept
                    && Fastpath.in_src inbox k = proposed_to.(v)
                  then begin
                    partner.(v) <- proposed_to.(v);
                    Bytes.set must_announce v '\001'
                  end
                done;
              if Bytes.get must_announce v <> '\000' then begin
                Bytes.set must_announce v '\000';
                Fastpath.emit_row em ~tag:Fastpath.tag_int ~bits
                  ~word:tag_matched
              end
        in
        let output v = if partner.(v) < 0 then None else Some partner.(v) in
        { Fastpath.step; halted; output });
  }

let maximal_matching = Fastpath.to_program maximal_matching_flat
