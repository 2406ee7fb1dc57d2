let max_id ~rounds = Fastpath.to_program (Fastpath.max_id ~rounds)

let leader_election_flat ~rounds =
  let inner = Fastpath.max_id ~rounds in
  let kernel sh =
    let k = inner.Fastpath.kernel sh in
    let is_me v m = m = sh.Fastpath.base + v in
    { k with Fastpath.output = (fun v -> Option.map (is_me v) (k.output v)) }
  in
  { Fastpath.fname = "leader-election"; kernel }

let leader_election ~rounds = Fastpath.to_program (leader_election_flat ~rounds)
