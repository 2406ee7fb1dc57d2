module Graph = Wgraph.Graph
module Inputs = Commcx.Inputs
module Bitset = Stdx.Bitset

let copy_offset p i = i * Base_graph.copy_size p

let n_nodes p = p.Params.players * Base_graph.copy_size p

(* Inter-copy code connections: for i < j and every position h, all edges
   between C^i_h and C^j_h except the natural perfect matching (Figure 2). *)
let connect_copies p g =
  let t = p.Params.players in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      for h = 0 to Params.positions p - 1 do
        Wgraph.Build.connect_complement_of_matching g
          (Base_graph.code_clique p ~offset:(copy_offset p i) ~h)
          (Base_graph.code_clique p ~offset:(copy_offset p j) ~h)
      done
    done
  done

let fixed p =
  let g = Graph.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    Base_graph.build_into p g ~offset:(copy_offset p i)
      ~copy_name:(Printf.sprintf "^%d" (i + 1))
  done;
  connect_copies p g;
  let partition =
    Array.init (n_nodes p) (fun v -> v / Base_graph.copy_size p)
  in
  (g, partition)

(* CSR construction path: same node layout, same edge set, built without
   the n²-bit adjacency matrix so Theorem-1 sweeps reach n in the 10⁵–10⁶
   range. *)

let connect_copies_csr p b =
  let module B = Wgraph.Csr.Builder in
  let t = p.Params.players in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      for h = 0 to Params.positions p - 1 do
        let xs = Base_graph.code_clique p ~offset:(copy_offset p i) ~h in
        let ys = Base_graph.code_clique p ~offset:(copy_offset p j) ~h in
        let q = Array.length xs in
        for a = 0 to q - 1 do
          for c = 0 to q - 1 do
            if a <> c then B.add_edge b xs.(a) ys.(c)
          done
        done
      done
    done
  done

let fixed_csr p =
  let b = Wgraph.Csr.Builder.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    Base_graph.build_csr_into p b ~offset:(copy_offset p i)
  done;
  connect_copies_csr p b;
  let partition =
    Array.init (n_nodes p) (fun v -> v / Base_graph.copy_size p)
  in
  (Wgraph.Csr.Builder.finish b, partition)

let instance_csr p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg "Linear_family.instance_csr: wrong number of players";
  if x.Inputs.k <> Params.k p then
    invalid_arg "Linear_family.instance_csr: wrong string length";
  let g, partition = fixed_csr p in
  let size = Base_graph.copy_size p in
  let weight_of v =
    let i = v / size in
    match Base_graph.node_kind p ~offset:(i * size) v with
    | `A m -> if Inputs.bit x ~player:i m then Params.ell p else 1
    | `Sigma _ -> 1
  in
  (Wgraph.Csr.reweight g weight_of, partition)

let instance p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg "Linear_family.instance: wrong number of players";
  if x.Inputs.k <> Params.k p then
    invalid_arg "Linear_family.instance: wrong string length";
  let g, partition = fixed p in
  for i = 0 to p.Params.players - 1 do
    for m = 0 to Params.k p - 1 do
      if Inputs.bit x ~player:i m then
        Graph.set_weight g
          (Base_graph.a_node p ~offset:(copy_offset p i) ~m)
          (Params.ell p)
    done
  done;
  { Family.graph = g; partition; params = p }

let property1_set p ~m =
  let s = Bitset.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    let offset = copy_offset p i in
    Bitset.add s (Base_graph.a_node p ~offset ~m);
    Array.iter (fun v -> Bitset.add s v) (Base_graph.code_nodes p ~offset ~m)
  done;
  s

let expected_cut_size p =
  let t = p.Params.players in
  let q = Params.q p in
  t * (t - 1) / 2 * Params.positions p * q * (q - 1)

let high_weight p =
  p.Params.players * ((2 * Params.ell p) + Params.alpha p)

let low_weight p =
  ((p.Params.players + 1) * Params.ell p)
  + (Params.alpha p * p.Params.players * p.Params.players)

let formal_gap_valid p = low_weight p < high_weight p

let predicate p =
  Predicate.make
    ~name:(Printf.sprintf "linear gap (t=%d)" p.Params.players)
    ~high:(high_weight p) ~low:(low_weight p)

let spec p =
  {
    Family.name = "linear (Section 4)";
    string_length = Params.k p;
    players = p.Params.players;
    build = instance p;
    predicate = predicate p;
    func = Commcx.Functions.promise_pairwise_disjointness;
  }
