module Graph = Wgraph.Graph
module Inputs = Commcx.Inputs

let copy_offset p ~player ~side =
  if side < 0 || side > 1 then invalid_arg "Quadratic_family.copy_offset: side";
  ((2 * player) + side) * Base_graph.copy_size p

let n_nodes p = 2 * p.Params.players * Base_graph.copy_size p

let string_length p = Params.k p * Params.k p

let pair_index p ~m1 ~m2 =
  let k = Params.k p in
  if m1 < 0 || m1 >= k || m2 < 0 || m2 >= k then
    invalid_arg "Quadratic_family.pair_index";
  (m1 * k) + m2

(* Inter-player code connections within one side b (the copies of G's
   connections), as in the linear family. *)
let connect_side p g ~side =
  let t = p.Params.players in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      for h = 0 to Params.positions p - 1 do
        Wgraph.Build.connect_complement_of_matching g
          (Base_graph.code_clique p ~offset:(copy_offset p ~player:i ~side) ~h)
          (Base_graph.code_clique p ~offset:(copy_offset p ~player:j ~side) ~h)
      done
    done
  done

let fixed p =
  let g = Graph.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    for side = 0 to 1 do
      Base_graph.build_into p g
        ~offset:(copy_offset p ~player:i ~side)
        ~copy_name:(Printf.sprintf "^(%d,%d)" (i + 1) (side + 1))
    done
  done;
  connect_side p g ~side:0;
  connect_side p g ~side:1;
  (* Fixed weights: every A node weighs ℓ, independent of the inputs. *)
  for i = 0 to p.Params.players - 1 do
    for side = 0 to 1 do
      Array.iter
        (fun v -> Graph.set_weight g v (Params.ell p))
        (Base_graph.a_nodes p ~offset:(copy_offset p ~player:i ~side))
    done
  done;
  let partition =
    Array.init (n_nodes p) (fun v -> v / (2 * Base_graph.copy_size p))
  in
  (g, partition)

(* CSR construction path: same node layout, same edge set, built without
   the n²-bit adjacency matrix so Theorem-2 sweeps reach the same n range
   as the linear family.  Unlike the linear family the instance is not a
   pure reweighting — the inputs add A–A edges between the two sides —
   so the input-dependent edges go into the builder before [finish]. *)

let connect_side_csr p b ~side =
  let module B = Wgraph.Csr.Builder in
  let t = p.Params.players in
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      for h = 0 to Params.positions p - 1 do
        let xs = Base_graph.code_clique p ~offset:(copy_offset p ~player:i ~side) ~h in
        let ys = Base_graph.code_clique p ~offset:(copy_offset p ~player:j ~side) ~h in
        let q = Array.length xs in
        for a = 0 to q - 1 do
          for c = 0 to q - 1 do
            if a <> c then B.add_edge b xs.(a) ys.(c)
          done
        done
      done
    done
  done

(* The fixed structure staged into a builder, shared by [fixed_csr] and
   [instance_csr] (which must add its input edges before [finish]). *)
let fixed_csr_builder p =
  let b = Wgraph.Csr.Builder.create (n_nodes p) in
  for i = 0 to p.Params.players - 1 do
    for side = 0 to 1 do
      Base_graph.build_csr_into p b ~offset:(copy_offset p ~player:i ~side)
    done
  done;
  connect_side_csr p b ~side:0;
  connect_side_csr p b ~side:1;
  for i = 0 to p.Params.players - 1 do
    for side = 0 to 1 do
      Array.iter
        (fun v -> Wgraph.Csr.Builder.set_weight b v (Params.ell p))
        (Base_graph.a_nodes p ~offset:(copy_offset p ~player:i ~side))
    done
  done;
  b

let partition_csr p =
  Array.init (n_nodes p) (fun v -> v / (2 * Base_graph.copy_size p))

let fixed_csr p =
  let b = fixed_csr_builder p in
  (Wgraph.Csr.Builder.finish b, partition_csr p)

let instance_csr p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg "Quadratic_family.instance_csr: wrong number of players";
  if x.Inputs.k <> string_length p then
    invalid_arg "Quadratic_family.instance_csr: wrong string length";
  let b = fixed_csr_builder p in
  let k = Params.k p in
  for i = 0 to p.Params.players - 1 do
    let off1 = copy_offset p ~player:i ~side:0
    and off2 = copy_offset p ~player:i ~side:1 in
    for m1 = 0 to k - 1 do
      for m2 = 0 to k - 1 do
        if not (Inputs.bit x ~player:i (pair_index p ~m1 ~m2)) then
          Wgraph.Csr.Builder.add_edge b
            (Base_graph.a_node p ~offset:off1 ~m:m1)
            (Base_graph.a_node p ~offset:off2 ~m:m2)
      done
    done
  done;
  (Wgraph.Csr.Builder.finish b, partition_csr p)

let instance p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg "Quadratic_family.instance: wrong number of players";
  if x.Inputs.k <> string_length p then
    invalid_arg "Quadratic_family.instance: wrong string length";
  let g, partition = fixed p in
  let k = Params.k p in
  for i = 0 to p.Params.players - 1 do
    let off1 = copy_offset p ~player:i ~side:0
    and off2 = copy_offset p ~player:i ~side:1 in
    for m1 = 0 to k - 1 do
      for m2 = 0 to k - 1 do
        if not (Inputs.bit x ~player:i (pair_index p ~m1 ~m2)) then
          Graph.add_edge g
            (Base_graph.a_node p ~offset:off1 ~m:m1)
            (Base_graph.a_node p ~offset:off2 ~m:m2)
      done
    done
  done;
  { Family.graph = g; partition; params = p }

let expected_cut_size p =
  let t = p.Params.players in
  let q = Params.q p in
  2 * (t * (t - 1) / 2) * Params.positions p * q * (q - 1)

let high_weight p =
  let t = p.Params.players in
  (4 * t * Params.ell p) + (2 * Params.alpha p * t)

let low_weight p =
  let t = p.Params.players in
  (3 * (t + 1) * Params.ell p) + (3 * Params.alpha p * t * t * t)

let formal_gap_valid p = low_weight p < high_weight p

let predicate p =
  if not (formal_gap_valid p) then
    invalid_arg
      "Quadratic_family.predicate: claim bounds do not separate at these \
       parameters (need ell >> alpha*t^3)";
  Predicate.make
    ~name:(Printf.sprintf "quadratic gap (t=%d)" p.Params.players)
    ~high:(high_weight p) ~low:(low_weight p)

let spec p =
  {
    Family.name = "quadratic (Section 5)";
    string_length = string_length p;
    players = p.Params.players;
    build = instance p;
    predicate = predicate p;
    func = Commcx.Functions.promise_pairwise_disjointness;
  }
