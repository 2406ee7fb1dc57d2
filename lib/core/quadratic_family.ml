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

let partition p =
  Array.init (n_nodes p) (fun v -> v / (2 * Base_graph.copy_size p))

(* Every edge of F: the 2t copies of H, then within each side b the code
   links between players, as in the linear family. *)
let iter_edges p f =
  let t = p.Params.players in
  for i = 0 to t - 1 do
    for side = 0 to 1 do
      Base_graph.iter_edges p ~offset:(copy_offset p ~player:i ~side) f
    done
  done;
  for side = 0 to 1 do
    for i = 0 to t - 1 do
      for j = i + 1 to t - 1 do
        Base_graph.iter_code_links p
          ~offset:(copy_offset p ~player:i ~side)
          ~offset':(copy_offset p ~player:j ~side)
          f
      done
    done
  done

(* F's edges, then the input edges: v^{(i,1)}_{m1} ↔ v^{(i,2)}_{m2} iff
   x^i_{(m1,m2)} = 0. *)
let instance_edges p x f =
  iter_edges p f;
  let k = Params.k p in
  for i = 0 to p.Params.players - 1 do
    let off1 = copy_offset p ~player:i ~side:0
    and off2 = copy_offset p ~player:i ~side:1 in
    for m1 = 0 to k - 1 do
      for m2 = 0 to k - 1 do
        if not (Inputs.bit x ~player:i (pair_index p ~m1 ~m2)) then
          f (Base_graph.a_node p ~offset:off1 ~m:m1)
            (Base_graph.a_node p ~offset:off2 ~m:m2)
      done
    done
  done

(* Fixed weights, independent of the inputs: every A node weighs ℓ, every
   code node 1. *)
let weight p v =
  let size = Base_graph.copy_size p in
  match Base_graph.node_kind p ~offset:(v / size * size) v with
  | `A _ -> Params.ell p
  | `Sigma _ -> 1

let label p =
  let size = Base_graph.copy_size p in
  let names =
    Array.init (2 * p.Params.players) (fun c ->
        Printf.sprintf "^(%d,%d)" ((c / 2) + 1) ((c mod 2) + 1))
  in
  fun v ->
    let c = v / size in
    Base_graph.label p ~copy_name:names.(c) ~offset:(c * size) v

let graph p edges =
  Base_graph.graph_of_edges ~n:(n_nodes p) ~weight:(weight p) ~label:(label p)
    edges

let csr p edges = Base_graph.csr_of_edges ~n:(n_nodes p) ~weight:(weight p) edges

let check_inputs fn p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg ("Quadratic_family." ^ fn ^ ": wrong number of players");
  if x.Inputs.k <> string_length p then
    invalid_arg ("Quadratic_family." ^ fn ^ ": wrong string length")

let fixed p = (graph p (iter_edges p), partition p)

let fixed_csr p = (csr p (iter_edges p), partition p)

let instance p x =
  check_inputs "instance" p x;
  { Family.graph = graph p (instance_edges p x); partition = partition p; params = p }

let instance_csr p x =
  check_inputs "instance_csr" p x;
  (csr p (instance_edges p x), partition p)

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
