module Inputs = Commcx.Inputs
module Bitset = Stdx.Bitset

let copy_offset p i = i * Base_graph.copy_size p

let n_nodes p = p.Params.players * Base_graph.copy_size p

let partition p = Array.init (n_nodes p) (fun v -> v / Base_graph.copy_size p)

(* Every edge of G: the t copies of H, then for i < j the code links
   between copies i and j (Figure 2). *)
let iter_edges p f =
  let t = p.Params.players in
  for i = 0 to t - 1 do
    Base_graph.iter_edges p ~offset:(copy_offset p i) f
  done;
  for i = 0 to t - 1 do
    for j = i + 1 to t - 1 do
      Base_graph.iter_code_links p ~offset:(copy_offset p i)
        ~offset':(copy_offset p j) f
    done
  done

(* w(v^i_m) = ℓ when x^i_m = 1; every other node weighs 1. *)
let weight p x v =
  let i = v / Base_graph.copy_size p in
  match Base_graph.node_kind p ~offset:(copy_offset p i) v with
  | `A m when Inputs.bit x ~player:i m -> Params.ell p
  | _ -> 1

let label p =
  let names = Array.init p.Params.players (fun i -> Printf.sprintf "^%d" (i + 1)) in
  fun v ->
    let i = v / Base_graph.copy_size p in
    Base_graph.label p ~copy_name:names.(i) ~offset:(copy_offset p i) v

let graph p ~weight =
  Base_graph.graph_of_edges ~n:(n_nodes p) ~weight ~label:(label p) (iter_edges p)

let csr p ~weight = Base_graph.csr_of_edges ~n:(n_nodes p) ~weight (iter_edges p)

let check_inputs fn p x =
  if Inputs.t_players x <> p.Params.players then
    invalid_arg ("Linear_family." ^ fn ^ ": wrong number of players");
  if x.Inputs.k <> Params.k p then
    invalid_arg ("Linear_family." ^ fn ^ ": wrong string length")

let fixed p = (graph p ~weight:(fun _ -> 1), partition p)

let fixed_csr p = (csr p ~weight:(fun _ -> 1), partition p)

let instance p x =
  check_inputs "instance" p x;
  { Family.graph = graph p ~weight:(weight p x); partition = partition p; params = p }

let instance_csr p x =
  check_inputs "instance_csr" p x;
  (csr p ~weight:(weight p x), partition p)

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
