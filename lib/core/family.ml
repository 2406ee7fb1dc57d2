module Graph = Wgraph.Graph
module Inputs = Commcx.Inputs

type instance = {
  graph : Graph.t;
  partition : int array;
  params : Params.t;
}

type spec = {
  name : string;
  string_length : int;
  players : int;
  build : Inputs.t -> instance;
  predicate : Predicate.t;
  func : Inputs.t -> bool;
}

let cut_size inst = Wgraph.Cut.size inst.graph inst.partition

type locality_report = {
  player_changed : int;
  foreign_weight_diffs : int list;
  foreign_edge_diffs : (int * int) list;
  ok : bool;
}

let check_condition1 spec x1 x2 ~player =
  (* Building first lets the family's own input check name a bad shape. *)
  let inst1 = spec.build x1 in
  let inst2 = spec.build x2 in
  for i = 0 to spec.players - 1 do
    let s1 = Inputs.string_of_player x1 i
    and s2 = Inputs.string_of_player x2 i in
    if i <> player && not (Stdx.Bitset.equal s1 s2) then
      invalid_arg
        "Family.check_condition1: inputs differ outside the varied player"
  done;
  let g1 = inst1.graph and g2 = inst2.graph in
  if Graph.n g1 <> Graph.n g2 then
    invalid_arg "Family.check_condition1: instance sizes differ";
  let part = inst1.partition in
  let weight_diffs = ref [] in
  for v = Graph.n g1 - 1 downto 0 do
    if Graph.weight g1 v <> Graph.weight g2 v && part.(v) <> player then
      weight_diffs := v :: !weight_diffs
  done;
  let edge_diffs = ref [] in
  let record u v =
    (* An edge difference is foreign unless both endpoints belong to the
       varied player. *)
    if not (part.(u) = player && part.(v) = player) then
      edge_diffs := (u, v) :: !edge_diffs
  in
  Graph.iter_edges (fun u v -> if not (Graph.has_edge g2 u v) then record u v) g1;
  Graph.iter_edges (fun u v -> if not (Graph.has_edge g1 u v) then record u v) g2;
  {
    player_changed = player;
    foreign_weight_diffs = !weight_diffs;
    foreign_edge_diffs = List.rev !edge_diffs;
    ok = !weight_diffs = [] && !edge_diffs = [];
  }

type gap_report = {
  opt : int;
  verdict : Predicate.verdict;
  expected : bool;
  decided : bool option;
  ok : bool;
}

let check_condition2 spec x =
  let inst = spec.build x in
  let opt = Mis.Exact.opt inst.graph in
  let verdict = Predicate.classify spec.predicate opt in
  let expected = spec.func x in
  let decided = Predicate.decides_to spec.predicate opt in
  { opt; verdict; expected; decided; ok = decided = Some expected }
