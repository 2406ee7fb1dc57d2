module Bitset = Stdx.Bitset
module Graph = Wgraph.Graph

type heuristic = { name : string; run : Graph.t -> Bitset.t }

(* Generic greedy: repeatedly pick the remaining node maximizing [score],
   add it, and delete its closed neighborhood. *)
let generic score g =
  let n = Graph.n g in
  let remaining = Bitset.full n in
  let chosen = Bitset.create n in
  let residual_degree v = Bitset.inter_cardinal (Graph.neighbors g v) remaining in
  let rec loop () =
    match
      Bitset.fold
        (fun v best ->
          let s = score g v (residual_degree v) in
          match best with
          | Some (_, bs) when bs >= s -> best
          | _ -> Some (v, s))
        remaining None
    with
    | None -> ()
    | Some (v, _) ->
        Bitset.add chosen v;
        Bitset.remove remaining v;
        Bitset.diff_in_place remaining (Graph.neighbors g v);
        loop ()
  in
  loop ();
  chosen

let max_weight_first =
  {
    name = "max-weight-first";
    run = generic (fun g v _deg -> float_of_int (Graph.weight g v));
  }

let min_degree_first =
  {
    name = "min-degree-first";
    run =
      generic (fun g v deg ->
          (* Lower degree is better; weight breaks ties. *)
          (-1000000.0 *. float_of_int deg) +. float_of_int (Graph.weight g v));
  }

(* Exported only through [all]. *)
let weight_degree_ratio =
  {
    name = "weight/degree";
    run =
      generic (fun g v deg ->
          float_of_int (Graph.weight g v) /. float_of_int (deg + 1));
  }

let all = [ max_weight_first; min_degree_first; weight_degree_ratio ]

let run h g =
  let set = h.run g in
  (Graph.set_weight_of g set, set)
