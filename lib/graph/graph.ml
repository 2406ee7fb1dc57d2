module Bitset = Stdx.Bitset

type t = {
  size : int;
  weights : int array;
  adj : Bitset.t array;
  labels : string array;
}

let create ?(default_weight = 1) size =
  if size < 0 then invalid_arg "Graph.create: negative size";
  if default_weight < 0 then invalid_arg "Graph.create: negative weight";
  {
    size;
    weights = Array.make size default_weight;
    adj = Array.init size (fun _ -> Bitset.create size);
    labels = Array.init size string_of_int;
  }

let copy g =
  {
    size = g.size;
    weights = Array.copy g.weights;
    adj = Array.map Bitset.copy g.adj;
    labels = Array.copy g.labels;
  }

let n g = g.size

let check g v =
  if v < 0 || v >= g.size then
    invalid_arg (Printf.sprintf "Graph: node %d out of range [0, %d)" v g.size)

let add_edge g u v =
  check g u;
  check g v;
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  Bitset.add g.adj.(u) v;
  Bitset.add g.adj.(v) u

let remove_edge g u v =
  check g u;
  check g v;
  Bitset.remove g.adj.(u) v;
  Bitset.remove g.adj.(v) u

let has_edge g u v =
  check g u;
  check g v;
  Bitset.mem g.adj.(u) v

let neighbors g v =
  check g v;
  g.adj.(v)

let degree g v = Bitset.cardinal (neighbors g v)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.size - 1 do
    d := max !d (degree g v)
  done;
  !d

let edge_count g =
  let total = ref 0 in
  for v = 0 to g.size - 1 do
    total := !total + degree g v
  done;
  !total / 2

let weight g v =
  check g v;
  g.weights.(v)

let set_weight g v w =
  check g v;
  if w < 0 then invalid_arg "Graph.set_weight: negative weight";
  g.weights.(v) <- w

let total_weight g = Array.fold_left ( + ) 0 g.weights

let set_weight_of g s =
  Bitset.fold (fun v acc -> acc + weight g v) s 0

let label g v =
  check g v;
  g.labels.(v)

let set_label g v s =
  check g v;
  g.labels.(v) <- s

let iter_edges f g =
  for u = 0 to g.size - 1 do
    Bitset.iter (fun v -> if u < v then f u v) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges (fun u v -> acc := (u, v) :: !acc) g;
  List.rev !acc

let iter_nodes f g =
  for v = 0 to g.size - 1 do
    f v
  done

let induced g s =
  let mapping = Bitset.to_array s in
  let m = Array.length mapping in
  let inverse = Array.make g.size (-1) in
  Array.iteri (fun new_idx old_idx -> inverse.(old_idx) <- new_idx) mapping;
  let h = create m in
  Array.iteri
    (fun new_idx old_idx ->
      h.weights.(new_idx) <- g.weights.(old_idx);
      h.labels.(new_idx) <- g.labels.(old_idx))
    mapping;
  iter_edges
    (fun u v ->
      if inverse.(u) >= 0 && inverse.(v) >= 0 then
        add_edge h inverse.(u) inverse.(v))
    g;
  (h, mapping)

let disjoint_union g h =
  let shift = g.size in
  let u = create (g.size + h.size) in
  Array.blit g.weights 0 u.weights 0 g.size;
  Array.blit h.weights 0 u.weights shift h.size;
  Array.blit g.labels 0 u.labels 0 g.size;
  Array.blit h.labels 0 u.labels shift h.size;
  iter_edges (fun a b -> add_edge u a b) g;
  iter_edges (fun a b -> add_edge u (a + shift) (b + shift)) h;
  (u, shift)

let complement g =
  let h = create g.size in
  Array.blit g.weights 0 h.weights 0 g.size;
  Array.blit g.labels 0 h.labels 0 g.size;
  for u = 0 to g.size - 1 do
    for v = u + 1 to g.size - 1 do
      if not (Bitset.mem g.adj.(u) v) then add_edge h u v
    done
  done;
  h

let equal g h =
  g.size = h.size
  && Array.for_all2 ( = ) g.weights h.weights
  && Array.for_all2 Bitset.equal g.adj h.adj

let pp ppf g =
  Format.fprintf ppf "graph(n=%d, m=%d, W=%d, maxdeg=%d)" g.size (edge_count g)
    (total_weight g) (max_degree g)
