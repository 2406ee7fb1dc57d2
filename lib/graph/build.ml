module Prng = Stdx.Prng

let make_clique g nodes =
  let rec go = function
    | [] -> ()
    | u :: rest ->
        List.iter (fun v -> Graph.add_edge g u v) rest;
        go rest
  in
  go nodes

let make_clique_array g nodes =
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      Graph.add_edge g nodes.(i) nodes.(j)
    done
  done

let connect_complement_of_matching g xs ys =
  let n = Array.length xs in
  if Array.length ys <> n then
    invalid_arg "Build.connect_complement_of_matching: length mismatch";
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then Graph.add_edge g xs.(i) ys.(j)
    done
  done

let path n =
  let g = Graph.create n in
  for v = 0 to n - 2 do
    Graph.add_edge g v (v + 1)
  done;
  g

let cycle n =
  let g = path n in
  if n >= 3 then Graph.add_edge g (n - 1) 0;
  g

let complete n =
  let g = Graph.create n in
  make_clique_array g (Array.init n Fun.id);
  g

let complete_bipartite a b =
  let g = Graph.create (a + b) in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      Graph.add_edge g u v
    done
  done;
  g

let star n =
  let g = Graph.create n in
  for v = 1 to n - 1 do
    Graph.add_edge g 0 v
  done;
  g

let erdos_renyi rng n p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.float rng 1.0 < p then Graph.add_edge g u v
    done
  done;
  g

let random_weights rng g wmax =
  for v = 0 to Graph.n g - 1 do
    Graph.set_weight g v (1 + Prng.int rng wmax)
  done
