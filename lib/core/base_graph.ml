module Graph = Wgraph.Graph

let copy_size p = Params.k p + (Params.positions p * Params.q p)

let a_node p ~offset ~m =
  if m < 0 || m >= Params.k p then invalid_arg "Base_graph.a_node: bad m";
  offset + m

let sigma_node p ~offset ~h ~r =
  if h < 0 || h >= Params.positions p then
    invalid_arg "Base_graph.sigma_node: bad position";
  if r < 0 || r >= Params.q p then invalid_arg "Base_graph.sigma_node: bad symbol";
  offset + Params.k p + (h * Params.q p) + r

let code_clique p ~offset ~h =
  Array.init (Params.q p) (fun r -> sigma_node p ~offset ~h ~r)

let code_nodes p ~offset ~m =
  let w = Params.codeword p m in
  Array.init (Params.positions p) (fun h -> sigma_node p ~offset ~h ~r:w.(h))

let all_code_nodes p ~offset =
  Array.init
    (Params.positions p * Params.q p)
    (fun i -> offset + Params.k p + i)

let a_nodes p ~offset = Array.init (Params.k p) (fun m -> a_node p ~offset ~m)

let node_kind p ~offset v =
  let rel = v - offset in
  if rel < 0 || rel >= copy_size p then
    invalid_arg "Base_graph.node_kind: node outside copy";
  if rel < Params.k p then `A rel
  else
    let c = rel - Params.k p in
    `Sigma (c / Params.q p, c mod Params.q p)

let iter_clique nodes f =
  let n = Array.length nodes in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      f nodes.(i) nodes.(j)
    done
  done

(* The paper connects v_m to every code node and then removes Code_m;
   skipping each position's codeword symbol yields every edge once.
   [c_h] is the first node of the clique C_h. *)
let iter_edges p ~offset f =
  iter_clique (a_nodes p ~offset) f;
  for h = 0 to Params.positions p - 1 do
    iter_clique (code_clique p ~offset ~h) f
  done;
  let q = Params.q p in
  for m = 0 to Params.k p - 1 do
    let vm = a_node p ~offset ~m and w = Params.codeword p m in
    for h = 0 to Params.positions p - 1 do
      let c_h = sigma_node p ~offset ~h ~r:0 in
      for r = 0 to q - 1 do
        if r <> w.(h) then f vm (c_h + r)
      done
    done
  done

let iter_code_links p ~offset ~offset' f =
  let q = Params.q p in
  for h = 0 to Params.positions p - 1 do
    let x_h = sigma_node p ~offset ~h ~r:0
    and y_h = sigma_node p ~offset:offset' ~h ~r:0 in
    for a = 0 to q - 1 do
      for c = 0 to q - 1 do
        if a <> c then f (x_h + a) (y_h + c)
      done
    done
  done

let label p ~copy_name ~offset v =
  match node_kind p ~offset v with
  | `A m -> Printf.sprintf "v%s_%d" copy_name (m + 1)
  | `Sigma (h, r) -> Printf.sprintf "s%s_(%d,%d)" copy_name (h + 1) (r + 1)

let graph_of_edges ~n ~weight ~label edges =
  let g = Graph.create n in
  edges (fun u v -> Graph.add_edge g u v);
  for v = 0 to n - 1 do
    Graph.set_weight g v (weight v);
    Graph.set_label g v (label v)
  done;
  g

let csr_of_edges ~n ~weight edges =
  let module B = Wgraph.Csr.Builder in
  let b = B.create n in
  edges (fun u v -> B.add_edge b u v);
  for v = 0 to n - 1 do
    B.set_weight b v (weight v)
  done;
  B.finish b

let graph p =
  graph_of_edges ~n:(copy_size p)
    ~weight:(fun _ -> 1)
    ~label:(label p ~copy_name:"" ~offset:0)
    (iter_edges p ~offset:0)
