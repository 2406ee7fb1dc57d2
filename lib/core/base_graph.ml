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

(* CSR twin of [build_into]: [Csr.Builder] has no edge removal, so the
   v_m ↔ Code \ Code_m connections are built directly — for each position
   the codeword's own symbol is skipped instead of added-then-removed.
   No labels: at n ≥ 10⁵ the per-node strings cost more than the edges,
   and the large-n sweeps never read them. *)
let build_csr_into p b ~offset =
  let module B = Wgraph.Csr.Builder in
  let clique nodes =
    let n = Array.length nodes in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        B.add_edge b nodes.(i) nodes.(j)
      done
    done
  in
  clique (a_nodes p ~offset);
  for h = 0 to Params.positions p - 1 do
    clique (code_clique p ~offset ~h)
  done;
  for m = 0 to Params.k p - 1 do
    let vm = a_node p ~offset ~m in
    let w = Params.codeword p m in
    for h = 0 to Params.positions p - 1 do
      for r = 0 to Params.q p - 1 do
        if r <> w.(h) then B.add_edge b vm (sigma_node p ~offset ~h ~r)
      done
    done
  done

let build_into p g ~offset ~copy_name =
  (* The clique A. *)
  Wgraph.Build.make_clique_array g (a_nodes p ~offset);
  (* The code-gadget cliques C_h. *)
  for h = 0 to Params.positions p - 1 do
    Wgraph.Build.make_clique_array g (code_clique p ~offset ~h)
  done;
  (* v_m ↔ Code \ Code_m: connect v_m to every code node, then remove the
     codeword's own nodes. *)
  for m = 0 to Params.k p - 1 do
    let vm = a_node p ~offset ~m in
    Array.iter (fun u -> Graph.add_edge g vm u) (all_code_nodes p ~offset);
    Array.iter (fun u -> Graph.remove_edge g vm u) (code_nodes p ~offset ~m)
  done;
  (* Labels, 1-based like the paper. *)
  for m = 0 to Params.k p - 1 do
    Graph.set_label g (a_node p ~offset ~m)
      (Printf.sprintf "v%s_%d" copy_name (m + 1))
  done;
  for h = 0 to Params.positions p - 1 do
    for r = 0 to Params.q p - 1 do
      Graph.set_label g
        (sigma_node p ~offset ~h ~r)
        (Printf.sprintf "s%s_(%d,%d)" copy_name (h + 1) (r + 1))
    done
  done
