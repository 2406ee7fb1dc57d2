(* Experiments F1-F6: regenerate the paper's figures.

   The paper's only graphics are drawings of small gadget instances
   (ell = 2, alpha = 1, k = 3).  We rebuild each pictured object at the
   exact figure parameters, print a structural census that can be checked
   against the drawing, and emit DOT files under figures/ for rendering. *)

module P = Maxis_core.Params
module BG = Maxis_core.Base_graph
module LF = Maxis_core.Linear_family
module QF = Maxis_core.Quadratic_family
module Graph = Wgraph.Graph
module T = Stdx.Tablefmt
open Exp_common

let figures_dir = "figures"

let ensure_dir () =
  if not (Sys.file_exists figures_dir) then Sys.mkdir figures_dir 0o755

let dump name dot =
  ensure_dir ();
  let path = Filename.concat figures_dir (name ^ ".dot") in
  Wgraph.Dot.write_file path dot;
  note "wrote %s" path

let fig1 () =
  section "F1" "Figure 1: the base graph H (ell=2, alpha=1, k=3)";
  let p = P.figure_params ~players:2 in
  let g = BG.graph p in
  let table =
    T.create [ T.column ~align:T.Left "quantity"; T.column "value"; T.column "paper" ]
  in
  T.add_row table [ "nodes"; T.cell_int (Graph.n g); "12 (3 + 3x3)" ];
  T.add_row table [ "edges"; T.cell_int (Graph.edge_count g); "30" ];
  T.add_row table [ "A clique size k"; T.cell_int (P.k p); "3" ];
  T.add_row table [ "code cliques"; T.cell_int (P.positions p); "3" ];
  T.add_row table [ "clique size"; T.cell_int (P.q p); "3" ];
  T.add_row table
    [ "v_m degree"; T.cell_int (Graph.degree g (BG.a_node p ~offset:0 ~m:0)); "8" ];
  T.print ~csv:"results/fig1_census.csv" table;
  (* The defining adjacency of the figure: v_1 avoids exactly Code_1. *)
  let w = P.codeword p 0 in
  note "C(1) codeword (0-based symbols): [%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int w)));
  let ok = ref true in
  Array.iter
    (fun u ->
      let in_code1 = Array.exists (( = ) u) (BG.code_nodes p ~offset:0 ~m:0) in
      if Graph.has_edge g (BG.a_node p ~offset:0 ~m:0) u <> not in_code1 then
        ok := false)
    (BG.all_code_nodes p ~offset:0);
  note "v_1 adjacent to exactly Code \\ Code_1: %s" (if !ok then "ok" else "FAIL");
  dump "figure1_H" (Wgraph.Dot.to_dot ~name:"Figure1_H" g)

let fig2 () =
  section "F2" "Figure 2: C^i_h -- C^j_h complement-of-matching connections";
  let p = P.figure_params ~players:2 in
  let g, _ = LF.fixed p in
  let table =
    T.create
      [ T.column "r"; T.column "degree into C^2_1"; T.column ~align:T.Left "missing twin" ]
  in
  let off0 = LF.copy_offset p 0 and off1 = LF.copy_offset p 1 in
  for r = 0 to P.q p - 1 do
    let u = BG.sigma_node p ~offset:off0 ~h:0 ~r in
    let degree_across = ref 0 in
    let twin_missing = ref true in
    for r' = 0 to P.q p - 1 do
      let v = BG.sigma_node p ~offset:off1 ~h:0 ~r:r' in
      if Graph.has_edge g u v then begin
        incr degree_across;
        if r' = r then twin_missing := false
      end
    done;
    T.add_row table
      [
        T.cell_int (r + 1);
        T.cell_int !degree_across;
        (if !twin_missing then "ok (only twin missing)" else "FAIL");
      ]
  done;
  T.print ~csv:"results/fig2_degrees.csv" table;
  note "each sigma^1_(1,r) connects to q-1 = %d of the q = %d nodes across"
    (P.q p - 1) (P.q p)

let fig3 () =
  section "F3" "Figure 3: t=3 linear construction; independent set of Property 1";
  let p = P.figure_params ~players:3 in
  let g, part = LF.fixed p in
  let s = LF.property1_set p ~m:0 in
  let table =
    T.create [ T.column ~align:T.Left "quantity"; T.column "value"; T.column "paper" ]
  in
  T.add_row table [ "nodes"; T.cell_int (Graph.n g); "36 (3 copies of 12)" ];
  T.add_row table [ "cut edges"; T.cell_int (Wgraph.Cut.size g part); "54 (3 pairs x 3 pos x 6)" ];
  T.add_row table
    [ "set {v^i_1} u Code^i_1 size"; T.cell_int (Stdx.Bitset.cardinal s); "12 (3 x (1+3))" ];
  T.add_row table
    [
      "set independent";
      (if Wgraph.Check.is_independent g s then "yes" else "NO");
      "yes";
    ];
  (* On the instance where all three strings hold index 1, the set weighs
     t(2l+a) = 3*(4+1) = 15. *)
  let x = Commcx.Inputs.of_bit_lists ~k:3 [ [ 0 ]; [ 0 ]; [ 0 ] ] in
  let inst = LF.instance p x in
  T.add_row table
    [
      "set weight on x=({1},{1},{1})";
      T.cell_int (Graph.set_weight_of inst.Maxis_core.Family.graph s);
      Printf.sprintf "t(2l+a) = %d" (LF.high_weight p);
    ];
  T.print ~csv:"results/fig3_census.csv" table;
  dump "figure3_G_t3"
    (Wgraph.Dot.to_dot ~name:"Figure3_G_t3" ~partition:part ~highlight:s g)

let fig4_6 () =
  section "F4-F6" "Figures 4-6: quadratic construction F and its input edges";
  let p = P.figure_params ~players:2 in
  let g, part = QF.fixed p in
  let table =
    T.create [ T.column ~align:T.Left "quantity"; T.column "value"; T.column "paper" ]
  in
  T.add_row table [ "nodes"; T.cell_int (Graph.n g); "48 (4 copies of 12)" ];
  T.add_row table [ "fixed edges"; T.cell_int (Graph.edge_count g); "156 (4x30 + 2x18)" ];
  T.add_row table [ "cut edges"; T.cell_int (Wgraph.Cut.size g part); "36 (two sides x 18)" ];
  T.add_row table
    [
      "A-node weight";
      T.cell_int (Graph.weight g (BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:0) ~m:0));
      "l = 2 (fixed)";
    ];
  T.print ~csv:"results/fig4_6_census.csv" table;
  (* Figure 6's input: x^1 zero exactly at (1,1); x^2 all ones. *)
  let sl = QF.string_length p in
  let all = List.init sl Fun.id in
  let x1 = List.filter (fun j -> j <> QF.pair_index p ~m1:0 ~m2:0) all in
  let x = Commcx.Inputs.of_bit_lists ~k:sl [ x1; all ] in
  let inst = QF.instance p x in
  let gi = inst.Maxis_core.Family.graph in
  let added = Graph.edge_count gi - Graph.edge_count g in
  note "Figure 6 input: player 1 has one 0-bit at (1,1), player 2 none";
  note "input edges added: %d (paper: exactly 1, the edge v^(1,1)_1 -- v^(1,2)_1)" added;
  let e =
    Graph.has_edge gi
      (BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:0) ~m:0)
      (BG.a_node p ~offset:(QF.copy_offset p ~player:0 ~side:1) ~m:0)
  in
  note "that edge present: %s" (if e then "ok" else "FAIL");
  dump "figure5_F_t2" (Wgraph.Dot.to_dot ~name:"Figure5_F_t2" ~partition:part g);
  dump "figure6_Fx_t2"
    (Wgraph.Dot.to_dot ~name:"Figure6_Fx_t2" ~partition:inst.Maxis_core.Family.partition gi)

let run () =
  fig1 ();
  fig2 ();
  fig3 ();
  fig4_6 ()
