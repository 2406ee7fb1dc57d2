module Bitset = Stdx.Bitset
module Dynvec = Stdx.Dynvec

type t = {
  size : int;
  xadj : int array;  (* length size+1; row v is adj.[xadj.(v) .. xadj.(v+1)) *)
  adj : int array;  (* each row sorted ascending, duplicates removed *)
  weights : int array;
  labels : string array option;  (* None: every label is the node index *)
}

let n g = g.size

let check g v =
  if v < 0 || v >= g.size then
    invalid_arg (Printf.sprintf "Csr: node %d out of range [0, %d)" v g.size)

(* ------------------------------------------------------------------ *)
(* Builder *)

module Builder = struct
  type csr = t

  type t = {
    b_size : int;
    e_src : int Dynvec.t;
    e_dst : int Dynvec.t;
    b_weights : int array;
    mutable b_labels : string array option;
  }

  let create ?(default_weight = 1) size =
    if size < 0 then invalid_arg "Csr.Builder.create: negative size";
    if default_weight < 0 then invalid_arg "Csr.Builder.create: negative weight";
    {
      b_size = size;
      e_src = Dynvec.create ();
      e_dst = Dynvec.create ();
      b_weights = Array.make size default_weight;
      b_labels = None;
    }

  let check b v =
    if v < 0 || v >= b.b_size then
      invalid_arg
        (Printf.sprintf "Csr.Builder: node %d out of range [0, %d)" v b.b_size)

  let add_edge b u v =
    check b u;
    check b v;
    if u = v then invalid_arg "Csr.Builder.add_edge: self-loop";
    Dynvec.push b.e_src u;
    Dynvec.push b.e_dst v

  let set_weight b v w =
    check b v;
    if w < 0 then invalid_arg "Csr.Builder.set_weight: negative weight";
    b.b_weights.(v) <- w

  let set_label b v s =
    check b v;
    let labels =
      match b.b_labels with
      | Some l -> l
      | None ->
          let l = Array.init b.b_size string_of_int in
          b.b_labels <- Some l;
          l
    in
    labels.(v) <- s

  (* Every row comes out ascending without a comparison.  Row v of
     [adj] splits at [split.(v)] into a lower part (neighbours < v) and
     an upper part (neighbours > v).  Each edge first parks its larger
     endpoint, unsorted, in the upper part of its smaller endpoint's
     row, filled from the row's end down — which leaves [split] at the
     boundary.  Walking v ascending over those parked entries appends v
     to the lower part of each neighbour, so every lower part is
     ascending; walking x ascending over the sorted lower parts then
     rewrites every upper part in ascending order.  Duplicate edges
     come out adjacent. *)
  let finish b : csr =
    let size = b.b_size in
    let ne = Dynvec.length b.e_src in
    let xadj = Array.make (size + 1) 0 in
    for i = 0 to ne - 1 do
      let u = Dynvec.get b.e_src i and v = Dynvec.get b.e_dst i in
      xadj.(u + 1) <- xadj.(u + 1) + 1;
      xadj.(v + 1) <- xadj.(v + 1) + 1
    done;
    for v = 0 to size - 1 do
      xadj.(v + 1) <- xadj.(v + 1) + xadj.(v)
    done;
    let adj = Array.make (max xadj.(size) 1) 0 in
    let split = Array.sub xadj 1 size in
    for i = 0 to ne - 1 do
      let u = Dynvec.get b.e_src i and v = Dynvec.get b.e_dst i in
      let lo = if u < v then u else v and hi = if u < v then v else u in
      split.(lo) <- split.(lo) - 1;
      adj.(split.(lo)) <- hi
    done;
    let fill = Array.sub xadj 0 size in
    for v = 0 to size - 1 do
      for r = split.(v) to xadj.(v + 1) - 1 do
        let hi = adj.(r) in
        adj.(fill.(hi)) <- v;
        fill.(hi) <- fill.(hi) + 1
      done
    done;
    (* Now [fill = split]: every upper part is free to rewrite. *)
    for x = 0 to size - 1 do
      for r = xadj.(x) to split.(x) - 1 do
        let lo = adj.(r) in
        adj.(fill.(lo)) <- x;
        fill.(lo) <- fill.(lo) + 1
      done
    done;
    (* Compact duplicates in one sweep.  [w] chases [r] through the
       whole array; xadj is rewritten as rows close. *)
    let w = ref 0 in
    let xadj' = Array.make (size + 1) 0 in
    for v = 0 to size - 1 do
      let lo = xadj.(v) and hi = xadj.(v + 1) in
      xadj'.(v) <- !w;
      let prev = ref (-1) in
      for r = lo to hi - 1 do
        if adj.(r) <> !prev then begin
          prev := adj.(r);
          adj.(!w) <- adj.(r);
          incr w
        end
      done
    done;
    xadj'.(size) <- !w;
    let adj =
      if !w = Array.length adj then adj else Array.sub adj 0 (max !w 1)
    in
    {
      size;
      xadj = xadj';
      adj;
      weights = Array.copy b.b_weights;
      labels = Option.map Array.copy b.b_labels;
    }
end

(* ------------------------------------------------------------------ *)
(* Conversion *)

let of_graph g =
  let size = Graph.n g in
  let xadj = Array.make (size + 1) 0 in
  for v = 0 to size - 1 do
    xadj.(v + 1) <- xadj.(v) + Graph.degree g v
  done;
  let adj = Array.make (max xadj.(size) 1) 0 in
  let pos = ref 0 in
  for v = 0 to size - 1 do
    Bitset.iter
      (fun u ->
        adj.(!pos) <- u;
        incr pos)
      (Graph.neighbors g v)
  done;
  let weights = Array.init size (Graph.weight g) in
  let labels = Array.init size (Graph.label g) in
  { size; xadj; adj; weights; labels = Some labels }

let to_graph c =
  let g = Graph.create c.size in
  for v = 0 to c.size - 1 do
    Graph.set_weight g v c.weights.(v)
  done;
  (match c.labels with
  | None -> ()
  | Some l ->
      for v = 0 to c.size - 1 do
        Graph.set_label g v l.(v)
      done);
  for v = 0 to c.size - 1 do
    for r = c.xadj.(v) to c.xadj.(v + 1) - 1 do
      let u = c.adj.(r) in
      if v < u then Graph.add_edge g v u
    done
  done;
  g

(* ------------------------------------------------------------------ *)
(* Accessors *)

let degree g v =
  check g v;
  g.xadj.(v + 1) - g.xadj.(v)

let max_degree g =
  let d = ref 0 in
  for v = 0 to g.size - 1 do
    d := max !d (g.xadj.(v + 1) - g.xadj.(v))
  done;
  !d

let edge_count g = g.xadj.(g.size) / 2

let has_edge g u v =
  check g u;
  check g v;
  let lo = ref g.xadj.(u) and hi = ref g.xadj.(u + 1) in
  let found = ref false in
  while !lo < !hi && not !found do
    let mid = (!lo + !hi) / 2 in
    let x = g.adj.(mid) in
    if x = v then found := true
    else if x < v then lo := mid + 1
    else hi := mid
  done;
  !found

let weight g v =
  check g v;
  g.weights.(v)

let total_weight g = Array.fold_left ( + ) 0 g.weights

let set_weight_of g s = Bitset.fold (fun v acc -> acc + weight g v) s 0

let label g v =
  check g v;
  match g.labels with None -> string_of_int v | Some l -> l.(v)

let neighbors_array g v =
  check g v;
  Array.sub g.adj g.xadj.(v) (g.xadj.(v + 1) - g.xadj.(v))

let rows g = (g.xadj, g.adj)

let iter_edges f g =
  for v = 0 to g.size - 1 do
    for r = g.xadj.(v) to g.xadj.(v + 1) - 1 do
      let u = g.adj.(r) in
      if v < u then f v u
    done
  done

let iter_nodes f g =
  for v = 0 to g.size - 1 do
    f v
  done

let equal a b =
  a.size = b.size
  && Array.for_all2 ( = ) a.weights b.weights
  && Array.for_all2 ( = ) a.xadj b.xadj
  && (a.xadj.(a.size) = 0 || Array.for_all2 ( = ) a.adj b.adj)

let reweight g f =
  { g with weights = Array.init g.size f }

let resident_words g =
  Array.length g.xadj + Array.length g.adj + Array.length g.weights
  + (match g.labels with
    | None -> 0
    | Some l -> Array.fold_left (fun acc s -> acc + 2 + (String.length s / 8)) 0 l)

let pp ppf g =
  Format.fprintf ppf "csr(n=%d, m=%d, W=%d, maxdeg=%d)" g.size (edge_count g)
    (total_weight g) (max_degree g)
