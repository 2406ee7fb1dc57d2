module Bitset = Stdx.Bitset

let bfs_distances g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  dist.(src) <- 0;
  let queue = Queue.create () in
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Bitset.iter
      (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
      (Graph.neighbors g u)
  done;
  dist

(* Max distance from [v]; [-1] if the graph is disconnected from it. *)
let eccentricity g v =
  let dist = bfs_distances g v in
  if Array.exists (fun d -> d < 0) dist then -1
  else Array.fold_left max 0 dist

let diameter g =
  let n = Graph.n g in
  if n <= 1 then 0
  else begin
    let d = ref 0 in
    (try
       for v = 0 to n - 1 do
         let e = eccentricity g v in
         if e < 0 then begin
           d := -1;
           raise Exit
         end;
         d := max !d e
       done
     with Exit -> ());
    !d
  end

let connected_components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let count = ref 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      let id = !count in
      incr count;
      let queue = Queue.create () in
      comp.(v) <- id;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Bitset.iter
          (fun w ->
            if comp.(w) < 0 then begin
              comp.(w) <- id;
              Queue.add w queue
            end)
          (Graph.neighbors g u)
      done
    end
  done;
  (comp, !count)

let is_connected g =
  Graph.n g <= 1 || snd (connected_components g) = 1

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun v ->
      let d = Graph.degree g v in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    g;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort compare

let density g =
  let n = Graph.n g in
  if n <= 1 then 0.0
  else
    float_of_int (Graph.edge_count g)
    /. (float_of_int n *. float_of_int (n - 1) /. 2.0)
