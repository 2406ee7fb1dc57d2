let to_string ?comment ?partition g =
  let buf = Buffer.create 4096 in
  (match comment with
  | Some c ->
      String.split_on_char '\n' c
      |> List.iter (fun line -> Buffer.add_string buf ("c " ^ line ^ "\n"))
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "p edge %d %d\n" (Graph.n g) (Graph.edge_count g));
  (match partition with
  | Some part ->
      Array.iteri
        (fun v p ->
          Buffer.add_string buf (Printf.sprintf "c partition %d %d\n" (v + 1) p))
        part
  | None -> ());
  for v = 0 to Graph.n g - 1 do
    if Graph.weight g v <> 1 then
      Buffer.add_string buf (Printf.sprintf "n %d %d\n" (v + 1) (Graph.weight g v))
  done;
  Graph.iter_edges
    (fun u v -> Buffer.add_string buf (Printf.sprintf "e %d %d\n" (u + 1) (v + 1)))
    g;
  Buffer.contents buf

let write_file path ?comment ?partition g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string ?comment ?partition g))

let parse text =
  let graph = ref None in
  let partition : (int * int * int) list ref = ref [] in
  let fail lineno msg = failwith (Printf.sprintf "Dimacs.parse: line %d: %s" lineno msg) in
  let get lineno =
    match !graph with
    | Some g -> g
    | None -> fail lineno "edge/node line before the p line"
  in
  let words line =
    String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
  in
  let int_of lineno s =
    match int_of_string_opt s with
    | Some i -> i
    | None -> fail lineno (Printf.sprintf "expected an integer, got %S" s)
  in
  (* A 1-based node number on the page, as a 0-based index below [n]. *)
  let node lineno n v =
    if v < 1 || v > n then
      fail lineno (Printf.sprintf "node %d out of range [1, %d]" v n);
    v - 1
  in
  String.split_on_char '\n' text
  |> List.iteri (fun idx line ->
         let lineno = idx + 1 in
         match words line with
         | [] -> ()
         | "c" :: rest -> (
             match rest with
             | [ "partition"; v; p ] ->
                 partition := (lineno, int_of lineno v, int_of lineno p) :: !partition
             | _ -> ())
         | [ "p"; "edge"; n; _m ] ->
             if !graph <> None then fail lineno "duplicate p line";
             let n = int_of lineno n in
             if n < 0 then fail lineno (Printf.sprintf "negative node count %d" n);
             graph := Some (Graph.create n)
         | [ "n"; v; w ] ->
             let g = get lineno in
             let v = node lineno (Graph.n g) (int_of lineno v)
             and w = int_of lineno w in
             if w < 0 then fail lineno (Printf.sprintf "negative weight %d" w);
             Graph.set_weight g v w
         | [ "e"; u; v ] ->
             let g = get lineno in
             let u = node lineno (Graph.n g) (int_of lineno u)
             and v = node lineno (Graph.n g) (int_of lineno v) in
             if u = v then fail lineno (Printf.sprintf "self-loop on node %d" (u + 1));
             Graph.add_edge g u v
         | w :: _ -> fail lineno (Printf.sprintf "unknown record %S" w));
  match !graph with
  | None -> failwith "Dimacs.parse: no p line"
  | Some g ->
      let part =
        match !partition with
        | [] -> None
        | entries ->
            let arr = Array.make (Graph.n g) 0 in
            List.iter
              (fun (lineno, v, p) -> arr.(node lineno (Graph.n g) v) <- p)
              entries;
            Some arr
      in
      (g, part)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      parse (really_input_string ic len))
