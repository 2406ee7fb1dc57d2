type align = Left | Right

type column = { title : string; align : align }

let column ?(align = Right) title = { title; align }

type t = { columns : column array; mutable rows : string list list }

let create columns = { columns = Array.of_list columns; rows = [] }

let add_row t row =
  if List.length row <> Array.length t.columns then
    invalid_arg
      (Printf.sprintf "Tablefmt.add_row: expected %d cells, got %d"
         (Array.length t.columns) (List.length row));
  t.rows <- row :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let rows = List.rev t.rows in
  let ncols = Array.length t.columns in
  let widths = Array.map (fun c -> String.length c.title) t.columns in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let buf = Buffer.create 256 in
  let emit_row cells =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        Buffer.add_string buf (pad t.columns.(i).align widths.(i) cell);
        if i < ncols - 1 then Buffer.add_string buf " | ")
      cells;
    Buffer.add_string buf " |\n"
  in
  emit_row (Array.to_list (Array.map (fun c -> c.title) t.columns));
  Buffer.add_string buf "|";
  Array.iteri
    (fun i w ->
      Buffer.add_string buf (String.make (w + 2) '-');
      if i < ncols - 1 then Buffer.add_string buf "|")
    widths;
  Buffer.add_string buf "|\n";
  List.iter emit_row rows;
  Buffer.contents buf

let csv_cell s =
  let needs_quoting =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') s
  in
  if not needs_quoting then s
  else
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf

let to_csv t =
  let buf = Buffer.create 256 in
  let emit cells =
    Buffer.add_string buf (String.concat "," (List.map csv_cell cells));
    Buffer.add_char buf '\n'
  in
  emit (Array.to_list (Array.map (fun c -> c.title) t.columns));
  List.iter emit (List.rev t.rows);
  Buffer.contents buf

(* A crash, kill or reader racing the writer must never observe a
   half-written CSV.  All I/O goes through [fs] so the chaos suite can
   inject filesystem faults under the atomicity claim. *)
let write_csv ?(fs = Fsio.real) t path =
  let dir = Filename.dirname path in
  if dir <> "." && not (fs.Fsio.file_exists dir) then fs.Fsio.mkdir dir;
  Fsio.write_atomic ~fs path (to_csv t)

let print ?title ?csv ?fs t =
  (match title with
  | Some s -> Printf.printf "\n== %s ==\n" s
  | None -> ());
  print_string (render t);
  match csv with None -> () | Some path -> write_csv ?fs t path

let cell_int = string_of_int
let cell_float ?(decimals = 3) f = Printf.sprintf "%.*f" decimals f
let cell_ratio f = Printf.sprintf "%.4f" f
let cell_bool b = if b then "ok" else "FAIL"
