(* One escaper for the whole repository: the serving layer parses what
   we print, so both sides share Stdx.Jsonx's idea of a legal JSON
   string (byte-identical to the escaper that used to live here). *)
let json_escape = Stdx.Jsonx.escape

(* Counters and gauges hold integers; render them without a fraction so
   the export is grep-friendly ("value":3, not 3.).  Histogram sums can
   be fractional. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let le_label le = if le = infinity then "+inf" else num le

let kind_name = function
  | Metrics.Counter -> "counter"
  | Metrics.Gauge -> "gauge"
  | Metrics.Histogram -> "histogram"

let jsonl snap =
  let b = Buffer.create 1024 in
  List.iter
    (fun (s : Metrics.sample) ->
      Buffer.add_string b
        (Printf.sprintf "{\"name\":\"%s\",\"labels\":{%s},\"type\":\"%s\",\"value\":%s"
           (json_escape s.Metrics.name)
           (String.concat ","
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
                 s.Metrics.labels))
           (kind_name s.Metrics.kind)
           (num s.Metrics.value));
      if s.Metrics.kind = Metrics.Histogram then
        Buffer.add_string b
          (Printf.sprintf ",\"sum\":%s,\"buckets\":{%s}"
             (num s.Metrics.sum)
             (String.concat ","
                (List.map
                   (fun (le, c) -> Printf.sprintf "\"%s\":%d" (le_label le) c)
                   s.Metrics.buckets)));
      Buffer.add_string b "}\n")
    snap;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let prom_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let prom_labels = function
  | [] -> ""
  | labels ->
      Printf.sprintf "{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v))
              labels))

let prometheus snap =
  let b = Buffer.create 1024 in
  let last_typed = ref "" in
  List.iter
    (fun (s : Metrics.sample) ->
      if s.Metrics.name <> !last_typed then begin
        Buffer.add_string b
          (Printf.sprintf "# TYPE %s %s\n" s.Metrics.name (kind_name s.Metrics.kind));
        last_typed := s.Metrics.name
      end;
      match s.Metrics.kind with
      | Metrics.Counter | Metrics.Gauge ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" s.Metrics.name
               (prom_labels s.Metrics.labels)
               (num s.Metrics.value))
      | Metrics.Histogram ->
          List.iter
            (fun (le, c) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" s.Metrics.name
                   (prom_labels (s.Metrics.labels @ [ ("le", le_label le) ]))
                   c))
            s.Metrics.buckets;
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" s.Metrics.name
               (prom_labels s.Metrics.labels)
               (num s.Metrics.sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %s\n" s.Metrics.name
               (prom_labels s.Metrics.labels)
               (num s.Metrics.value)))
    snap;
  Buffer.contents b

(* ------------------------------------------------------------------ *)

let table snap =
  let open Stdx.Tablefmt in
  let t =
    create [ column ~align:Left "metric"; column ~align:Left "labels";
             column ~align:Left "type"; column "value" ]
  in
  List.iter
    (fun (s : Metrics.sample) ->
      add_row t
        [
          s.Metrics.name;
          String.concat ","
            (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) s.Metrics.labels);
          kind_name s.Metrics.kind;
          (if s.Metrics.kind = Metrics.Histogram then
             Printf.sprintf "n=%s sum=%s" (num s.Metrics.value) (num s.Metrics.sum)
           else num s.Metrics.value);
        ])
    snap;
  render t

(* ------------------------------------------------------------------ *)

(* All export I/O goes through Stdx.Fsio so the chaos suite can inject
   filesystem faults under the atomic-write claim. *)
let write ?(fs = Stdx.Fsio.real) path contents =
  Stdx.Fsio.mkdir_p ~fs (Filename.dirname path);
  Stdx.Fsio.write_atomic ~fs path contents

let write_jsonl ?fs path snap = write ?fs path (jsonl snap)

let spans_csv trees =
  let b = Buffer.create 256 in
  Buffer.add_string b "phase,wall_s,counts\n";
  List.iter
    (fun (path, wall, counts) ->
      Buffer.add_string b
        (Printf.sprintf "%s,%.6f,%s\n" path wall
           (String.concat ";"
              (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counts))))
    (Span.to_rows trees);
  Buffer.contents b
