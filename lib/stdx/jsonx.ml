type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let max_depth = 128

(* ------------------------------------------------------------------ *)
(* Encoding *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest decimal that round-trips: try increasing precision instead
   of always paying 17 digits of noise. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = infinity then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string j =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            go x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            go v)
          fields;
        Buffer.add_char b '}'
  in
  go j;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Decoding: recursive descent over the raw bytes.  Errors unwind via a
   local exception carrying the byte offset; [parse] catches it. *)

exception Bad of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let bad msg = raise (Bad (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some d when d = c -> advance ()
    | _ -> bad (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      value
    end
    else bad (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then bad "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> bad "bad hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xc0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xe0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xf0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3f)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3f)))
    end
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then bad "unterminated string";
      match s.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents b
      | '\\' ->
          advance ();
          (if !pos >= n then bad "truncated escape";
           match s.[!pos] with
           | '"' -> advance (); Buffer.add_char b '"'
           | '\\' -> advance (); Buffer.add_char b '\\'
           | '/' -> advance (); Buffer.add_char b '/'
           | 'b' -> advance (); Buffer.add_char b '\b'
           | 'f' -> advance (); Buffer.add_char b '\012'
           | 'n' -> advance (); Buffer.add_char b '\n'
           | 'r' -> advance (); Buffer.add_char b '\r'
           | 't' -> advance (); Buffer.add_char b '\t'
           | 'u' ->
               advance ();
               let cp = hex4 () in
               let cp =
                 (* A high surrogate must be followed by \uDC00-\uDFFF;
                    combine the pair into one code point. *)
                 if cp >= 0xd800 && cp <= 0xdbff then begin
                   if
                     !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xdc00 || lo > 0xdfff then
                       bad "bad low surrogate";
                     0x10000 + ((cp - 0xd800) lsl 10) + (lo - 0xdc00)
                   end
                   else bad "lone high surrogate"
                 end
                 else if cp >= 0xdc00 && cp <= 0xdfff then
                   bad "lone low surrogate"
                 else cp
               in
               add_utf8 b cp
           | _ -> bad "unknown escape");
          go ()
      | c when Char.code c < 0x20 -> bad "raw control byte in string"
      | c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let digits () =
      let d0 = !pos in
      while
        !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false
      do
        advance ()
      done;
      !pos - d0
    in
    if peek () = Some '-' then advance ();
    if digits () = 0 then bad "bad number";
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      if digits () = 0 then bad "no digits after '.' in number"
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        if digits () = 0 then bad "no digits in exponent"
    | _ -> ());
    let lexeme = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lexeme with
      | Some f -> Float f
      | None -> bad "bad number"
    else
      match int_of_string_opt lexeme with
      | Some i -> Int i
      | None -> (
          (* out of int range; keep the value as a float *)
          match float_of_string_opt lexeme with
          | Some f -> Float f
          | None -> bad "bad number")
  in
  let rec value depth =
    if depth > max_depth then bad "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> bad "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec fields_loop () =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                fields_loop ()
            | Some '}' -> advance ()
            | _ -> bad "expected ',' or '}'"
          in
          fields_loop ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec items_loop () =
            let v = value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items_loop ()
            | Some ']' -> advance ()
            | _ -> bad "expected ',' or ']'"
          in
          items_loop ();
          Arr (List.rev !items)
        end
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> bad (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then bad "trailing bytes after document";
    v
  with
  | v -> Ok v
  | exception Bad (off, msg) ->
      Error (Printf.sprintf "%s at byte %d" msg off)
  (* Safety net for the never-raises contract: the daemon parses
     attacker-controlled bytes on its event loop, so no stdlib
     conversion failure may escape as an exception. *)
  | exception Failure msg -> Error (Printf.sprintf "bad document: %s" msg)

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let mem_str k j = Option.bind (member k j) to_str
let mem_int k j = Option.bind (member k j) to_int
let mem_bool k j = Option.bind (member k j) to_bool
