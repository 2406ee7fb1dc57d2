module J = Stdx.Jsonx

type addr = Unix_sock of string | Tcp of string * int

let pp_addr ppf = function
  | Unix_sock path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port

let addr_of_string s =
  let prefixed p =
    String.length s > String.length p
    && String.sub s 0 (String.length p) = p
  in
  if prefixed "unix:" then Ok (Unix_sock (String.sub s 5 (String.length s - 5)))
  else if prefixed "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s))
    | None -> Error (Printf.sprintf "bad tcp address %S (want tcp:HOST:PORT)" s)
  end
  else if s <> "" && not (String.contains s ':') then Ok (Unix_sock s)
  else Error (Printf.sprintf "bad address %S (want unix:PATH or tcp:HOST:PORT)" s)

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          (* First stream address of any family, so IPv6 literals and
             IPv6-only hosts resolve too; callers derive the socket
             domain from the returned sockaddr. *)
          match Unix.getaddrinfo host "" [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
          | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
          | _ -> raise (Netio.net_io "cannot resolve %s" host))
      in
      Unix.ADDR_INET (ip, port)

type solve_params = {
  alpha : int;
  ell : int;
  players : int;
  seed : int;
  intersecting : bool;
  quadratic : bool;
  budget_nodes : int option;
}

type verify_params = {
  v_alpha : int;
  v_ell : int;
  v_players : int;
  v_seed : int;
  v_samples : int;
  v_budget_nodes : int option;
}

type op =
  | Ping
  | Stats
  | Solve of solve_params
  | Bounds of { b_alpha : int; b_ell : int; b_players : int }
  | Claim_verify of verify_params
  | Chaos_kill

let op_name = function
  | Ping -> "ping"
  | Stats -> "stats"
  | Solve _ -> "solve"
  | Bounds _ -> "bounds"
  | Claim_verify _ -> "claim-verify"
  | Chaos_kill -> "chaos-kill"

type request = { id : J.t; op : op }

(* Field defaults mirror the CLI's cmdliner defaults, so a request that
   says nothing gets the same instance the bare CLI would build. *)
let solve_defaults =
  {
    alpha = 1;
    ell = 4;
    players = 3;
    seed = 2020;
    intersecting = false;
    quadratic = false;
    budget_nodes = None;
  }

let verify_defaults =
  {
    v_alpha = 1;
    v_ell = 4;
    v_players = 3;
    v_seed = 2020;
    v_samples = 4;
    v_budget_nodes = None;
  }

(* ------------------------------------------------------------------ *)
(* Encoding *)

let opt_nodes = function
  | None -> []
  | Some n -> [ ("budget_nodes", J.Int n) ]

let encode_request { id; op } =
  let fields =
    match op with
    | Ping | Stats | Chaos_kill -> []
    | Solve p ->
        [
          ("alpha", J.Int p.alpha);
          ("ell", J.Int p.ell);
          ("players", J.Int p.players);
          ("seed", J.Int p.seed);
          ("intersecting", J.Bool p.intersecting);
          ("quadratic", J.Bool p.quadratic);
        ]
        @ opt_nodes p.budget_nodes
    | Bounds { b_alpha; b_ell; b_players } ->
        [
          ("alpha", J.Int b_alpha);
          ("ell", J.Int b_ell);
          ("players", J.Int b_players);
        ]
    | Claim_verify p ->
        [
          ("alpha", J.Int p.v_alpha);
          ("ell", J.Int p.v_ell);
          ("players", J.Int p.v_players);
          ("seed", J.Int p.v_seed);
          ("samples", J.Int p.v_samples);
        ]
        @ opt_nodes p.v_budget_nodes
  in
  J.to_string (J.Obj ((("id", id) :: ("op", J.Str (op_name op)) :: fields)))

(* ------------------------------------------------------------------ *)
(* Decoding *)

let ( let* ) = Result.bind

let field_int j k ~default =
  match J.member k j with
  | None -> Ok default
  | Some v -> (
      match J.to_int v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S must be an integer" k))

let field_bool j k ~default =
  match J.member k j with
  | None -> Ok default
  | Some v -> (
      match J.to_bool v with
      | Some b -> Ok b
      | None -> Error (Printf.sprintf "field %S must be a boolean" k))

let field_nodes j =
  match J.member "budget_nodes" j with
  | None | Some J.Null -> Ok None
  | Some v -> (
      match J.to_int v with
      | Some i when i >= 1 -> Ok (Some i)
      | Some _ -> Error "field \"budget_nodes\" must be >= 1"
      | None -> Error "field \"budget_nodes\" must be an integer")

let decode_solve j =
  let d = solve_defaults in
  let* alpha = field_int j "alpha" ~default:d.alpha in
  let* ell = field_int j "ell" ~default:d.ell in
  let* players = field_int j "players" ~default:d.players in
  let* seed = field_int j "seed" ~default:d.seed in
  let* intersecting = field_bool j "intersecting" ~default:d.intersecting in
  let* quadratic = field_bool j "quadratic" ~default:d.quadratic in
  let* budget_nodes = field_nodes j in
  Ok (Solve { alpha; ell; players; seed; intersecting; quadratic; budget_nodes })

let decode_bounds j =
  let d = solve_defaults in
  let* b_alpha = field_int j "alpha" ~default:d.alpha in
  let* b_ell = field_int j "ell" ~default:d.ell in
  let* b_players = field_int j "players" ~default:d.players in
  Ok (Bounds { b_alpha; b_ell; b_players })

let decode_verify j =
  let d = verify_defaults in
  let* v_alpha = field_int j "alpha" ~default:d.v_alpha in
  let* v_ell = field_int j "ell" ~default:d.v_ell in
  let* v_players = field_int j "players" ~default:d.v_players in
  let* v_seed = field_int j "seed" ~default:d.v_seed in
  let* v_samples = field_int j "samples" ~default:d.v_samples in
  let* v_budget_nodes = field_nodes j in
  Ok (Claim_verify { v_alpha; v_ell; v_players; v_seed; v_samples; v_budget_nodes })

let decode_request line =
  match J.parse line with
  | Error e -> Error ("bad json: " ^ e)
  | Ok (J.Obj _ as j) -> (
      let id = Option.value (J.member "id" j) ~default:J.Null in
      match J.mem_str "op" j with
      | None -> Error "missing or non-string \"op\""
      | Some name ->
          let* op =
            match name with
            | "ping" -> Ok Ping
            | "stats" -> Ok Stats
            | "solve" -> decode_solve j
            | "bounds" -> decode_bounds j
            | "claim-verify" -> decode_verify j
            | "chaos-kill" -> Ok Chaos_kill
            | other -> Error (Printf.sprintf "unknown op %S" other)
          in
          Ok { id; op })
  | Ok _ -> Error "request must be a json object"

(* ------------------------------------------------------------------ *)
(* Replies *)

type reply =
  | Ok_reply of { id : J.t; op : string; payload : string }
  | Rejected of { id : J.t; op : string; reason : string }
  | Error_reply of { id : J.t; op : string; reason : string }

let reply_id = function
  | Ok_reply { id; _ } | Rejected { id; _ } | Error_reply { id; _ } -> id

let reply_op = function
  | Ok_reply { op; _ } | Rejected { op; _ } | Error_reply { op; _ } -> op

let reply_status = function
  | Ok_reply _ -> "ok"
  | Rejected _ -> "rejected"
  | Error_reply _ -> "error"

let reply_payload = function Ok_reply { payload; _ } -> Some payload | _ -> None

let reply_reason = function
  | Rejected { reason; _ } | Error_reply { reason; _ } -> Some reason
  | Ok_reply _ -> None

let encode_reply r =
  let tail =
    match r with
    | Ok_reply { payload; _ } -> [ ("payload", J.Str payload) ]
    | Rejected { reason; _ } | Error_reply { reason; _ } ->
        [ ("reason", J.Str reason) ]
  in
  J.to_string
    (J.Obj
       ([
          ("id", reply_id r);
          ("op", J.Str (reply_op r));
          ("status", J.Str (reply_status r));
        ]
       @ tail))

let decode_reply line =
  match J.parse line with
  | Error e -> Error ("bad json: " ^ e)
  | Ok (J.Obj _ as j) -> (
      let id = Option.value (J.member "id" j) ~default:J.Null in
      let op = Option.value (J.mem_str "op" j) ~default:"?" in
      match J.mem_str "status" j with
      | Some "ok" -> (
          match J.mem_str "payload" j with
          | Some payload -> Ok (Ok_reply { id; op; payload })
          | None -> Error "ok reply without \"payload\"")
      | Some "rejected" ->
          Ok
            (Rejected
               { id; op; reason = Option.value (J.mem_str "reason" j) ~default:"" })
      | Some "error" ->
          Ok
            (Error_reply
               { id; op; reason = Option.value (J.mem_str "reason" j) ~default:"" })
      | Some other -> Error (Printf.sprintf "unknown status %S" other)
      | None -> Error "missing \"status\"")
  | Ok _ -> Error "reply must be a json object"

(* ------------------------------------------------------------------ *)
(* Constructors *)

let ping ?(id = J.Null) () = { id; op = Ping }
let stats ?(id = J.Null) () = { id; op = Stats }
let solve ?(id = J.Null) p = { id; op = Solve p }

let bounds ?(id = J.Null) ~alpha ~ell ~players () =
  { id; op = Bounds { b_alpha = alpha; b_ell = ell; b_players = players } }

let claim_verify ?(id = J.Null) p = { id; op = Claim_verify p }
let chaos_kill ?(id = J.Null) () = { id; op = Chaos_kill }
