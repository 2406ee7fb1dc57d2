(** The `maxis_lb serve` wire protocol: newline-delimited JSON.

    One request per line, one reply line per request, replies in arrival
    order per connection.  Every request names an [op] and may carry an
    [id] (any JSON value), which the reply echoes verbatim — clients that
    pipeline correlate by id, clients that lockstep can ignore it.

    Requests:
    {v
    {"id":1,"op":"ping"}
    {"id":2,"op":"solve","alpha":1,"ell":4,"players":3,"seed":2020,
     "intersecting":false,"quadratic":false,"budget_nodes":100000}
    {"id":3,"op":"bounds","alpha":1,"ell":4,"players":3}
    {"id":4,"op":"claim-verify","ell":3,"players":2,"samples":1}
    {"id":5,"op":"stats"}
    v}

    Replies carry ["status"]: ["ok"] (with ["payload"], a printable
    string byte-identical to the offline CLI's answer for the same op),
    ["rejected"] (admission refused the request — overload or an
    over-ceiling budget; ["reason"] says which), or ["error"] (malformed
    request, unknown op, or a failure while serving; the connection
    survives).  Exactly one terminal reply per request, always.

    Field defaults mirror the CLI: [alpha=1], [ell=4], [players=3],
    [seed=2020], [samples=4], booleans false.  The full specification
    lives in docs/SERVING.md. *)

module J = Stdx.Jsonx

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** path to a Unix-domain stream socket *)
  | Tcp of string * int  (** host, port *)

val pp_addr : Format.formatter -> addr -> unit

val addr_of_string : string -> (addr, string) result
(** Parse ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (treated as a
    Unix socket).  Inverse of {!pp_addr}. *)

val sockaddr : addr -> Unix.sockaddr

(** {1 Requests} *)

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
      (** fault-injection hook: the daemon executes it as a worker-killing
          task ({!Exec.Pool.Chaos_kill}); refused unless the daemon was
          started with chaos ops enabled *)

val op_name : op -> string
(** The wire name: ["ping"], ["stats"], ["solve"], ["bounds"],
    ["claim-verify"], ["chaos-kill"]. *)

type request = { id : J.t; op : op }

val encode_request : request -> string
(** One line (no trailing newline), every field explicit. *)

val decode_request : string -> (request, string) result
(** [Error reason] on anything that cannot be served: bad JSON, a
    non-object, a missing or unknown ["op"], malformed fields.  The
    reason is safe to echo into an error reply. *)

(** {1 Replies} *)

type reply =
  | Ok_reply of { id : J.t; op : string; payload : string }
  | Rejected of { id : J.t; op : string; reason : string }
  | Error_reply of { id : J.t; op : string; reason : string }

val reply_id : reply -> J.t
val reply_status : reply -> string  (** ["ok"] / ["rejected"] / ["error"] *)

val reply_payload : reply -> string option
(** The payload of an [Ok_reply]; [None] otherwise. *)

val reply_reason : reply -> string option

val encode_reply : reply -> string
val decode_reply : string -> (reply, string) result

(** {1 Request constructors} *)

val solve_defaults : solve_params
val verify_defaults : verify_params

val ping : ?id:J.t -> unit -> request
val stats : ?id:J.t -> unit -> request
val solve : ?id:J.t -> solve_params -> request
val bounds : ?id:J.t -> alpha:int -> ell:int -> players:int -> unit -> request
val claim_verify : ?id:J.t -> verify_params -> request
val chaos_kill : ?id:J.t -> unit -> request
