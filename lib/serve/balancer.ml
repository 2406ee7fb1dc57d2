(* Failover is safe to do by blind re-send because every serve op is
   idempotent and cache-keyed: the same request line yields the same
   payload bytes on any replica (the byte-parity contract in Serve.Ops),
   and a request that died mid-flight at worst warmed a cache.  So the
   balancer's job reduces to picking a live replica — the breakers exist
   to stop paying connect timeouts to one that is down. *)

type state = Closed | Open | Half_open

let state_name = function
  | Closed -> "closed"
  | Open -> "open"
  | Half_open -> "half-open"

type endpoint = {
  addr : Proto.addr;
  mutable client : Client.t option;
  mutable state : state;
  mutable failures : int;  (* consecutive *)
  mutable open_until : float;
}

type t = {
  endpoints : endpoint array;
  clock : unit -> float;
  cooldown_s : float;
  failure_threshold : int;
  connect_retries : int;
  netio : Netio.t;
  mutable rr : int;  (* round-robin cursor *)
}

let m_failovers = Obs.Metrics.counter "balancer_failovers_total"

let m_transition to_ =
  Obs.Metrics.counter ~labels:[ ("to", to_) ] "balancer_breaker_transitions_total"

let create ?(clock = Unix.gettimeofday) ?(cooldown_s = 1.0)
    ?(failure_threshold = 3) ?(connect_retries = 2) ?(netio = Netio.real) addrs =
  if addrs = [] then invalid_arg "Serve.Balancer.create: no endpoints";
  if failure_threshold < 1 then
    invalid_arg "Serve.Balancer.create: failure_threshold must be >= 1";
  {
    endpoints =
      Array.of_list
        (List.map
           (fun addr ->
             { addr; client = None; state = Closed; failures = 0; open_until = 0.0 })
           addrs);
    clock;
    cooldown_s;
    failure_threshold;
    connect_retries;
    netio;
    rr = 0;
  }

let endpoints t = Array.to_list (Array.map (fun e -> e.addr) t.endpoints)

let states t =
  Array.to_list (Array.map (fun e -> (e.addr, state_name e.state)) t.endpoints)

let transition ep to_ =
  if ep.state <> to_ then begin
    ep.state <- to_;
    Obs.Metrics.inc (m_transition (state_name to_))
  end

let drop_client ep =
  match ep.client with
  | None -> ()
  | Some c ->
      ep.client <- None;
      Client.close c

let record_success ep =
  ep.failures <- 0;
  transition ep Closed

(* A Half_open probe failing re-opens immediately; a Closed endpoint
   opens after [failure_threshold] consecutive failures — transient
   single faults (one injected reset) do not condemn a healthy replica. *)
let record_failure t ep =
  ep.failures <- ep.failures + 1;
  drop_client ep;
  if ep.state = Half_open || ep.failures >= t.failure_threshold then begin
    ep.open_until <- t.clock () +. t.cooldown_s;
    transition ep Open
  end

(* An Open breaker past its cooldown admits one probe (Half_open). *)
let usable t ep =
  match ep.state with
  | Closed | Half_open -> true
  | Open ->
      if t.clock () >= ep.open_until then begin
        transition ep Half_open;
        true
      end
      else false

let client_of t ep =
  match ep.client with
  | Some c -> c
  | None ->
      let c = Client.connect ~retries:t.connect_retries ~netio:t.netio ep.addr in
      ep.client <- Some c;
      c

let attempt t ep req =
  let c = client_of t ep in
  Client.request c req

(* Endpoints in round-robin order starting at the cursor (advanced per
   request, so load spreads across healthy replicas). *)
let rotation t =
  let n = Array.length t.endpoints in
  let start = t.rr in
  t.rr <- (t.rr + 1) mod n;
  List.init n (fun i -> t.endpoints.((start + i) mod n))

let request t req =
  let order = rotation t in
  let last_err = ref "" in
  let try_one ep ~rest_available k =
    match attempt t ep req with
    | reply ->
        record_success ep;
        Some reply
    | exception Exec.Error.Error (Exec.Error.Net_io m) ->
        last_err := Format.asprintf "%a: %s" Proto.pp_addr ep.addr m;
        record_failure t ep;
        if rest_available then Obs.Metrics.inc m_failovers;
        k ()
  in
  let rec pass1 = function
    | [] -> None
    | ep :: rest ->
        if usable t ep then
          try_one ep
            ~rest_available:(rest <> [] || List.exists (fun e -> e.state = Open) order)
            (fun () -> pass1 rest)
        else pass1 rest
  and pass2 = function
    (* Desperation: every usable endpoint failed, so breakers stop
       mattering — a wrong "open" verdict must not turn a degraded
       fleet into an outage.  Try the still-open ones anyway. *)
    | [] -> None
    | ep :: rest ->
        if ep.state = Open then
          try_one ep ~rest_available:(rest <> []) (fun () -> pass2 rest)
        else pass2 rest
  in
  match pass1 order with
  | Some reply -> reply
  | None -> (
      match pass2 order with
      | Some reply -> reply
      | None ->
          raise
            (Netio.net_io "all %d replica(s) unavailable (last: %s)"
               (Array.length t.endpoints)
               (if !last_err = "" then "no endpoint attempted" else !last_err)))

let check_health t =
  Array.to_list
    (Array.map
       (fun ep ->
         let ok =
           match attempt t ep (Proto.ping ()) with
           | reply ->
               let healthy = Proto.reply_status reply = "ok" in
               if healthy then record_success ep else record_failure t ep;
               healthy
           | exception Exec.Error.Error (Exec.Error.Net_io _) ->
               record_failure t ep;
               false
         in
         (ep.addr, ok))
       t.endpoints)

let close t = Array.iter drop_client t.endpoints
