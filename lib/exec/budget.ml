(* A budget is deliberately stateless about *spend*: the solver owns its
   own node counter and asks [check t ~nodes] whether that counter is
   still affordable.  Keeping the tally caller-side is what keeps node
   budgets deterministic when one budget is shared by concurrent solves
   ([Verification.claim_checks] runs its claims on a pool under one
   budget) — each solve counts only its own nodes, so no scheduling
   order can leak into the answer.  The only shared mutable state is the
   cancellation token, which exists precisely for the *non*-deterministic
   budget (the wall-clock deadline): whichever domain notices the
   deadline first trips the token and every sibling stops at its next
   checkpoint. *)

type reason = Nodes | Deadline | Cancelled

type t = {
  max_nodes : int;  (* [max_int] = no node budget *)
  deadline : float;  (* absolute clock value; [infinity] = none *)
  clock : unit -> float;
  every : int;  (* clock/token checkpoint period, in nodes *)
  cancelled : bool Atomic.t;
}

let unlimited =
  {
    max_nodes = max_int;
    deadline = infinity;
    clock = (fun () -> 0.0);
    every = max_int;
    cancelled = Atomic.make false;
  }

let create ?max_nodes ?deadline_s ?(clock = Sys.time) ?(every = 256) () =
  (match max_nodes with
  | Some n when n < 1 -> invalid_arg "Exec.Budget.create: max_nodes must be >= 1"
  | _ -> ());
  if every < 1 then invalid_arg "Exec.Budget.create: every must be >= 1";
  {
    max_nodes = Option.value max_nodes ~default:max_int;
    deadline =
      (match deadline_s with
      | None -> infinity
      | Some s when s < 0.0 ->
          invalid_arg "Exec.Budget.create: deadline_s must be >= 0"
      | Some s -> clock () +. s);
    clock;
    every;
    cancelled = Atomic.make false;
  }

(* Neither cap set: behaves as [unlimited] (its token aside). *)
let is_unlimited t =
  t == unlimited || (t.max_nodes = max_int && t.deadline = infinity)

let cancel t = Atomic.set t.cancelled true

let cancelled t = Atomic.get t.cancelled

let check t ~nodes =
  if t == unlimited then None
  else if nodes > t.max_nodes then Some Nodes
  else if nodes mod t.every = 0 then
    if Atomic.get t.cancelled then Some Cancelled
    else if t.clock () > t.deadline then begin
      (* Trip the shared token so siblings sharing this budget stop at
         their own next checkpoint instead of running to their node
         limits. *)
      Atomic.set t.cancelled true;
      Some Deadline
    end
    else None
  else None

let reason_to_string = function
  | Nodes -> "nodes"
  | Deadline -> "deadline"
  | Cancelled -> "cancelled"

let pp ppf t =
  if is_unlimited t then Format.pp_print_string ppf "unlimited"
  else
    Format.fprintf ppf "nodes<=%s, deadline=%s"
      (if t.max_nodes = max_int then "inf" else string_of_int t.max_nodes)
      (if t.deadline = infinity then "none" else Printf.sprintf "%.3f" t.deadline)

let fingerprint t =
  if is_unlimited t then ""
  else
    Printf.sprintf "nodes=%s;deadline=%b"
      (if t.max_nodes = max_int then "inf" else string_of_int t.max_nodes)
      (t.deadline <> infinity)
