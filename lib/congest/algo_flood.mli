(** Max-id flooding and leader election.

    The simplest genuinely distributed CONGEST algorithm: every node floods
    the largest id it has seen; after [rounds] rounds (any value at least
    diameter+1; nodes know [n], so [n] always suffices) every node knows
    the global maximum.  Leader election falls out: the node whose own id
    equals the flooded maximum is the leader.

    Message size: one id = [⌈log₂ n⌉] bits, the canonical CONGEST message.
    Round complexity: [O(D)].  Works in both Unicast and Broadcast modes
    (all sends are uniform). *)

val max_id : rounds:int -> int Program.t
(** Output: the largest id the node knows after [rounds] rounds.  The
    list-mode form ({!Fastpath.to_program}) of {!Fastpath.max_id}. *)

val leader_election : rounds:int -> bool Program.t
(** Output: [true] iff this node is the unique leader. *)
