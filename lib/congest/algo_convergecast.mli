(** BFS-tree convergecast: aggregate a value at a root in [O(D)] rounds.

    The standard CONGEST aggregation primitive (and the building block the
    folklore "learn m, then gather" preprocessing would use): a BFS wave
    from the root fixes parents, children identify themselves one round
    later, and partial sums flow up as soon as every child has reported.

    Message sizes: a 2-bit tag plus a [value_width]-bit value, so the
    caller must pick [value_width] large enough for the total aggregate
    (e.g. [⌈log₂(Σw+1)⌉] for a weight sum) and small enough for the
    bandwidth budget ([value_width + 2 <= c·⌈log n⌉]).  Every [Program.t]
    below is the list-mode form of the kernel ({!Fastpath.to_program}). *)

val aggregate :
  name:string ->
  root:int ->
  value_width:int ->
  combine:(int -> int -> int) ->
  contribution:(id:int -> weight:int -> int) ->
  int Program.t
(** The general form: any commutative, associative [combine] whose values
    stay within [value_width] bits (sums, maxima, bitwise-or of flags,
    ...).  The root outputs the fold of [contribution ~id ~weight] over
    its component; correctness needs [combine] commutative/associative
    because subtree results arrive in arbitrary order. *)

val sum_of_weights_flat : root:int -> value_width:int -> int Fastpath.t
(** Every node contributes its weight; the root outputs the total weight
    of its connected component (other nodes output nothing).  Completes in
    [O(eccentricity root)] rounds; all nodes halt. *)

val sum_of_weights : root:int -> value_width:int -> int Program.t

val count_nodes : root:int -> value_width:int -> int Program.t
(** Contribution 1: the root outputs the size of its component. *)

val max_weight : root:int -> value_width:int -> int Program.t
(** The maximum node weight in the root's component. *)
