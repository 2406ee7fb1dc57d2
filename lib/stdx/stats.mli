(** Summary statistics over float samples.

    Used by the benchmark harness to report distributions (e.g. achieved
    approximation ratios over random promise inputs, blackboard bits over
    repeated simulations). *)

type summary = {
  n : int;
  mean : float;
  stddev : float;  (** sample standard deviation (n-1 denominator); 0 for n <= 1 *)
  min : float;
  max : float;
  median : float;
  p90 : float;  (** 90th percentile (nearest-rank) *)
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on an empty array. *)

val mean : float array -> float
val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,100], nearest-rank on a sorted copy.
    Sorting uses [Float.compare], so NaN samples order deterministically
    (below every number) instead of poisoning the sort. *)
