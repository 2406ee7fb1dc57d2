(** Families of lower bound graphs (Definition 4).

    A family with respect to a function [f] and predicate [P] assigns to
    every input vector [x̄] a graph [G_x̄] with a node partition
    [V = ∪ᵢ Vⁱ] such that:

    + only the weights of nodes in [Vⁱ] and edges inside [Vⁱ × Vⁱ] depend
      on [xⁱ] (so player [i] can build its region alone), and
    + [G_x̄ ⊨ P  ⟺  f(x̄) = TRUE].

    Both conditions are machine-checkable and checked here: condition 1 by
    a differential test (vary one player's string, diff the graphs),
    condition 2 by exact MaxIS + the gap predicate. *)

type instance = {
  graph : Wgraph.Graph.t;
  partition : int array;  (** node ↦ owning player, in [0, t) *)
  params : Params.t;
}

type spec = {
  name : string;
  string_length : int;  (** the [k] (or [k²]) of the input strings *)
  players : int;
  build : Commcx.Inputs.t -> instance;
  predicate : Predicate.t;
  func : Commcx.Inputs.t -> bool;  (** the [f] being reduced from *)
}

val cut_size : instance -> int
(** [|cut(G_x̄)|]. *)

(** {1 Condition 1: locality of the input dependence} *)

type locality_report = {
  player_changed : int;
  foreign_weight_diffs : int list;  (** nodes outside Vⁱ whose weight changed *)
  foreign_edge_diffs : (int * int) list;
      (** edges not inside Vⁱ × Vⁱ whose presence changed *)
  ok : bool;
}

val check_condition1 :
  spec -> Commcx.Inputs.t -> Commcx.Inputs.t -> player:int -> locality_report
(** The two inputs must differ only in [player]'s string (raises
    [Invalid_argument] otherwise); the report lists any part of the graph
    outside that player's region that nevertheless changed.  Both
    instances are built first, so an input of the wrong shape raises
    [spec.build]'s own [Invalid_argument]. *)

(** {1 Condition 2: the predicate decides [f]} *)

type gap_report = {
  opt : int;
  verdict : Predicate.verdict;
  expected : bool;  (** [f(x̄)] *)
  decided : bool option;
  ok : bool;
}

val check_condition2 : spec -> Commcx.Inputs.t -> gap_report
(** Builds the instance (an input of the wrong shape raises
    [spec.build]'s own [Invalid_argument]), solves MaxIS exactly, and
    checks the predicate's answer equals [f(x̄)]. *)
