(** Machine checks of the paper's Claims 1–7 and Corollary 2.

    Every claim relates the structure of the input vector to the exact
    maximum independent set weight of a constructed instance; here each is
    a function from concrete inputs to a checked inequality.  The checks
    compute OPT with the exact solver — they are the executable versions of
    the paper's case analyses, and the test suite runs them over exhaustive
    small inputs and random promise inputs. *)

type check = {
  name : string;
  holds : bool;
  opt : int;  (** the measured quantity (usually exact OPT) *)
  bound : int;  (** the claimed bound *)
  kind : [ `Lower | `Upper ];
      (** [`Lower]: claim asserts [opt >= bound]; [`Upper]: [opt <= bound] *)
}

val claim1 : Params.t -> Commcx.Inputs.t -> check
(** t = 2, intersecting strings ⇒ the linear instance has an independent
    set of weight ≥ [4ℓ + 2α].  Raises [Invalid_argument] unless the
    params/inputs have exactly two players and the strings intersect. *)

val claim2 : Params.t -> Commcx.Inputs.t -> check
(** t = 2, disjoint strings ⇒ every independent set of the linear
    instance weighs ≤ [3ℓ + 2α + 1]. *)

val claim3 : Params.t -> Commcx.Inputs.t -> check
(** Any [t], all strings sharing an index ⇒ linear OPT ≥ [t(2ℓ + α)]. *)

val claim5 : Params.t -> Commcx.Inputs.t -> check
(** Any [t], pairwise-disjoint strings ⇒ linear OPT ≤ [(t+1)ℓ + αt²]. *)

val claim4 : Params.t -> ms:int array -> check
(** Claim 4, the cardinality core of Corollary 2: with every [vⁱ_{mᵢ}]
    forced into the independent set, the number of {e code} nodes any
    independent set can additionally hold in [∪ᵢ Codeⁱ_{mᵢ}] is at most
    [ℓ + αt²].  Measured by an exact cardinality MIS over the surviving
    code candidates.  Same argument conventions as {!corollary2}. *)

val corollary2 : Params.t -> ms:int array -> check
(** Corollary 2: on the {e fixed} construction with every [vⁱ_{mᵢ}] forced
    heavy and into the independent set (the [mᵢ] distinct), the best
    completion weighs ≤ [(t+1)ℓ + αt²].  [ms.(i)] is player [i]'s index;
    raises [Invalid_argument] unless they are distinct and of length
    [t]. *)

val claim6 : Params.t -> Commcx.Inputs.t -> check
(** Quadratic family, uniquely intersecting ⇒ OPT ≥ [4tℓ + 2αt]. *)

val claim7 : Params.t -> Commcx.Inputs.t -> check
(** Quadratic family, pairwise disjoint ⇒ OPT ≤ [3(t+1)ℓ + 3αt³]. *)

(** {1 Budgeted checks}

    Each [claimN_budgeted] runs the same check under an {!Exec.Budget}.
    When the solver completes (always, under {!Exec.Budget.unlimited})
    the outcome is [Decided] and identical to the unbudgeted check.  When
    the budget exhausts, the solver's certified interval [lb <= OPT <= ub]
    may still clear the claimed bound from one side — then the claim is
    [Decided] (with [opt] reporting the deciding interval end rather than
    the unknown true optimum) — otherwise it is [Unresolved], carrying
    the interval and the exhaustion reason. *)

type unresolved = {
  u_name : string;
  u_kind : [ `Lower | `Upper ];
  u_bound : int;
  lb : int;  (** certified: an incumbent independent set achieves it *)
  ub : int;  (** certified relaxation bound *)
  reason : Exec.Budget.reason;
}

type outcome = Decided of check | Unresolved of unresolved

val claim1_budgeted :
  budget:Exec.Budget.t -> Params.t -> Commcx.Inputs.t -> outcome

val claim2_budgeted :
  budget:Exec.Budget.t -> Params.t -> Commcx.Inputs.t -> outcome

val claim3_budgeted :
  budget:Exec.Budget.t -> Params.t -> Commcx.Inputs.t -> outcome

val claim5_budgeted :
  budget:Exec.Budget.t -> Params.t -> Commcx.Inputs.t -> outcome

val claim4_budgeted : budget:Exec.Budget.t -> Params.t -> ms:int array -> outcome

val corollary2_budgeted :
  budget:Exec.Budget.t -> Params.t -> ms:int array -> outcome

val claim6_budgeted :
  budget:Exec.Budget.t -> Params.t -> Commcx.Inputs.t -> outcome

val claim7_budgeted :
  budget:Exec.Budget.t -> Params.t -> Commcx.Inputs.t -> outcome

val pp : Format.formatter -> check -> unit
