type entry = {
  source : string;
  ratio : float;
  rounds : n:float -> float;
  description : string;
}

let log2 = Stdx.Mathx.log2

let bachrach_linear =
  {
    source = "Bachrach et al. PODC 2019";
    ratio = 5.0 /. 6.0;
    rounds = (fun ~n -> n /. (log2 n ** 6.0));
    description = "(5/6+eps)-approx MaxIS needs Omega(n/log^6 n)";
  }

let bachrach_quadratic =
  {
    source = "Bachrach et al. PODC 2019";
    ratio = 7.0 /. 8.0;
    rounds = (fun ~n -> n *. n /. (log2 n ** 7.0));
    description = "(7/8+eps)-approx MaxIS needs Omega(n^2/log^7 n)";
  }

(* Exact MaxIS needs Ω(n² / log² n); exported only through [all]. *)
let censor_hillel_exact =
  {
    source = "Censor-Hillel, Khoury, Paz DISC 2017";
    ratio = 1.0;
    rounds = (fun ~n -> n *. n /. (log2 n ** 2.0));
    description = "exact MaxIS needs Omega(n^2/log^2 n)";
  }

let this_paper_linear =
  {
    source = "this paper, Theorem 1";
    ratio = 0.5;
    rounds = (fun ~n -> n /. (log2 n ** 3.0));
    description = "(1/2+eps)-approx MaxIS needs Omega(n/log^3 n)";
  }

let this_paper_quadratic =
  {
    source = "this paper, Theorem 2";
    ratio = 0.75;
    rounds = (fun ~n -> n *. n /. (log2 n ** 3.0));
    description = "(3/4+eps)-approx MaxIS needs Omega(n^2/log^3 n)";
  }

let all =
  [
    censor_hillel_exact;
    bachrach_linear;
    bachrach_quadratic;
    this_paper_linear;
    this_paper_quadratic;
  ]

let improvement_factor ~old_bound ~new_bound ~n =
  new_bound.rounds ~n /. old_bound.rounds ~n
