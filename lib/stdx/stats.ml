type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  median : float;
  p90 : float;
}

let mean xs =
  if Array.length xs = 0 then invalid_arg "Stats.mean: empty";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let percentile xs p =
  if Array.length xs = 0 then invalid_arg "Stats.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  (* Float.compare, not polymorphic compare: a NaN-safe total order (NaN
     sorts below every number) with no boxing on the hot path. *)
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (rank - 1)))

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Stats.summarize: empty";
  let n = Array.length xs in
  let m = mean xs in
  let var =
    if n <= 1 then 0.0
    else
      Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
      /. float_of_int (n - 1)
  in
  {
    n;
    mean = m;
    stddev = sqrt var;
    min = Array.fold_left Stdlib.min xs.(0) xs;
    max = Array.fold_left Stdlib.max xs.(0) xs;
    median = percentile xs 50.0;
    p90 = percentile xs 90.0;
  }
