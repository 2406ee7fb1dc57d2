let log2 x = log x /. log 2.0

let ceil_log2 n =
  if n < 0 then invalid_arg "Mathx.ceil_log2";
  if n <= 1 then 0
  else
    let rec go bits v = if v >= n then bits else go (bits + 1) (v * 2) in
    go 0 1

let floor_log2 n =
  if n <= 0 then invalid_arg "Mathx.floor_log2";
  let rec go bits v = if v * 2 > n || v * 2 <= 0 then bits else go (bits + 1) (v * 2) in
  go 0 1

let pow b e =
  if e < 0 then invalid_arg "Mathx.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (acc * b) (b * b) (e asr 1)
    else go acc (b * b) (e asr 1)
  in
  go 1 b e

let isqrt n =
  if n < 0 then invalid_arg "Mathx.isqrt";
  if n < 2 then n
  else begin
    let r = ref (int_of_float (sqrt (float_of_int n))) in
    while !r * !r > n do
      decr r
    done;
    while (!r + 1) * (!r + 1) <= n do
      incr r
    done;
    !r
  end

let divide_round_up a b =
  if b <= 0 then invalid_arg "Mathx.divide_round_up";
  (a + b - 1) / b
