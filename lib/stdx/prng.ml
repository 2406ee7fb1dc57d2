(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators" (OOPSLA 2014).  The 64-bit state lives in an 8-byte
   [Bytes.t], read and written with [get/set_int64_ne]: a [mutable int64]
   field would box every new state, and with [mix] and [int64] inlined
   the draws below keep their intermediates unboxed, so [int] and [bool]
   allocate nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state z =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 z;
  g

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] int64 g =
  let z = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 z;
  mix z

let split g = of_state (int64 g)

let bits g = Int64.to_int (Int64.shift_right_logical (int64 g) 34)

(* The top 62 bits of the next output, as a non-negative int. *)
let[@inline] draw62 g = Int64.to_int (Int64.shift_right_logical (int64 g) 2)

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits keeps the distribution exactly
     uniform. *)
  let r = ref (draw62 g) in
  while !r - (!r mod bound) > max_int - bound + 1 do
    r := draw62 g
  done;
  !r mod bound

let bool g = Int64.to_int (int64 g) land 1 = 1

let float g x =
  let r = Int64.to_float (Int64.shift_right_logical (int64 g) 11) in
  x *. (r /. 9007199254740992.0 (* 2^53 *))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick g a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int g (Array.length a))

let sample_without_replacement g n m =
  if m < 0 || m > n then invalid_arg "Prng.sample_without_replacement";
  (* Floyd's algorithm: m iterations, set-backed. *)
  let module S = Set.Make (Int) in
  let s = ref S.empty in
  for j = n - m to n - 1 do
    let r = int g (j + 1) in
    if S.mem r !s then s := S.add j !s else s := S.add r !s
  done;
  S.elements !s
