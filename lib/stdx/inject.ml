let is_prob p = p >= 0.0 && p <= 1.0 (* false on NaN too *)

let check_prob ~what name p =
  if not (is_prob p) then
    invalid_arg (Printf.sprintf "%s: %s=%g not a probability" what name p)

type t = {
  kinds : string array;
  counts : int array;  (* indexed like [kinds] *)
  prng : Prng.t;
  mu : Mutex.t;
}

let create ~kinds seed =
  {
    kinds;
    counts = Array.make (Array.length kinds) 0;
    prng = Prng.create seed;
    mu = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let faults_injected t =
  locked t (fun () ->
      List.filter
        (fun (_, c) -> c > 0)
        (List.combine (Array.to_list t.kinds) (Array.to_list t.counts)))

let total_injected t = locked t (fun () -> Array.fold_left ( + ) 0 t.counts)

(* All stream consumption happens under the mutex so concurrent callers
   cannot tear the splitmix state.  Every nonzero-probability kind takes
   its draw whether or not an earlier kind fired, and every positive
   bound takes its draw whatever fired: the stream position then depends
   only on the operation sequence, not on which faults happened to
   fire. *)
let draw t ?(on_fault = ignore) probs ~bounds =
  let fired, aux =
    locked t (fun () ->
        let fired =
          List.fold_left
            (fun first (kind, p) ->
              let hit = p > 0.0 && Prng.float t.prng 1.0 < p in
              if hit && first = None then Some kind else first)
            None probs
        in
        let aux = Array.map (fun b -> if b > 0 then Prng.int t.prng b else 0) bounds in
        Option.iter
          (fun kind ->
            let rec index i = if t.kinds.(i) = kind then i else index (i + 1) in
            let i = index 0 in
            t.counts.(i) <- t.counts.(i) + 1)
          fired;
        (fired, aux))
  in
  Option.iter on_fault fired;
  (fired, aux)
