(* Randomized end-to-end soak: a compact fuzzing pass over the whole
   pipeline.  Each iteration draws parameters and promise inputs at random
   and cross-checks every layer against every other:

     - Claims 3/5 (linear) on the exact solver,
     - Definition 4's condition 2 when the formal gap is valid,
     - Property 3 on the exact optimum for random index pairs,
     - Claim 4 on a random distinct tuple,
     - the Player_sim / Runtime equivalence on Luby,
     - greedy's (Δ+1) guarantee and the bound sandwich.

   Iterations default to a CI-friendly count; set MAXIS_SOAK=<n> for long
   runs (e.g. MAXIS_SOAK=200 dune exec test/test_soak.exe).

   All randomness derives from a single root seed (MAXIS_SOAK_SEED,
   default 0x50ac) that is logged in the test-case name and in every
   failure label, so any reported failure reproduces from its own output:
   MAXIS_SOAK_SEED=<seed> re-runs the identical sequence. *)

module P = Maxis_core.Params
module LF = Maxis_core.Linear_family
module Family = Maxis_core.Family
module Graph = Wgraph.Graph
module Prng = Stdx.Prng

let iterations =
  match Sys.getenv_opt "MAXIS_SOAK" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 6)
  | None -> 6

let root_seed =
  match Sys.getenv_opt "MAXIS_SOAK_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0x50ac)
  | None -> 0x50ac

let check = Alcotest.(check bool)

let random_params rng =
  (* Keep instances solvable: alpha in {1,2}, small ell, t in {2,3}. *)
  let alpha = 1 + Prng.int rng 2 in
  let ell = if alpha = 1 then 3 + Prng.int rng 4 else 2 + Prng.int rng 2 in
  let players = 2 + Prng.int rng 2 in
  P.make ~alpha ~ell ~players

let soak_once rng iteration =
  let p = random_params rng in
  let t = p.P.players in
  let label fmt = Printf.ksprintf (fun s -> Printf.sprintf "seed %#x iter %d (%s): %s" root_seed iteration (Format.asprintf "%a" P.pp p) s) fmt in
  let intersecting = Prng.bool rng in
  let x = Commcx.Inputs.gen_promise rng ~k:(P.k p) ~t ~intersecting in
  let inst = LF.instance p x in
  let g = inst.Family.graph in
  let sol = Mis.Exact.solve g in
  let opt = sol.Mis.Exact.weight in
  (* solver self-consistency *)
  check (label "solution verifies") true
    (Mis.Verify.solution_ok g ~claimed_weight:opt sol.Mis.Exact.set);
  (* claims *)
  let claim =
    if intersecting then Maxis_core.Claims.claim3 p x
    else Maxis_core.Claims.claim5 p x
  in
  check (label "claim holds") true claim.Maxis_core.Claims.holds;
  (* condition 2 when the formal gap separates *)
  if LF.formal_gap_valid p then begin
    let r = Family.check_condition2 (LF.spec p) x in
    check (label "condition 2") true r.Family.ok
  end;
  (* Property 3 on the exact optimum, random pair *)
  if P.k p >= 2 && t >= 2 then begin
    let i = Prng.int rng t in
    let j = (i + 1 + Prng.int rng (t - 1)) mod t in
    let m1 = Prng.int rng (P.k p) in
    let m2 = (m1 + 1 + Prng.int rng (P.k p - 1)) mod (P.k p) in
    let r = Maxis_core.Properties.property3 p ~i ~j ~m1 ~m2 ~set:sol.Mis.Exact.set in
    check (label "property 3") true r.Maxis_core.Properties.holds
  end;
  (* Claim 4 on a random distinct tuple *)
  if P.k p >= t then begin
    let ms = Array.of_list (Prng.sample_without_replacement rng (P.k p) t) in
    check (label "claim 4") true (Maxis_core.Claims.claim4 p ~ms).Maxis_core.Claims.holds
  end;
  (* player protocol equivalence on Luby *)
  let mono = Congest.Runtime.run Congest.Algo_luby.mis g in
  let multi = Maxis_core.Player_sim.run Congest.Algo_luby.mis inst in
  check (label "player sim equivalence") true
    (mono.Congest.Runtime.outputs = multi.Maxis_core.Player_sim.outputs
    && Congest.Trace.cut_bits mono.Congest.Runtime.trace inst.Family.partition
       = Commcx.Blackboard.bits_written multi.Maxis_core.Player_sim.board);
  (* fault injection: a random adversarial plan each iteration.  Hardened
     Luby must reproduce the fault-free outputs exactly, and the faulty
     execution must replay bit-identically from (config.seed, plan). *)
  let plan =
    Congest.Faults.plan
      ~default:
        (Congest.Faults.link ~drop:(Prng.float rng 0.2)
           ~duplicate:(Prng.float rng 0.1) ~corrupt:(Prng.float rng 0.1)
           ~max_delay:(Prng.int rng 3) ())
      (Prng.int rng 1_000_000)
  in
  (* 131-bit hardened frames: factor 131 covers any id width.  config.seed
     stays at the default so the inner randomness matches [mono]. *)
  let faulty_config =
    {
      Congest.Runtime.default_config with
      Congest.Runtime.bandwidth_factor = 131;
      faults = Some plan;
    }
  in
  let hardened () =
    Congest.Runtime.run ~config:faulty_config
      (Congest.Faults.harden Congest.Algo_luby.mis)
      g
  in
  let h1 = hardened () in
  check (label "hardened luby = fault-free luby") true
    (h1.Congest.Runtime.all_halted
    && h1.Congest.Runtime.outputs = mono.Congest.Runtime.outputs);
  let h2 = hardened () in
  check (label "fault replay determinism") true
    (Congest.Trace.digest h1.Congest.Runtime.trace
    = Congest.Trace.digest h2.Congest.Runtime.trace);
  (* greedy guarantee + bound sandwich *)
  let cw, greedy, cover = Mis.Bounds.sandwich g in
  check (label "sandwich") true
    (cw <= float_of_int greedy +. 1e-9 && greedy <= opt && opt <= cover);
  let delta = Graph.max_degree g in
  check (label "delta guarantee") true (greedy * (delta + 1) >= opt)

let test_soak () =
  let root = Prng.create root_seed in
  for iteration = 1 to iterations do
    (* Each iteration gets its own split stream: a failure at iteration
       [i] reproduces without replaying iterations [1..i-1] by splitting
       the root [i] times. *)
    soak_once (Prng.split root) iteration
  done

let () =
  Alcotest.run "soak"
    [
      ( "end-to-end",
        [
          Alcotest.test_case
            (Printf.sprintf
               "randomized cross-validation (%d iterations, root seed %#x)"
               iterations root_seed)
            `Slow test_soak;
        ] );
    ]
