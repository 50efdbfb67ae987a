open Linalg
open Fixedpoint

let round_into (pb : Ldafp_problem.t) ?wbox w =
  let wbox = match wbox with Some b -> b | None -> pb.Ldafp_problem.elem_box in
  Array.mapi (fun j x -> Fx_interval.clamp_value wbox.(j) x) w

let evaluate pb w =
  if Ldafp_problem.feasible pb w then
    let c = Ldafp_problem.cost pb w in
    if Float.is_finite c then Some (Vec.copy w, c) else None
  else None

let better a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (_, ca), Some (_, cb) -> if ca <= cb then a else b

(* [better] keeps the first of equal costs, so a step needs no
   feasibility check when its rounded point repeats the previous one
   (it would cost the same) or costs no less than the best so far.
   Each step is [round_into] of λ·dir, inline over two reused buffers:
   scaled by 2^F, clamped to the raw box (the same as clamping after
   rounding, the bounds being integers), rounded half to even by adding
   and subtracting 1.5·2^52 (exact for magnitudes up to 2^51, which
   raw codes of a word length up to 52 keep to) and scaled back, so
   the points are those of {!Fx_interval.clamp_value}, bit for bit, and
   only [evaluate]'s copy of a winner allocates.  A wider format rounds
   through [clamp_value] itself. *)
let scaled_rounding_sweep ?(steps = 200) (pb : Ldafp_problem.t) direction =
  if steps < 1 then invalid_arg "scaled_rounding_sweep: steps < 1";
  let n = Vec.norm_inf direction in
  if n = 0.0 then None
  else begin
    let dir = Vec.scale (1.0 /. n) direction in
    let m = Vec.dim dir in
    let fmt = pb.Ldafp_problem.fmt in
    let lo = Qformat.ulp fmt in
    let hi = Qformat.max_value fmt in
    let ratio = (hi /. lo) ** (1.0 /. float_of_int (max 1 (steps - 1))) in
    let up = ldexp 1.0 fmt.Qformat.f and wide = Qformat.word_length fmt > 52 in
    let box = pb.Ldafp_problem.elem_box in
    let lo_raw = Array.map (fun iv -> float_of_int iv.Fx_interval.lo_raw) box
    and hi_raw = Array.map (fun iv -> float_of_int iv.Fx_interval.hi_raw) box in
    let best = ref None in
    let cur = ref (Array.make m 0.0) and prev = ref (Array.make m 0.0) in
    let lambda = ref lo in
    for step = 1 to steps do
      let w = !cur and p = !prev in
      let repeat = ref (step > 1) in
      for j = 0 to m - 1 do
        let x =
          if wide then Fx_interval.clamp_value box.(j) (!lambda *. dir.(j))
          else
            let s = !lambda *. dir.(j) *. up in
            let s = if s < lo_raw.(j) then lo_raw.(j) else if s > hi_raw.(j) then hi_raw.(j) else s in
            ((s +. 0x1.8p52) -. 0x1.8p52) *. lo
        in
        if not (Float.equal x p.(j)) then repeat := false;
        w.(j) <- x
      done;
      (match !best with
      | _ when !repeat -> ()
      | Some (_, cb) when not (Ldafp_problem.cost pb w < cb) -> ()
      | _ -> best := better !best (evaluate pb w));
      cur := p;
      prev := w;
      lambda := !lambda *. ratio
    done;
    !best
  end

(* H2's running sums at its current point [w], for a unit roundoff
   u = 2⁻⁵³: q = fl(wᵀ·g) with g = fl(S_W w) (the intermediates of
   [Ldafp_problem.cost], so q is its numerator bit for bit), t = fl(dᵀw),
   and the magnitudes a = fl(|w|ᵀ|S_W||w|) (with |S_W||w| kept row by
   row) and ad = fl(|d|ᵀ|w|) that bound their rounding errors.  All
   floats, so the record is flat and updating it allocates nothing. *)
type sums = {
  mutable cost : float;
  mutable q : float;
  mutable t : float;
  mutable a : float;
  mutable ad : float;
}

let u = epsilon_float /. 2.0
let gamma n = float_of_int n *. u /. (1.0 -. (float_of_int n *. u))

(* The sums at [w], in O(m²).  Only an accepted move pays this. *)
let refresh (pb : Ldafp_problem.t) w ~g ~ag s =
  let sw = pb.Ldafp_problem.sw and d = pb.Ldafp_problem.d in
  let m = Vec.dim w in
  Mat.mul_vec_into sw w ~dst:g;
  let a = ref 0.0 and ad = ref 0.0 in
  for i = 0 to m - 1 do
    let row = sw.(i) in
    let r = ref 0.0 in
    for k = 0 to m - 1 do
      r := !r +. (Float.abs row.(k) *. Float.abs w.(k))
    done;
    ag.(i) <- !r;
    a := !a +. (Float.abs w.(i) *. !r);
    ad := !ad +. (Float.abs d.(i) *. Float.abs w.(i))
  done;
  s.q <- Vec.dot w g;
  s.t <- Vec.dot d w;
  s.a <- !a;
  s.ad <- !ad

(* Whether the trial w' = w + δe_j provably costs at least
   [s.cost − 1e-15], so that [evaluate] could not accept it: from the
   sums in O(1),
     q' = q + 2δg_j + δ²S_jj,  t' = t + δd_j,  c' = q'/t'²,
   and the trial is rejected when c' − err >= cost − 1e-15.  With
   B = a + 2|δ|(|S_W||w|)_j + δ²|S_jj| and D = ad + |δ||d_j| (bounds on
   |w'|ᵀ|S_W||w'| and |d|ᵀ|w'|), the standard dot-product bound
   |fl(xᵀy) − xᵀy| <= γ_n|x|ᵀ|y| (γ_n = nu/(1 − nu)) puts both q' and
   [cost]'s numerator at w' within γ_{2m+3}·B of the real w'ᵀS_W w', and
   both t' and its dᵀw' within γ_{m+2}·D of the real dᵀw'.  Neither
   needs S_W to be PSD: the terms are absolute.  So, with
   E_Q = 4γ_{2m+3}B and E_T = 4γ_{m+2}D (twice the two-sided sums, which
   also covers the rounding of B and D), the exact cost is within
     Δ = (E_Q + |q'|·E_T(2|t'| + E_T)/t'²) / (|t'| − E_T)²
   of q'/t'² whenever |t'| > E_T (the screen asks |t'| > 2E_T), and the
   two divisions add at most 2γ₂ relative; err = 2(Δ + 4u|c'|) covers
   that and the rounding of err and of c' − err.  [δ = cand − w_j] is exact (Fast2Sum: a grid
   point of magnitude below one ulp is 0).  Non-finite values compare
   false and go to [evaluate]. *)
let[@inline] rejects (pb : Ldafp_problem.t) ~g ~ag s ~gq ~gt j delta =
  let sjj = pb.Ldafp_problem.sw.(j).(j) and dj = pb.Ldafp_problem.d.(j) in
  let q' = s.q +. (2.0 *. delta *. g.(j)) +. (delta *. delta *. sjj) in
  let t' = s.t +. (delta *. dj) in
  let c' = q' /. (t' *. t') in
  let adelta = Float.abs delta in
  let eq = gq *. (s.a +. (2.0 *. adelta *. ag.(j)) +. (adelta *. adelta *. Float.abs sjj)) in
  let et = gt *. (s.ad +. (adelta *. Float.abs dj)) in
  let at = Float.abs t' in
  at > 2.0 *. et
  &&
  let r = at -. et in
  let dev = (eq +. (Float.abs q' *. et *. ((2.0 *. at) +. et) /. (t' *. t'))) /. (r *. r) in
  let err = 2.0 *. (dev +. (4.0 *. u *. Float.abs c')) in
  c' -. err >= s.cost -. 1e-15

let coordinate_polish ?(max_rounds = 6) (pb : Ldafp_problem.t) (w, cost) =
  let m = Vec.dim w in
  let ulp = Qformat.ulp pb.Ldafp_problem.fmt in
  let box = pb.Ldafp_problem.elem_box in
  let lo = Array.map Fx_interval.lo box and hi = Array.map Fx_interval.hi box in
  let g = Array.make m 0.0 and ag = Array.make m 0.0 in
  let s = { cost; q = 0.0; t = 0.0; a = 0.0; ad = 0.0 } in
  refresh pb w ~g ~ag s;
  let gq = 4.0 *. gamma ((2 * m) + 3) and gt = 4.0 *. gamma (m + 2) in
  (* Moves w_j one ulp up ([up]) or down when the move stays in the
     element's interval, survives the screen and [evaluate] accepts it. *)
  let try_move j up =
    let original = w.(j) in
    let cand = if up then original +. ulp else original -. ulp in
    cand >= lo.(j) && cand <= hi.(j)
    && (not (rejects pb ~g ~ag s ~gq ~gt j (cand -. original)))
    &&
    (w.(j) <- cand;
     match evaluate pb w with
     | Some (_, c) when c < s.cost -. 1e-15 ->
         s.cost <- c;
         refresh pb w ~g ~ag s;
         true
     | _ ->
         w.(j) <- original;
         false)
  in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < max_rounds do
    improved := false;
    incr rounds;
    for j = 0 to m - 1 do
      if try_move j true || try_move j false then improved := true
    done
  done;
  (w, s.cost)

(* A zero mean difference gives LDA no direction (and every w has
   t = dᵀw = 0): there is nothing to seed. *)
let seed_incumbent ?steps ?max_rounds (pb : Ldafp_problem.t) =
  if Array.for_all (fun x -> x = 0.0) pb.Ldafp_problem.d then None
  else
    let model = Lda.train_scatter pb.Ldafp_problem.scatter in
    Option.map (coordinate_polish ?max_rounds pb)
      (scaled_rounding_sweep ?steps pb (Lda.weights model))
