open Fixedpoint

type report = {
  nominal : float;
  worst : float;
  mean : float;
  evaluated : int;
  exhaustive : bool;
}

let perturbed clf pattern =
  let fmt = Fixed_classifier.format clf in
  let ulp = Qformat.ulp fmt in
  let w = Fixed_classifier.weights clf in
  if Array.length pattern <> Array.length w then
    invalid_arg "Robustness.perturbed: pattern length mismatch";
  let w' =
    Array.mapi
      (fun j x ->
        let step = max (-1) (min 1 pattern.(j)) in
        Qformat.clamp fmt (x +. (float_of_int step *. ulp)))
      w
  in
  Fixed_classifier.of_weights ~polarity:clf.Fixed_classifier.polarity ~fmt
    ~scaling:clf.Fixed_classifier.scaling ~weights:w'
    ~threshold:(Fixed_classifier.threshold_value clf)
    ()

let sweep clf ds =
  let m = Fixed_classifier.n_features clf in
  let nominal = Eval.error_fixed clf ds in
  let worst = ref nominal and sum = ref 0.0 and count = ref 0 in
  let eval pattern =
    let e = Eval.error_fixed (perturbed clf pattern) ds in
    worst := Float.max !worst e;
    sum := !sum +. e;
    incr count
  in
  let exhaustive = m <= 8 in
  if exhaustive then begin
    (* Enumerate all 3^m ternary patterns. *)
    let pattern = Array.make m (-1) in
    let rec go j =
      if j = m then eval pattern
      else
        for s = -1 to 1 do
          pattern.(j) <- s;
          go (j + 1)
        done
    in
    go 0
  end
  else begin
    let rng = Stats.Rng.create 0 in
    for _ = 1 to 200 do
      eval (Array.init m (fun _ -> Stats.Rng.int rng 3 - 1))
    done
  end;
  {
    nominal;
    worst = !worst;
    mean = (if !count = 0 then nominal else !sum /. float_of_int !count);
    evaluated = !count;
    exhaustive;
  }
