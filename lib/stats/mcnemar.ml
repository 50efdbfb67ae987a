type result = {
  a_only : int;
  b_only : int;
  both : int;
  neither : int;
  p_value : float;
  better : [ `A | `B | `Tie ];
}

(* log of the binomial coefficient, via lgamma-free accumulation (n is a
   trial count, so a simple product in log space is plenty). *)
let log_choose n k =
  let k = min k (n - k) in
  let acc = ref 0.0 in
  for i = 1 to k do
    acc := !acc +. log (float_of_int (n - k + i)) -. log (float_of_int i)
  done;
  !acc

(* P(Bin(n, 1/2) <= k), exact in log space. *)
let binom_cdf_half n k =
  if k < 0 then 0.0
  else if k >= n then 1.0
  else begin
    let log_half_n = -.float_of_int n *. log 2.0 in
    let acc = ref 0.0 in
    for i = 0 to k do
      acc := !acc +. exp (log_choose n i +. log_half_n)
    done;
    Float.min 1.0 !acc
  end

let compare ~truth ~a ~b =
  let n = Array.length truth in
  if n = 0 then invalid_arg "Mcnemar.compare: empty";
  if Array.length a <> n || Array.length b <> n then
    invalid_arg "Mcnemar.compare: length mismatch";
  let a_only = ref 0 and b_only = ref 0 and both = ref 0 and neither = ref 0 in
  for i = 0 to n - 1 do
    let ca = a.(i) = truth.(i) and cb = b.(i) = truth.(i) in
    match (ca, cb) with
    | true, true -> incr both
    | true, false -> incr a_only
    | false, true -> incr b_only
    | false, false -> incr neither
  done;
  let d = !a_only + !b_only in
  let p_value =
    if d = 0 then 1.0
    else Float.min 1.0 (2.0 *. binom_cdf_half d (min !a_only !b_only))
  in
  {
    a_only = !a_only;
    b_only = !b_only;
    both = !both;
    neither = !neither;
    p_value;
    better =
      (if !a_only > !b_only then `A
       else if !b_only > !a_only then `B
       else `Tie);
  }

let significant r = r.p_value < 0.05
