exception Injected of string

type config = {
  seed : int;
  bound_exn_prob : float;
  bound_nan_prob : float;
  branch_exn_prob : float;
  delay_prob : float;
  delay_seconds : float;
}

let none =
  {
    seed = 0;
    bound_exn_prob = 0.0;
    bound_nan_prob = 0.0;
    branch_exn_prob = 0.0;
    delay_prob = 0.0;
    delay_seconds = 0.0;
  }

let config ?(bound_exn_prob = 0.0) ?(bound_nan_prob = 0.0)
    ?(branch_exn_prob = 0.0) ?(delay_prob = 0.0) ?(delay_seconds = 1e-3) ~seed
    () =
  { seed; bound_exn_prob; bound_nan_prob; branch_exn_prob; delay_prob;
    delay_seconds }

(* SplitMix64 finaliser over (seed, call index, salt): a stateless,
   domain-safe uniform draw per decision.  No shared RNG state beyond the
   one atomic call counter. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let uniform ~seed ~call ~salt =
  let z =
    Int64.add
      (Int64.mul (Int64.of_int call) 0x9E3779B97F4A7C15L)
      (Int64.add (Int64.of_int seed) (Int64.mul (Int64.of_int salt) 0xD6E8FEB86659FD93L))
  in
  let bits = Int64.shift_right_logical (mix64 z) 11 in
  Int64.to_float bits /. 9007199254740992.0 (* 2^53 *)

let wrap cfg (oracle : _ Optim.Bnb.oracle) =
  let calls = Atomic.make 0 in
  let injected = Atomic.make 0 in
  let maybe_delay call =
    if cfg.delay_prob > 0.0 && uniform ~seed:cfg.seed ~call ~salt:3 < cfg.delay_prob
    then Unix.sleepf cfg.delay_seconds
  in
  let bound region =
    let call = Atomic.fetch_and_add calls 1 in
    maybe_delay call;
    if uniform ~seed:cfg.seed ~call ~salt:1 < cfg.bound_exn_prob then begin
      Atomic.incr injected;
      raise (Injected (Printf.sprintf "bound call %d" call))
    end
    else if uniform ~seed:cfg.seed ~call ~salt:2 < cfg.bound_nan_prob then begin
      Atomic.incr injected;
      Some { Optim.Bnb.lower = Float.nan; candidate = None }
    end
    else oracle.Optim.Bnb.bound region
  in
  let branch region =
    let call = Atomic.fetch_and_add calls 1 in
    maybe_delay call;
    if uniform ~seed:cfg.seed ~call ~salt:4 < cfg.branch_exn_prob then begin
      Atomic.incr injected;
      raise (Injected (Printf.sprintf "branch call %d" call))
    end
    else oracle.Optim.Bnb.branch region
  in
  ({ Optim.Bnb.bound; branch }, fun () -> Atomic.get injected)
