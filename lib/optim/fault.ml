type failure =
  | Oracle_raised of string
  | Non_finite_bound of float
  | Certificate_failed of string

exception Certificate_error of string

let describe = function
  | Oracle_raised msg -> Printf.sprintf "oracle raised: %s" msg
  | Non_finite_bound b -> Printf.sprintf "non-finite lower bound %h" b
  | Certificate_failed msg -> Printf.sprintf "bound certificate failed: %s" msg

let containable = function
  | Out_of_memory | Stack_overflow | Sys.Break -> false
  | _ -> true

type policy = {
  max_retries : int;
  degrade : bool;
  reraise : bool;
}

let default_policy = { max_retries = 1; degrade = true; reraise = false }

let propagate = { max_retries = 0; degrade = false; reraise = true }

type counters = {
  failures : int Atomic.t;
  retries : int Atomic.t;
  degraded : int Atomic.t;
  dropped : int Atomic.t;
}

let fresh_counters () =
  {
    failures = Atomic.make 0;
    retries = Atomic.make 0;
    degraded = Atomic.make 0;
    dropped = Atomic.make 0;
  }
