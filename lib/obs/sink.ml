(* The one sink mask: bit [trace], [metrics] or [telemetry] is set while
   that sink is on.  [Trace.install]/[uninstall], [Metrics.set_enabled]
   and [Telemetry.start]/[stop] maintain it; [Probe.on] is one load. *)

let trace = 1
let metrics = 2
let telemetry = 4
let mask = Atomic.make 0

let rec set bit on =
  let m = Atomic.get mask in
  let m' = if on then m lor bit else m land lnot bit in
  if not (Atomic.compare_and_set mask m m') then set bit on
