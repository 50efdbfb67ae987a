(** Declared instrumentation points: one per event, one call per
    emission.

    [v "cat.event"] declares an event once, at module init.  The name
    fixes the trace event name, its category (the part before the dot)
    and its metrics in {!Metrics.default}: [ldafp_cat_event_total] for
    [?count] (its help text) and [ldafp_cat_event_seconds] for
    [?seconds] ([(lo, hi, help)] as in {!Metrics.histogram}).  An
    emission counts the event ([add]: [n] times), records a [span]'s
    duration, and writes a trace instant ([span]: a complete event) to
    whichever sinks are on.

    With every sink off an emission is one atomic load and allocates
    nothing, as long as its arguments do not: ints never do, but an
    argument list or a freshly computed float does.  A site with trace
    arguments builds them behind one {!on} check:

    {[
      if Obs.Probe.on () then
        Obs.Probe.span p_node ~t0_ns ~dur_ns
          ~args:[ ("node", Obs.Trace.Int n); ("lb", Obs.Trace.Float lb) ]
    ]} *)

type t

val v : ?count:string -> ?seconds:float * float * string -> string -> t
(** @raise Invalid_argument unless the name is a new ["cat.event"]. *)

val name : t -> string
val declared : unit -> t list (** in declaration order *)

val on : unit -> bool
(** Whether any sink (trace, metrics or telemetry) is on. *)

val hit : ?args:(string * Trace.arg) list -> t -> unit

val hit_int : t -> string -> int -> unit
(** [hit_int p k i] is [hit ~args:[ (k, Int i) ] p], building the list
    only when tracing. *)

val add : ?args:(string * Trace.arg) list -> t -> int -> unit

val span :
  ?args:(string * Trace.arg) list -> t -> t0_ns:int -> dur_ns:int -> unit
