(** Per-domain trace-event ring buffers with Chrome trace-event export.

    A collector holds one fixed-capacity ring buffer per emitting
    domain.  Rings are single-writer (the owning domain) so emission
    takes no lock and performs one array store; when a ring is full the
    oldest event is overwritten and a per-ring drop counter advances.
    Instrumented code emits through declared {!Probe}s rather than
    calling {!instant}/{!complete} directly.

    Export ({!events}/{!to_json}/{!save}) merges all rings sorted by
    timestamp into the Chrome trace-event JSON object format (catapult
    schema: [{"traceEvents": [...]}]) which {{:https://ui.perfetto.dev}
    Perfetto} and [chrome://tracing] load directly.  Export reads ring
    state without synchronisation: only call it after the emitting
    domains have been joined (or before they are spawned).

    Event taxonomy (categories and names) is documented in
    {!page-observability}. *)

type arg = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  cat : string;  (** category: ["bnb"], ["socp"], ["sched"], ["ckpt"], ["fault"] *)
  ph : [ `Complete | `Instant ];
  ts_ns : int;  (** start timestamp, {!Clock.now_ns} domain *)
  dur_ns : int;  (** duration; [0] for instants *)
  tid : int;  (** emitting domain id *)
  args : (string * arg) list;
}

type t

val create : ?capacity:int -> unit -> t
(** A collector whose per-domain rings hold [capacity] events each
    (default [65536]).  @raise Invalid_argument if [capacity < 1]. *)

val install : t -> unit
(** Make [t] the process-global sink; subsequent emissions from any
    domain land in it. *)

val uninstall : unit -> unit
(** Disable tracing. *)

val instant : ?args:(string * arg) list -> cat:string -> string -> unit
(** Emit a point event stamped with {!Clock.now_ns} on the calling
    domain's ring.  No-op when disabled. *)

val complete :
  ?args:(string * arg) list ->
  cat:string ->
  string ->
  t0_ns:int ->
  dur_ns:int ->
  unit
(** Emit a span the caller already timed ([t0_ns] from
    {!Clock.now_ns}).  Complete events (Chrome phase ["X"]) are used
    instead of begin/end pairs so a span survives its partner being
    overwritten on ring wraparound.  No-op when disabled. *)

val events : t -> event list
(** All buffered events across rings, sorted by [ts_ns].  Only sound
    once emitting domains are quiescent (joined). *)

val dropped : t -> int
(** Total events overwritten by ring wraparound, across all rings. *)

val to_json : t -> Json.t
(** Chrome trace-event JSON object ([{"traceEvents": [...]}]) with
    microsecond timestamps; instants carry thread scope (["s":"t"]). *)

val save : t -> string -> unit
