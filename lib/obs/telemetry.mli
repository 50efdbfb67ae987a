(** Live telemetry: a dependency-free HTTP/1.0 scrape endpoint plus the
    process-global health snapshot it serves.

    {!start} binds a listening socket and runs a single-threaded accept
    loop on its own domain, answering

    - [GET /metrics] — {!Metrics.default}'s Prometheus text exposition
      ({!Metrics.to_prometheus}),
    - [GET /metrics.json] — the JSON export ({!Metrics.to_json}),
    - [GET /healthz] — a small JSON object with the current search
      phase, nodes expanded, incumbent, certified gap and process
      uptime, fed by the {{!section-health} health setters} below.

    The server is deliberately minimal: HTTP/1.0, [Connection: close],
    one request per connection, no keep-alive, no external dependency —
    enough for Prometheus, [curl] and CI, and a ready-made scrape
    surface for a future [ldafp serve].

    The health setters check {!enabled} themselves: with no server
    running they are no-ops costing one atomic load. *)

type server

val start : addr:string -> unit -> (server, string) result
(** [start ~addr ()] parses [addr] as [HOST:PORT] (or [:PORT] /
    [PORT] for all interfaces), binds, listens, spawns the accept-loop
    domain, and flips {!enabled} on.  [PORT] may be [0] to bind an
    ephemeral port (tests); read it back with {!port}.  Returns
    [Error msg] on parse or bind failure instead of raising — a bad
    [--telemetry-addr] must not kill a long training run before it
    starts. *)

val stop : server -> unit
(** Signal the accept loop, join its domain, close the socket, and flip
    {!enabled} off.  Idempotent. *)

val port : server -> int
(** The bound TCP port (useful with port [0]). *)

val addr : server -> string
(** The bound address as [HOST:PORT]. *)

(** {1:health Health state}

    Module-level atomics published by the solver and rendered by
    [/healthz].  Setters are safe from any domain; hot sites call them
    behind {!Probe.on}, so no float argument is boxed for nothing. *)

val enabled : unit -> bool
(** The telemetry bit of {!Sink.mask}: true while a server is
    running. *)

val set_phase : string -> unit
(** The current search phase: ["idle"], ["searching"],
    ["done:<stop reason>"]. *)

val set_nodes : int -> unit
val set_incumbent : float -> unit
val set_gap : float -> unit

val health_json : unit -> Json.t
(** The [/healthz] body: [{status, phase, nodes_expanded, incumbent,
    certified_gap, certified_rel_gap, uptime_seconds, pid}].
    [certified_gap] is absolute (incumbent − bound), [certified_rel_gap]
    is it over |incumbent|, the quantity the stop rule tests.
    Non-finite floats render as [null] (no incumbent yet). *)

(**/**)

val handle_request : Metrics.t -> string -> string
(** [handle_request registry request_line] renders the full HTTP
    response for one request line (tests exercise routing without a
    socket). *)
