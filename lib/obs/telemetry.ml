(* Live telemetry endpoint: a single-threaded HTTP/1.0 server over
   [Unix], running on its own domain, serving the process-global
   metrics registry and a health snapshot.  No external dependency —
   Prometheus, curl and CI only need the text exposition format and
   tiny JSON bodies, and a hand-rolled HTTP/1.0 responder is ~100
   lines.

   Concurrency: scrapes race the recording domains by design (that is
   the point of a live endpoint).  Counters and gauges are atomics, so
   reads are merely instantaneous-but-unsynchronised; histogram shards
   are single-writer plain stores, so a mid-mutation read can mix
   observations from different instants — the rendered exposition is
   always well-formed, the values are a snapshot "around now".  The
   end-of-run exports (--metrics files) remain the exact numbers. *)

let version = "1.0.0"

let git_rev =
  match Sys.getenv_opt "LDAFP_GIT_REV" with
  | Some r when String.trim r <> "" -> String.trim r
  | _ -> "unknown"

(* Registered eagerly at module init, like every other metric in the
   repo (concurrent Lazy.force is unsafe on OCaml 5).  [ldafp_build_info]
   is the conventional constant-1 gauge whose labels carry the build
   identity, [linalg] the body the Newton-step kernels run ("avx2" or
   "portable"); [ldafp_uptime_seconds] is refreshed on every scrape. *)
let (_ : Metrics.gauge) =
  Metrics.gauge Metrics.default ~init:1.0
    ~labels:
      [
        ("version", version);
        ("ocaml", Sys.ocaml_version);
        ("git_rev", git_rev);
        ("linalg", Linalg.Kernels.(name dispatched));
      ]
    ~help:"constant 1; labels identify the build" "ldafp_build_info"

let m_uptime =
  Metrics.gauge Metrics.default
    ~help:"seconds since process start (refreshed on scrape)"
    "ldafp_uptime_seconds"

let start_ns = Clock.now_ns ()
let uptime_seconds () = float_of_int (Clock.now_ns () - start_ns) *. 1e-9

(* ---- Health state ---- *)

let enabled () = Atomic.get Sink.mask land Sink.telemetry <> 0
let phase = Atomic.make "idle"
let nodes = Atomic.make 0
let incumbent = Atomic.make Float.infinity
let gap = Atomic.make Float.infinity
let set_phase p = if enabled () then Atomic.set phase p
let set_nodes n = if enabled () then Atomic.set nodes n
let set_incumbent c = if enabled () then Atomic.set incumbent c
let set_gap g = if enabled () then Atomic.set gap g

let health_json () =
  (* The Json writer maps non-finite floats to [null], which is exactly
     right for "no incumbent yet". *)
  Json.Obj
    [
      ("status", Json.Str "ok");
      ("phase", Json.Str (Atomic.get phase));
      ("nodes_expanded", Json.Int (Atomic.get nodes));
      ("incumbent", Json.Float (Atomic.get incumbent));
      ("certified_gap", Json.Float (Atomic.get gap));
      (* [Optim.Bnb.relative_gap], which this layer cannot see. *)
      ( "certified_rel_gap",
        Json.Float (Atomic.get gap /. Float.abs (Atomic.get incumbent)) );
      ("uptime_seconds", Json.Float (uptime_seconds ()));
      ("pid", Json.Int (Unix.getpid ()));
    ]

(* ---- HTTP ---- *)

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\n\
     Content-Type: %s\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

let handle_request registry line =
  match String.split_on_char ' ' line with
  | "GET" :: path :: _ -> (
      (* Strip any query string: Prometheus appends none, but curl
         users might. *)
      let path =
        match String.index_opt path '?' with
        | Some i -> String.sub path 0 i
        | None -> path
      in
      Metrics.set m_uptime (uptime_seconds ());
      match path with
      | "/metrics" ->
          response ~status:"200 OK"
            ~content_type:"text/plain; version=0.0.4; charset=utf-8"
            (Metrics.to_prometheus registry)
      | "/metrics.json" ->
          response ~status:"200 OK" ~content_type:"application/json"
            (Json.to_string (Metrics.to_json registry))
      | "/healthz" ->
          response ~status:"200 OK" ~content_type:"application/json"
            (Json.to_string (health_json ()))
      | _ ->
          response ~status:"404 Not Found" ~content_type:"text/plain"
            "not found\n")
  | _ ->
      response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "only GET is served\n"

type server = {
  sock : Unix.file_descr;
  bound_host : string;
  bound_port : int;
  stop_flag : bool Atomic.t;
  dom : unit Domain.t;
  mutable stopped : bool;
}

let read_request_line fd =
  (* One recv is almost always the whole request; loop defensively up
     to a small cap for clients that dribble.  A 2 s receive timeout
     bounds a stalled client — the accept loop is single-threaded, so a
     slowloris must not freeze scraping forever. *)
  let buf = Bytes.create 2048 in
  let acc = Buffer.create 256 in
  let rec go () =
    if Buffer.length acc > 8192 then Buffer.contents acc
    else
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 | (exception Unix.Unix_error _) -> Buffer.contents acc
      | n ->
          Buffer.add_subbytes acc buf 0 n;
          let s = Buffer.contents acc in
          if String.index_opt s '\n' <> None then s else go ()
  in
  let s = go () in
  match String.index_opt s '\n' with
  | Some i -> String.trim (String.sub s 0 i)
  | None -> String.trim s

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | 0 | (exception Unix.Unix_error _) -> ()
      | w -> go (off + w)
  in
  go 0

let serve_client fd =
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0 with _ -> ());
  (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 2.0 with _ -> ());
  let line = read_request_line fd in
  if line <> "" then write_all fd (handle_request Metrics.default line);
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
  try Unix.close fd with _ -> ()

let accept_loop sock stop_flag () =
  let rec loop () =
    if not (Atomic.get stop_flag) then begin
      (* Select with a short timeout so a stop request is honoured
         within ~200 ms without the self-connect trick. *)
      (match Unix.select [ sock ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept sock with
          | fd, _ -> serve_client fd
          | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error _ -> ());
      loop ()
    end
  in
  loop ()

let parse_addr addr =
  let host, port_s =
    match String.rindex_opt addr ':' with
    | Some i ->
        (String.sub addr 0 i, String.sub addr (i + 1) (String.length addr - i - 1))
    | None -> ("", addr)
  in
  match int_of_string_opt port_s with
  | None ->
      Error (Printf.sprintf "telemetry: bad port in %S (want HOST:PORT)" addr)
  | Some p when p < 0 || p > 65535 ->
      Error (Printf.sprintf "telemetry: port %d out of range" p)
  | Some p -> (
      match host with
      | "" | "0.0.0.0" | "*" -> Ok (Unix.inet_addr_any, p)
      | "localhost" -> Ok (Unix.inet_addr_loopback, p)
      | h -> (
          match Unix.inet_addr_of_string h with
          | ip -> Ok (ip, p)
          | exception _ -> (
              match Unix.gethostbyname h with
              | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                  Error (Printf.sprintf "telemetry: cannot resolve %S" h)
              | { Unix.h_addr_list; _ } -> Ok (h_addr_list.(0), p))))

let start ~addr () =
  match parse_addr addr with
  | Error _ as e -> e
  | Ok (ip, port) -> (
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt sock Unix.SO_REUSEADDR true;
        Unix.bind sock (Unix.ADDR_INET (ip, port));
        Unix.listen sock 16
      with
      | exception Unix.Unix_error (err, _, _) ->
          (try Unix.close sock with _ -> ());
          Error
            (Printf.sprintf "telemetry: cannot bind %s: %s" addr
               (Unix.error_message err))
      | () ->
          let bound_host, bound_port =
            match Unix.getsockname sock with
            | Unix.ADDR_INET (a, p) -> (Unix.string_of_inet_addr a, p)
            | _ -> (Unix.string_of_inet_addr ip, port)
          in
          let stop_flag = Atomic.make false in
          let dom = Domain.spawn (accept_loop sock stop_flag) in
          Sink.set Sink.telemetry true;
          Ok { sock; bound_host; bound_port; stop_flag; dom; stopped = false })

let stop s =
  if not s.stopped then begin
    s.stopped <- true;
    Sink.set Sink.telemetry false;
    Atomic.set s.stop_flag true;
    Domain.join s.dom;
    try Unix.close s.sock with _ -> ()
  end

let port s = s.bound_port
let addr s = Printf.sprintf "%s:%d" s.bound_host s.bound_port
