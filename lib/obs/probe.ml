type t = {
  name : string;
  cat : string;
  count : Metrics.counter option;
  seconds : Metrics.histogram option;
}

(* Newest first; declarations run at module init, before any domain is
   spawned. *)
let all = ref []

let v ?count ?seconds name =
  let metric suffix =
    "ldafp_" ^ String.map (function '.' -> '_' | c -> c) name ^ suffix
  in
  let reg = Metrics.default in
  match String.index_opt name '.' with
  | Some i
    when i > 0 && i < String.length name - 1
         && not (List.exists (fun p -> p.name = name) !all) ->
      let counter help = Metrics.counter reg ~help (metric "_total") in
      let histogram (lo, hi, help) =
        Metrics.histogram reg ~lo ~hi ~help (metric "_seconds")
      in
      let count = Option.map counter count in
      let seconds = Option.map histogram seconds in
      let p = { name; cat = String.sub name 0 i; count; seconds } in
      all := p :: !all;
      p
  | _ -> invalid_arg (Printf.sprintf "Probe.v: %S is not a new cat.event" name)

let name p = p.name
let declared () = List.rev !all
let on () = Atomic.get Sink.mask <> 0

(* [m] is the one load of the mask an emission makes. *)
let instant ?args p m n =
  if m land Sink.metrics <> 0 then
    (match p.count with Some c -> Metrics.add c n | None -> ());
  if m land Sink.trace <> 0 then Trace.instant ?args ~cat:p.cat p.name

let hit ?args p = instant ?args p (Atomic.get Sink.mask) 1
let add ?args p n = instant ?args p (Atomic.get Sink.mask) n

let hit_int p key i =
  let m = Atomic.get Sink.mask in
  if m land Sink.trace <> 0 then instant ~args:[ (key, Trace.Int i) ] p m 1
  else instant p m 1

let span ?args p ~t0_ns ~dur_ns =
  let m = Atomic.get Sink.mask in
  if m land Sink.metrics <> 0 then begin
    (match p.count with Some c -> Metrics.incr c | None -> ());
    match p.seconds with
    | Some h -> Metrics.observe h (float_of_int dur_ns *. 1e-9)
    | None -> ()
  end;
  if m land Sink.trace <> 0 then
    Trace.complete ?args ~cat:p.cat p.name ~t0_ns ~dur_ns
