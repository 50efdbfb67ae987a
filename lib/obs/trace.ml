type arg = Int of int | Float of float | Str of string | Bool of bool

type event = {
  name : string;
  cat : string;
  ph : [ `Complete | `Instant ];
  ts_ns : int;
  dur_ns : int;
  tid : int;
  args : (string * arg) list;
}

let dummy =
  { name = ""; cat = ""; ph = `Instant; ts_ns = 0; dur_ns = 0; tid = 0; args = [] }

(* Single-writer ring: only the owning domain mutates it.  [head] is the
   next write slot; once full ([len = capacity]) it is also the oldest
   event, so a write overwrites exactly the oldest and bumps [dropped]. *)
type ring = {
  buf : event array;
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
}

type collector = {
  capacity : int;
  reg_lock : Mutex.t;  (** guards [rings] (ring registration only) *)
  mutable rings : ring list;
}

type t = collector

(* The process-global sink; its presence is mirrored in the trace bit
   of [Sink.mask], which is what probes read. *)
let current : collector option Atomic.t = Atomic.make None

(* Each domain caches its ring per collector (physical equality), so an
   emission after the first is a list lookup plus an array store. *)
let ring_key : (collector * ring) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let ring_for (c : collector) =
  let cache = Domain.DLS.get ring_key in
  match List.assq_opt c !cache with
  | Some r -> r
  | None ->
      let r =
        { buf = Array.make c.capacity dummy; head = 0; len = 0; dropped = 0 }
      in
      Mutex.lock c.reg_lock;
      c.rings <- r :: c.rings;
      Mutex.unlock c.reg_lock;
      cache := (c, r) :: !cache;
      r

let write r ev =
  let cap = Array.length r.buf in
  if r.len = cap then r.dropped <- r.dropped + 1 else r.len <- r.len + 1;
  r.buf.(r.head) <- ev;
  r.head <- (r.head + 1) mod cap

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity must be >= 1";
  { capacity; reg_lock = Mutex.create (); rings = [] }

let install c =
  Atomic.set current (Some c);
  Sink.set Sink.trace true

let uninstall () =
  Sink.set Sink.trace false;
  Atomic.set current None

let emit ph args ~cat name ~t0_ns ~dur_ns =
  match Atomic.get current with
  | None -> ()
  | Some c ->
      let tid = (Domain.self () :> int) in
      write (ring_for c) { name; cat; ph; ts_ns = t0_ns; dur_ns; tid; args }

let instant ?(args = []) ~cat name =
  emit `Instant args ~cat name ~t0_ns:(Clock.now_ns ()) ~dur_ns:0

let complete ?(args = []) ~cat name ~t0_ns ~dur_ns =
  emit `Complete args ~cat name ~t0_ns ~dur_ns

let ring_events r =
  let cap = Array.length r.buf in
  let start = (r.head - r.len + (2 * cap)) mod cap in
  List.init r.len (fun i -> r.buf.((start + i) mod cap))

let events c =
  Mutex.lock c.reg_lock;
  let rings = c.rings in
  Mutex.unlock c.reg_lock;
  List.concat_map ring_events rings
  |> List.stable_sort (fun a b -> compare a.ts_ns b.ts_ns)

let dropped c =
  Mutex.lock c.reg_lock;
  let rings = c.rings in
  Mutex.unlock c.reg_lock;
  List.fold_left (fun acc r -> acc + r.dropped) 0 rings

let json_of_arg = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let json_of_event ev =
  let us ns = float_of_int ns /. 1e3 in
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str ev.cat);
      ("pid", Json.Int 1);
      ("tid", Json.Int ev.tid);
      ("ts", Json.Float (us ev.ts_ns));
    ]
  in
  let phase =
    match ev.ph with
    | `Complete -> [ ("ph", Json.Str "X"); ("dur", Json.Float (us ev.dur_ns)) ]
    | `Instant -> [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  let args =
    match ev.args with
    | [] -> []
    | kvs -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, json_of_arg v)) kvs)) ]
  in
  Json.Obj (base @ phase @ args)

let to_json c =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map json_of_event (events c)));
      ("displayTimeUnit", Json.Str "ms");
      ("otherData", Json.Obj [ ("droppedEvents", Json.Int (dropped c)) ]);
    ]

let save c path = Json.save path (to_json c)
