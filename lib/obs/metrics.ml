type counter = { c_name : string; c_help : string; c_value : int Atomic.t }

type gauge = {
  g_name : string;
  g_help : string;
  g_labels : (string * string) list;
  g_value : float Atomic.t;
}

(* Per-domain shard: single-writer (the owning domain), so observation
   is an array store plus mutable-field updates — no CAS contention.
   Readers (export) only run after the recording domains are joined. *)
type shard = {
  s_counts : int array;
  mutable s_sum : float;
  mutable s_underflow : int;
  mutable s_overflow : int;
}

(* Buckets per histogram. *)
let bins = 24

type histogram = {
  h_name : string;
  h_help : string;
  h_llo : float;  (** [log10 lo] *)
  h_lhi : float;  (** [log10 hi] *)
  h_lock : Mutex.t;  (** guards [h_shards] (registration only) *)
  h_shards : shard list ref;
  h_key : shard Domain.DLS.key;
}

type metric = C of counter | G of gauge | H of histogram

type t = { r_lock : Mutex.t; mutable r_metrics : metric list (* newest first *) }

let enabled () = Atomic.get Sink.mask land Sink.metrics <> 0
let set_enabled b = Sink.set Sink.metrics b
let create () = { r_lock = Mutex.create (); r_metrics = [] }
let default = create ()

let metric_name = function
  | C c -> c.c_name
  | G g -> g.g_name
  | H h -> h.h_name

let register reg m =
  Mutex.lock reg.r_lock;
  let dup =
    List.exists (fun m' -> metric_name m' = metric_name m) reg.r_metrics
  in
  if not dup then reg.r_metrics <- m :: reg.r_metrics;
  Mutex.unlock reg.r_lock;
  if dup then
    invalid_arg (Printf.sprintf "Metrics: duplicate metric %S" (metric_name m))

let counter ?(help = "") reg name =
  let c = { c_name = name; c_help = help; c_value = Atomic.make 0 } in
  register reg (C c);
  c

let gauge ?(help = "") ?(labels = []) ?(init = 0.0) reg name =
  let g =
    { g_name = name; g_help = help; g_labels = labels; g_value = Atomic.make init }
  in
  register reg (G g);
  g

let histogram ?(help = "") ~lo ~hi reg name =
  if not (lo > 0.0 && lo < hi) then
    invalid_arg "Metrics.histogram: need 0 < lo < hi";
  let shards = ref [] in
  let lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let s =
          { s_counts = Array.make bins 0; s_sum = 0.0; s_underflow = 0; s_overflow = 0 }
        in
        Mutex.lock lock;
        shards := s :: !shards;
        Mutex.unlock lock;
        s)
  in
  let h =
    {
      h_name = name;
      h_help = help;
      h_llo = log10 lo;
      h_lhi = log10 hi;
      h_lock = lock;
      h_shards = shards;
      h_key = key;
    }
  in
  register reg (H h);
  h

let incr c = if enabled () then Atomic.incr c.c_value
let add c n = if enabled () then ignore (Atomic.fetch_and_add c.c_value n)
let set g v = if enabled () then Atomic.set g.g_value v
let counter_value c = Atomic.get c.c_value
let gauge_value g = Atomic.get g.g_value

let record h x =
  let s = Domain.DLS.get h.h_key in
  if Float.is_nan x || x <= 0.0 then s.s_underflow <- s.s_underflow + 1
  else begin
    s.s_sum <- s.s_sum +. x;
    let lx = log10 x in
    if lx < h.h_llo then s.s_underflow <- s.s_underflow + 1
    else if lx >= h.h_lhi then s.s_overflow <- s.s_overflow + 1
    else begin
      let i =
        int_of_float
          (float_of_int bins *. (lx -. h.h_llo) /. (h.h_lhi -. h.h_llo))
      in
      let i = min (bins - 1) (max 0 i) in
      s.s_counts.(i) <- s.s_counts.(i) + 1
    end
  end

let observe h x = if enabled () then record h x

let shards_of h =
  Mutex.lock h.h_lock;
  let ss = !(h.h_shards) in
  Mutex.unlock h.h_lock;
  ss

let snapshot h =
  let empty =
    Stats.Histogram.create ~lo:h.h_llo ~hi:h.h_lhi ~bins
  in
  List.fold_left
    (fun acc s ->
      Stats.Histogram.merge acc
        (Stats.Histogram.of_counts ~lo:h.h_llo ~hi:h.h_lhi
           ~underflow:s.s_underflow ~overflow:s.s_overflow s.s_counts))
    empty (shards_of h)

let histogram_count h = Stats.Histogram.total (snapshot h)

let histogram_sum h =
  List.fold_left (fun acc s -> acc +. s.s_sum) 0.0 (shards_of h)

let histogram_quantile h p =
  let snap = snapshot h in
  if Stats.Histogram.total snap = 0 then None
  else Some (10.0 ** Stats.Histogram.quantile snap p)

(* --- export -------------------------------------------------------- *)

let bucket_upper h i =
  let w = (h.h_lhi -. h.h_llo) /. float_of_int bins in
  10.0 ** (h.h_llo +. (float_of_int (i + 1) *. w))

(* Cumulative bucket counts, Prometheus-style: bucket [i] counts every
   observation <= its upper bound, so it includes the underflow mass. *)
let cumulative h =
  let snap = snapshot h in
  let acc = ref snap.Stats.Histogram.underflow in
  Array.mapi
    (fun i c ->
      acc := !acc + c;
      (bucket_upper h i, !acc))
    snap.Stats.Histogram.counts

let metrics_in reg =
  Mutex.lock reg.r_lock;
  let ms = List.rev reg.r_metrics in
  Mutex.unlock reg.r_lock;
  ms

let json_of_metric = function
  | C c ->
      ( c.c_name,
        Json.Obj
          [ ("type", Json.Str "counter"); ("value", Json.Int (counter_value c)) ]
      )
  | G g ->
      ( g.g_name,
        Json.Obj
          ([ ("type", Json.Str "gauge"); ("value", Json.Float (gauge_value g)) ]
          @
          match g.g_labels with
          | [] -> []
          | labels ->
              [
                ( "labels",
                  Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) labels) );
              ]) )
  | H h ->
      let count = histogram_count h in
      let q p =
        match histogram_quantile h p with
        | Some v -> Json.Float v
        | None -> Json.Null
      in
      let buckets =
        cumulative h |> Array.to_list
        |> List.map (fun (le, c) ->
               Json.Obj [ ("le", Json.Float le); ("count", Json.Int c) ])
      in
      ( h.h_name,
        Json.Obj
          [
            ("type", Json.Str "histogram");
            ("count", Json.Int count);
            ("sum", Json.Float (histogram_sum h));
            ("p50", q 0.5);
            ("p90", q 0.9);
            ("p99", q 0.99);
            ("buckets", Json.List buckets);
          ] )

let to_json reg =
  Json.Obj
    [
      ("schema", Json.Str "ldafp-metrics/1");
      ("metrics", Json.Obj (List.map json_of_metric (metrics_in reg)));
    ]

let save_json reg path = Json.save path (to_json reg)

(* Prometheus text exposition v0.0.4. *)

let escape_label_value s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let prom_header buf name help kind =
  if help <> "" then
    Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name (escape_help help));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let to_prometheus reg =
  let buf = Buffer.create 4096 in
  List.iter
    (fun m ->
      match m with
      | C c ->
          prom_header buf c.c_name c.c_help "counter";
          Buffer.add_string buf
            (Printf.sprintf "%s %d\n" c.c_name (counter_value c))
      | G g ->
          prom_header buf g.g_name g.g_help "gauge";
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" g.g_name (render_labels g.g_labels)
               (float_repr (gauge_value g)))
      | H h ->
          prom_header buf h.h_name h.h_help "histogram";
          let with_le le = render_labels [ ("le", le) ] in
          Array.iter
            (fun (le, c) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" h.h_name
                   (with_le (float_repr le)) c))
            (cumulative h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" h.h_name (with_le "+Inf")
               (histogram_count h));
          Buffer.add_string buf
            (Printf.sprintf "%s_sum %s\n" h.h_name
               (float_repr (histogram_sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count %d\n" h.h_name (histogram_count h)))
    (metrics_in reg);
  Buffer.contents buf

let save_prometheus reg path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_prometheus reg))

let reset reg =
  List.iter
    (fun m ->
      match m with
      | C c -> Atomic.set c.c_value 0
      | G g -> Atomic.set g.g_value 0.0
      | H h ->
          List.iter
            (fun s ->
              Array.fill s.s_counts 0 (Array.length s.s_counts) 0;
              s.s_sum <- 0.0;
              s.s_underflow <- 0;
              s.s_overflow <- 0)
            (shards_of h))
    (metrics_in reg)
