exception Parse_error of { line : int; message : string }

let fail line message = raise (Parse_error { line; message })

(* [String.trim]'s whitespace. *)
let is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

(* 10^k for k <= 22, each an exact double. *)
let pow10 =
  let p = Array.make 23 1.0 in
  for k = 1 to 22 do
    p.(k) <- p.(k - 1) *. 10.0
  done;
  p

let two_pow_53 = 1 lsl 53

(* Veltkamp's splitter 2^27 + 1, for Dekker's exact product. *)
let splitter = 134217729.0

(* The exact fast path.  When the trimmed field line.[s..e-1] is
   [+-]?digits[.digits] with at most 18 significant digits (so the
   mantissa w fits an int) and k <= 22 fractional digits (so 10^k is
   exact), store its correctly rounded value — the double
   [float_of_string] returns — in [feats.(j)] and return [true].
   Return [false], storing nothing, on anything else and on every case
   it cannot prove: the caller then runs [float_of_string].

   w < 2^53 (or k = 0): [float w] is exact, and one IEEE division of
   two exact doubles is correctly rounded (Clinger's fast path).

   w >= 2^53: w = wh + wl exactly (wh = [float w], |wl| <= 2^6), and
   q1 = wh / 10^k is within an ulp of the quotient Q.  Dekker's product
   gives q1 * 10^k = ph + pl exactly, and wh - ph is exact by Sterbenz,
   so the remainder R = (wh - ph) - pl + wl needs only two roundings,
   and Q = q1 + R / 10^k.  The rounded sum s = q1 + t (t = R / 10^k as
   computed) has an exact error [err] by Fast2Sum, and t is off the true
   tail by at most [bound].  So |Q - s| <= |err| + bound; when that is
   strictly below half the gap to s's nearer neighbour, s is the double
   nearest Q.  Otherwise — Q near or on a midpoint — give up. *)
let store_decimal line s e (feats : float array) j =
  let s = ref s and e = ref e in
  while !s < !e && is_space (String.unsafe_get line !s) do
    incr s
  done;
  while !e > !s && is_space (String.unsafe_get line (!e - 1)) do
    decr e
  done;
  let e = !e and i = ref !s in
  let neg = !i < e && String.unsafe_get line !i = '-' in
  if !i < e && (neg || String.unsafe_get line !i = '+') then incr i;
  let w = ref 0 and digits = ref 0 and sig_digits = ref 0 and k = ref 0 in
  let frac = ref false and stop = ref false in
  while (not !stop) && !i < e do
    (match String.unsafe_get line !i with
    | '0' .. '9' as c ->
        let d = Char.code c - 48 in
        if !sig_digits > 0 || d > 0 then incr sig_digits;
        (* Wraps only past 18 significant digits, which are refused. *)
        w := (!w * 10) + d;
        incr digits;
        if !frac then incr k
    | '.' when not !frac -> frac := true
    | _ -> stop := true);
    if not !stop then incr i
  done;
  if !i <> e || !digits = 0 || !sig_digits > 18 || !k > 22 then false
  else begin
    let w = !w and p = Array.unsafe_get pow10 !k in
    let v =
      if w < two_pow_53 || !k = 0 then float_of_int w /. p
      else begin
        let wh = float_of_int w in
        let wl = float_of_int (w - int_of_float wh) in
        let q1 = wh /. p in
        let ph = q1 *. p in
        let c = splitter *. q1 in
        let qh = c -. (c -. q1) in
        let ql = q1 -. qh in
        let c = splitter *. p in
        let hp = c -. (c -. p) in
        let lp = p -. hp in
        let pl = (qh *. hp -. ph +. (qh *. lp) +. (ql *. hp)) +. (ql *. lp) in
        let r1 = wh -. ph -. pl in
        let r2 = r1 +. wl in
        let t = r2 /. p in
        let sum = q1 +. t in
        let err = t -. (sum -. q1) in
        (* |t - R/10^k| <= 2^-53 ((|r1| + |r2|) / 10^k + |t|); 4x slack
           covers the roundings of the bound itself. *)
        let bound =
          ((Float.abs r1 +. Float.abs r2) /. p *. 0x1p-51)
          +. (Float.abs t *. 0x1p-51)
        in
        if Float.abs err +. bound < (sum -. Float.pred sum) *. 0.5 then sum
        else Float.nan
      end
    in
    if Float.is_nan v then false
    else begin
      Array.unsafe_set feats j (if neg then -.v else v);
      true
    end
  end

(* Field j of the row spans line.[s..e-1], untrimmed. *)
let parse_field lineno line s e feats j =
  if not (store_decimal line s e feats j) then begin
    let raw = String.sub line s (e - s) in
    match float_of_string_opt (String.trim raw) with
    | Some v when Float.is_finite v -> feats.(j) <- v
    | Some _ ->
        (* [float_of_string] happily parses "nan" and overflows "1e999"
           to infinity; either poisons every scatter statistic
           downstream, so reject at the source with the offending input
           line. *)
        fail lineno (Printf.sprintf "non-finite feature %S" raw)
    | None -> fail lineno (Printf.sprintf "bad number %S" raw)
  end

let parse_label lineno line lo c =
  let bad () =
    fail lineno (Printf.sprintf "unknown label %S" (String.sub line lo (c - lo)))
  in
  if c - lo = 1 then
    match line.[lo] with
    | 'A' | 'a' | '1' -> true
    | 'B' | 'b' | '0' -> false
    | _ -> bad ()
  else
    match String.sub line lo (c - lo) with
    | "true" -> true
    | "false" -> false
    | _ -> bad ()

let has_bom line =
  String.length line >= 3
  && line.[0] = '\xEF' && line.[1] = '\xBB' && line.[2] = '\xBF'

(* No trimmed copy, list or field strings: find the trimmed bounds, the
   label's comma and the feature count, then parse each field straight
   into the row's float array. *)
let parse_row lineno line =
  let lo = ref (if lineno = 1 && has_bom line then 3 else 0) in
  let hi = ref (String.length line) in
  while !lo < !hi && is_space (String.unsafe_get line !lo) do
    incr lo
  done;
  while !hi > !lo && is_space (String.unsafe_get line (!hi - 1)) do
    decr hi
  done;
  let lo = !lo and hi = !hi in
  if lo = hi then None
  else begin
    let commas = ref 0 and label_end = ref hi in
    for i = hi - 1 downto lo do
      if String.unsafe_get line i = ',' then begin
        incr commas;
        label_end := i
      end
    done;
    let c = !label_end in
    if c - lo = 5 && String.lowercase_ascii (String.sub line lo 5) = "label"
    then None (* header *)
    else if c = hi then fail lineno "no features"
    else begin
      let feats = Array.create_float !commas in
      let s = ref (c + 1) in
      for j = 0 to !commas - 1 do
        let e = ref !s in
        while !e < hi && String.unsafe_get line !e <> ',' do
          incr e
        done;
        parse_field lineno line !s !e feats j;
        s := !e + 1
      done;
      Some (parse_label lineno line lo c, feats)
    end
  end

let of_seq ~name lines =
  (* Each parsed row keeps its 1-based line number in the original input:
     headers and blank lines are skipped, so the index into the filtered
     row array is NOT the file line. *)
  let rows =
    Seq.fold_lefti
      (fun rows i line ->
        match parse_row (i + 1) line with
        | Some row -> (i + 1, row) :: rows
        | None -> rows)
      [] lines
    |> List.rev |> Array.of_list
  in
  if Array.length rows = 0 then fail 0 "empty dataset";
  let m = Array.length (snd (snd rows.(0))) in
  Array.iter
    (fun (lineno, (_, feats)) ->
      if Array.length feats <> m then
        fail lineno
          (Printf.sprintf "expected %d features, found %d" m
             (Array.length feats)))
    rows;
  Dataset.create ~name
    ~features:(Array.map (fun (_, (_, feats)) -> feats) rows)
    ~labels:(Array.map (fun (_, (label, _)) -> label) rows)

let of_lines ~name lines = of_seq ~name (List.to_seq lines)

let to_lines ds =
  let m = Dataset.n_features ds in
  let header =
    "label," ^ String.concat "," (List.init m (fun j -> Printf.sprintf "x%d" (j + 1)))
  in
  let lines =
    Array.to_list
      (Array.mapi
         (fun i row ->
           (if ds.Dataset.labels.(i) then "A," else "B,")
           ^ String.concat ","
               (List.map
                  (fun v -> Printf.sprintf "%.17g" v)
                  (Array.to_list row)))
         ds.Dataset.features)
  in
  header :: lines

let load path =
  In_channel.with_open_text path (fun ic ->
      of_seq ~name:(Filename.basename path)
        (Seq.of_dispenser (fun () -> In_channel.input_line ic)))

let save path ds =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        (to_lines ds))
