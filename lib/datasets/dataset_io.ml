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

(* The correctly rounded double nearest w / 10^k (0 <= w < 10^18,
   k <= 22) — the one [float_of_string] returns — or NaN when it cannot
   be proved quickly.

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
let[@inline] exact_quotient w k =
  let p = Array.unsafe_get pow10 k in
  if w < two_pow_53 || k = 0 then float_of_int w /. p
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

(* Eight bytes at a time, after Lemire, "Number parsing at a gigabyte
   per second" (SPE 2021).  A word read with [String.get_int64_le] holds
   byte i of the string in its byte i. *)

(* All eight bytes are '0'..'9': each high nibble is 3, and adding 6
   leaves it 3 (':'..'?' carry into 4).  A byte whose high nibble is
   not 3 fails on its own, so carries between bytes cannot matter. *)
let[@inline] eight_digits (x : int64) =
  Int64.logor
    (Int64.logand x 0xF0F0F0F0F0F0F0F0L)
    (Int64.shift_right_logical
       (Int64.logand (Int64.add x 0x0606060606060606L) 0xF0F0F0F0F0F0F0F0L)
       4)
  = 0x3333333333333333L

(* The value of eight digit bytes, first byte most significant: pairs,
   then quads, then the whole in three multiplies.  Digit bytes leave
   bit 63 clear, so the word fits an [int]; every partial sum stays
   below 2^60. *)
let[@inline] eight_value x =
  let v = Int64.to_int x - 0x3030303030303030 in
  let v = (v * 10) + (v lsr 8) in
  let m = 0x000000FF000000FF in
  let pairs_low = v land m and pairs_high = (v lsr 16) land m in
  ((pairs_low * 0x000F424000000064) + (pairs_high * 0x0000271000000001))
  lsr 32

(* Commas in line.[s..e-1].  A byte of [x] is zero exactly when its low
   seven bits plus 0x7F, or-ed with itself, leave the high bit clear —
   no carry crosses a byte. *)
let count_commas line s e =
  let n = ref 0 and i = ref s in
  while !i + 8 <= e do
    let x = Int64.logxor (String.get_int64_le line !i) 0x2C2C2C2C2C2C2C2CL in
    let low7 = 0x7F7F7F7F7F7F7F7FL in
    let t = Int64.logor (Int64.add (Int64.logand x low7) low7) x in
    let zeros = Int64.logand (Int64.lognot t) 0x8080808080808080L in
    (* One per zero byte, summed into the top byte. *)
    n :=
      !n
      + Int64.to_int
          (Int64.shift_right_logical
             (Int64.mul (Int64.shift_right_logical zeros 7) 0x0101010101010101L)
             56);
    i := !i + 8
  done;
  for i = !i to e - 1 do
    if String.unsafe_get line i = ',' then incr n
  done;
  !n

(* The decimal [+-]?digits[.digits][(e|E)[+-]digits] at line.[s..], in
   one scan that stops at the first byte that is not part of it.  When
   that byte is a comma or [hi], and the number has a mantissa digit, at
   most 18 significant digits (so the mantissa w fits an int) and a
   value w / 10^k with 0 <= k <= 22 (so 10^k is exact: at most 22
   fractional digits net of the exponent, and no net positive
   exponent), store its value in [feats.(j)] and return where it
   stopped.  Return -1, storing nothing, on anything else or when
   {!exact_quotient} declines: the caller then runs [float_of_string]. *)
let decimal line s hi (feats : float array) j =
  if s >= hi then -1
  else begin
    let c = String.unsafe_get line s in
    let neg = c = '-' in
    let start = if neg || c = '+' then s + 1 else s in
    let i = ref start and w = ref 0 and dot = ref (-1) and more = ref true in
    while !more do
      let eight = ref true in
      while !eight && !i + 8 <= hi do
        let x = String.get_int64_le line !i in
        if eight_digits x then begin
          (* Wraps only past 18 significant digits, which are refused. *)
          w := (!w * 100_000_000) + eight_value x;
          i := !i + 8
        end
        else eight := false
      done;
      while
        !i < hi
        &&
        match String.unsafe_get line !i with
        | '0' .. '9' as d ->
            w := (!w * 10) + (Char.code d - 48);
            true
        | _ -> false
      do
        incr i
      done;
      if !dot < 0 && !i < hi && String.unsafe_get line !i = '.' then begin
        dot := !i;
        incr i
      end
      else more := false
    done;
    let m = !i in
    let digits = m - start - (if !dot < 0 then 0 else 1) in
    (* The value is w / 10^k: k counts the fractional digits, less the
       exponent's value. *)
    let e = ref m and k = ref (if !dot < 0 then 0 else m - !dot - 1) in
    if m < hi && Char.lowercase_ascii (String.unsafe_get line m) = 'e' then
    begin
      let p = ref (m + 1) in
      let minus = !p < hi && String.unsafe_get line !p = '-' in
      if minus || (!p < hi && String.unsafe_get line !p = '+') then incr p;
      let from = !p and x = ref 0 in
      while
        !p < hi
        &&
        match String.unsafe_get line !p with
        | '0' .. '9' as d ->
            (* Saturates: any exponent past 1000 is refused alike. *)
            if !x < 1000 then x := (!x * 10) + (Char.code d - 48);
            true
        | _ -> false
      do
        incr p
      done;
      (* An exponent without digits leaves [e] on the 'e', refused below. *)
      if !p > from then begin
        e := !p;
        k := if minus then !k + !x else !k - !x
      end
    end;
    let e = !e and k = !k in
    if (e < hi && String.unsafe_get line e <> ',') || digits = 0 || k < 0
       || k > 22
    then -1
    else begin
      (* Leading zeros are not significant; count them only when they
         could matter. *)
      let zeros = ref 0 and z = ref start in
      if digits > 18 then
        while
          !z < m
          &&
          match String.unsafe_get line !z with
          | '0' -> incr zeros; true
          | '.' -> true
          | _ -> false
        do
          incr z
        done;
      if digits - !zeros > 18 then -1
      else begin
        let v = exact_quotient !w k in
        if Float.is_nan v then -1
        else begin
          Array.unsafe_set feats j (if neg then -.v else v);
          e
        end
      end
    end
  end

(* Field j of the row spans line.[s..e-1], untrimmed: the exact path on
   the trimmed field, else [float_of_string]. *)
let parse_field lineno line s e feats j =
  let s' = ref s and e' = ref e in
  while !s' < !e' && is_space (String.unsafe_get line !s') do
    incr s'
  done;
  while !e' > !s' && is_space (String.unsafe_get line (!e' - 1)) do
    decr e'
  done;
  if decimal line !s' !e' feats j < 0 then begin
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

(* No trimmed copy, list or field strings: find the trimmed bounds and
   the label's comma, count the commas after it eight bytes at a time,
   then read each field in one scan straight into the row's float
   array.  A field that scan refuses is cut at its comma and handed to
   [parse_field]. *)
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
    let c = ref lo in
    while !c < hi && String.unsafe_get line !c <> ',' do
      incr c
    done;
    let c = !c in
    if c - lo = 5 && String.lowercase_ascii (String.sub line lo 5) = "label"
    then None (* header *)
    else if c = hi then fail lineno "no features"
    else begin
      let feats = Array.create_float (count_commas line (c + 1) hi + 1) in
      let s = ref (c + 1) in
      for j = 0 to Array.length feats - 1 do
        let e = decimal line !s hi feats j in
        if e >= 0 then s := e + 1
        else begin
          let e = ref !s in
          while !e < hi && String.unsafe_get line !e <> ',' do
            incr e
          done;
          parse_field lineno line !s !e feats j;
          s := !e + 1
        end
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
