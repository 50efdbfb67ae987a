(* Durable run ledger: JSONL records with atomic appends (rewrite to
   tmp, fsync, rename — the Checkpoint discipline) and the regression
   diff behind [ldafp runs diff].  See run_ledger.mli for the record
   schema and diff semantics. *)

let schema = "ldafp-run/1"

let environment () =
  let os = if Sys.win32 then "win32" else if Sys.cygwin then "cygwin" else "unix" in
  let hostname = try Unix.gethostname () with _ -> "unknown" in
  Json.Obj
    [
      ("cores_detected", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml_version", Json.Str Sys.ocaml_version);
      ("hostname", Json.Str hostname);
      ("word_size", Json.Int Sys.word_size);
      ("os", Json.Str os);
    ]

let timestamp_utc t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let record ~kind ?argv sections =
  let argv =
    match argv with Some a -> a | None -> Array.to_list Sys.argv
  in
  let t = Unix.gettimeofday () in
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("kind", Json.Str kind);
       ("unix_time", Json.Float t);
       ("timestamp_utc", Json.Str (timestamp_utc t));
       ("argv", Json.List (List.map (fun a -> Json.Str a) argv));
       ("environment", environment ());
     ]
    @ sections)

(* ------------------------------------------------------------------ *)
(* Atomic append                                                       *)
(* ------------------------------------------------------------------ *)

(* Read to EOF: a directory opens, but sizing it fails with EOVERFLOW
   ("Value too large for defined data type"), while reading it fails
   with the EISDIR a user can act on. *)
let read_file path =
  if Sys.file_exists path then In_channel.with_open_bin path In_channel.input_all
  else ""

let append ~path record =
  match
    let existing = read_file path in
    let line = Json.to_string record in
    let tmp = path ^ ".tmp" in
    let fd = Unix.openfile tmp [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let oc = Unix.out_channel_of_descr fd in
        output_string oc existing;
        if existing <> "" && existing.[String.length existing - 1] <> '\n' then
          (* A ledger truncated mid-line by some other writer's crash:
             close the torn line so the new record stays parseable. *)
          output_char oc '\n';
        output_string oc line;
        output_char oc '\n';
        flush oc;
        (* The rename is only atomic-durable if the data hit the disk
           first. *)
        Unix.fsync fd);
    Sys.rename tmp path
  with
  | () -> Ok ()
  | exception Unix.Unix_error (err, _, arg) ->
      Error
        (Printf.sprintf "run ledger %s: %s (%s)" path
           (Unix.error_message err) arg)
  | exception Sys_error msg -> Error (Printf.sprintf "run ledger: %s" msg)

let load ~path =
  match read_file path with
  | exception Sys_error msg -> Error (Printf.sprintf "run ledger: %s" msg)
  | contents ->
      let records, malformed =
        String.split_on_char '\n' contents
        |> List.fold_left
             (fun (recs, bad) line ->
               if String.trim line = "" then (recs, bad)
               else
                 match Json.parse line with
                 | Ok j -> (j :: recs, bad)
                 | Error _ -> (recs, bad + 1))
             ([], 0)
      in
      Ok (List.rev records, malformed)

(* ------------------------------------------------------------------ *)
(* Regression diffing                                                  *)
(* ------------------------------------------------------------------ *)

type finding = {
  path : string;
  baseline : Json.t;
  candidate : Json.t;
  message : string;
}

(* Flatten a record into dotted leaf paths ("parallel.experiments[0]
   .warm_hit_rate").  Diffing walks exact path pairs, so the same key
   appearing in several experiments is compared per-experiment. *)
let leaves j =
  let acc = ref [] in
  let rec go prefix = function
    | Json.Obj kvs ->
        List.iter
          (fun (k, v) ->
            go (if prefix = "" then k else prefix ^ "." ^ k) v)
          kvs
    | Json.List xs ->
        List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" prefix i) v) xs
    | leaf -> acc := (prefix, leaf) :: !acc
  in
  go "" j;
  List.rev !acc

let leaf_key path =
  (* Last dotted segment, list index stripped: "a.b[3].c" -> "c",
     "experiments[2].warm_hit_rate" -> "warm_hit_rate". *)
  let seg =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match String.index_opt seg '[' with
  | Some i -> String.sub seg 0 i
  | None -> seg

let as_number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let as_flag = function
  | Json.Bool b -> Some b
  | Json.Int i -> Some (i <> 0)
  | _ -> None

(* An absolute warm_hit_rate drop larger than this is a regression. *)
let warm_drop = 0.1

let diff ~baseline ~candidate =
  let base = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace base p v) (leaves baseline);
  let findings = ref [] in
  let emit path b c fmt =
    Printf.ksprintf
      (fun message ->
        findings := { path; baseline = b; candidate = c; message } :: !findings)
      fmt
  in
  List.iter
    (fun (path, cand) ->
      match Hashtbl.find_opt base path with
      | None -> () (* schemas may grow; only shared leaves are compared *)
      | Some b -> (
          match leaf_key path with
          | "certified_sound" -> (
              match (as_flag b, as_flag cand) with
              | Some true, Some false ->
                  emit path b cand "certified_sound regressed true -> false"
              | _ -> ())
          | "cert_fallbacks" -> (
              match (as_number b, as_number cand) with
              | Some vb, Some vc when vc > vb ->
                  emit path b cand "cert_fallbacks increased %g -> %g" vb vc
              | _ -> ())
          | "warm_hit_rate" -> (
              match (as_number b, as_number cand) with
              | Some vb, Some vc when vb -. vc > warm_drop ->
                  emit path b cand
                    "warm_hit_rate dropped %.3f -> %.3f (more than %g)" vb vc
                    warm_drop
              | _ -> ())
          | _ -> ()))
    (leaves candidate);
  List.rev !findings

let findings_json findings =
  Json.Obj
    [
      ("schema", Json.Str "ldafp-diff/1");
      ("correctness_regressions", Json.Int (List.length findings));
      ( "findings",
        Json.List
          (List.map
             (fun f ->
               Json.Obj
                 [
                   ("path", Json.Str f.path);
                   ("baseline", f.baseline);
                   ("candidate", f.candidate);
                   ("message", Json.Str f.message);
                 ])
             findings) );
    ]
