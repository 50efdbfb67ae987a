exception Corrupt of string

let magic = "ldafp-bnb-checkpoint v9"

let p_save =
  Obs.Probe.v "ckpt.save"
    ~count:"checkpoint snapshots written (tmp + fsync + rename)"
    ~seconds:
      (1e-5, 100.0, "wall time of one checkpoint write (serialize + fsync + rename)")

(* Binds the payload to the fingerprint without copying the payload. *)
let digest ~fingerprint payload =
  Digest.to_hex (Digest.string (fingerprint ^ "\n" ^ Digest.string payload))

let save ~path ~fingerprint payload =
  let t0 = Obs.Clock.now_ns () in
  let bytes = Marshal.to_string payload [] in
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let oc = Unix.out_channel_of_descr fd in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun line -> output_string oc line; output_char oc '\n')
        [ magic; fingerprint; digest ~fingerprint bytes ];
      output_string oc bytes;
      flush oc;
      Unix.fsync fd);
  Sys.rename tmp path;
  if Obs.Probe.on () then
    Obs.Probe.span p_save ~t0_ns:t0 ~dur_ns:(Obs.Clock.now_ns () - t0)
      ~args:[ ("bytes", Obs.Trace.Int (String.length bytes)) ]

let load ~fingerprint ~path =
  if not (Sys.file_exists path) then
    raise (Corrupt (Printf.sprintf "no checkpoint at %s" path));
  let corrupt fmt =
    Printf.ksprintf (fun s -> raise (Corrupt (path ^ ": " ^ s))) fmt
  in
  let read ic =
    let line () = try input_line ic with End_of_file -> "" in
    let got_magic = line () in
    if got_magic <> magic then
      corrupt "bad header %S (expected %S): corrupt or older checkpoint"
        got_magic magic;
    let got_fingerprint = line () in
    if got_fingerprint <> fingerprint then
      corrupt
        "checkpoint is for a different problem (fingerprint %s, expected %s)"
        got_fingerprint fingerprint;
    let want = line () in
    let bytes = In_channel.input_all ic in
    (* Nothing reaches [Marshal] unless it is byte-for-byte what [save]
       wrote: a flipped or truncated payload is caught here, not by a
       segfault inside the unmarshaller. *)
    if digest ~fingerprint bytes <> want then
      corrupt "corrupt payload (digest mismatch)";
    Marshal.from_string bytes 0
  in
  (* A path that cannot be opened or read (a directory, no permission,
     an I/O error) is a bad checkpoint like any other, not a crash. *)
  match open_in_bin path with
  | exception Sys_error msg -> corrupt "cannot read: %s" msg
  | ic -> (
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          try read ic with Sys_error msg -> corrupt "cannot read: %s" msg))
