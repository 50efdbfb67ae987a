(** Atomic, digest-checked snapshot files.

    This module owns the file format only; what a snapshot contains is
    {!Bnb.snapshot}.

    {2 File format and atomicity}

    A checkpoint file is three text lines followed by a [Marshal] blob:

    {v ldafp-bnb-checkpoint v9
       <fingerprint>
       <MD5 hex of (fingerprint ^ "\n" ^ MD5 of payload)>
       <marshalled payload> v}

    The version in the first line is bumped on any change to a
    marshalled type — {!Bnb.snapshot} or a region/solution type stored
    in it.  Files with any other header, including every older version,
    are rejected rather than migrated.

    {!load} checks the header, then the fingerprint, then the digest,
    {e before} anything is unmarshalled.  A garbage file, a checkpoint
    from a different problem, or a payload with any byte flipped or
    missing therefore fails with {!Corrupt} instead of undefined
    behaviour.  [save] writes to [path ^ ".tmp"], flushes and fsyncs,
    then [Sys.rename]s over the target — on POSIX filesystems the
    checkpoint at [path] is therefore always either the complete
    previous snapshot or the complete new one, never a torn write, even
    if the process is killed mid-save.

    Payloads must not contain closures (the search regions of the
    LDA-FP solver are plain records of floats and arrays). *)

exception Corrupt of string
(** Missing file, a path that cannot be opened or read (a directory, no
    permission), bad magic or version, fingerprint mismatch, or a
    payload that fails its digest (truncated, bit-flipped). *)

val save : path:string -> fingerprint:string -> 'a -> unit
(** Atomically (tmp + fsync + rename) persist [payload] under the
    single-line [fingerprint] that names the problem instance.
    @raise Sys_error on I/O failure. *)

val load : fingerprint:string -> path:string -> 'a
(** Read a checkpoint back, checking it was saved under [fingerprint].
    The caller must instantiate ['a] at the type that was saved: the
    fingerprint and format version are the guard rails for that, the
    digest guards the bytes.
    @raise Corrupt on any validation failure. *)
