(** Durable run ledger: one [ldafp-run/1] JSON record per CLI
    invocation, appended to a JSONL file with the {!Checkpoint}-style
    tmp+fsync+rename discipline, plus the regression diff that
    [ldafp runs diff] and CI gate on.

    A record is a single JSON object on one line:

    {v
    {"schema": "ldafp-run/1", "kind": "train", "unix_time": ...,
     "timestamp_utc": "...", "argv": [...],
     "environment": {"cores_detected": ..., "ocaml_version": ...,
                     "hostname": ..., "word_size": ..., "os": ...},
     <caller sections: "config", "stats", "metrics", ...>}
    v}

    The environment block exists so the ROADMAP single-core caveat is
    machine-checkable: a timing is only comparable to another taken
    with the same [cores_detected].

    {b Durability.} {!append} never writes in place: it rewrites the
    whole ledger to a temp file ([path ^ ".tmp"]), [fsync]s, and
    [rename]s over the original — a crash at any instant leaves either
    the old ledger or the new one, never a torn line.  {!load} is
    additionally lenient: malformed lines (e.g. a tail truncated by a
    crash of some {e other} writer) are counted and skipped, so prior
    records always remain readable. *)

val schema : string
(** ["ldafp-run/1"]. *)

val environment : unit -> Json.t
(** [{cores_detected, ocaml_version, hostname, word_size, os}] for the
    running process. *)

val record :
  kind:string -> ?argv:string list -> (string * Json.t) list -> Json.t
(** [record ~kind sections] builds a ledger record: schema, [kind]
    (["train"] / ["classify"]), timestamps, [argv]
    (default [Sys.argv]), {!environment}, then the caller [sections]
    appended as top-level keys. *)

val append : path:string -> Json.t -> (unit, string) result
(** Append one record to the JSONL ledger at [path] (created if
    missing) via tmp+fsync+rename.  Returns [Error msg] on I/O failure
    instead of raising — ledger writes must never kill a run that just
    finished. *)

val load : path:string -> (Json.t list * int, string) result
(** [load ~path] returns [(records, malformed)] — every line that
    parses as JSON, in file order, plus the count of lines that did
    not.  A missing file is an empty ledger ([Ok ([], 0)]);
    [Error] only when an existing file cannot be read. *)

(** {1 Regression diffing} *)

type finding = {
  path : string;  (** dotted leaf path, e.g. ["parallel.experiments[0].warm_hit_rate"] *)
  baseline : Json.t;
  candidate : Json.t;
  message : string;
}
(** A certified invariant that changed between two records. *)

val diff : baseline:Json.t -> candidate:Json.t -> finding list
(** Compare two ledger records leaf-by-leaf (paths must match exactly)
    and return the regressions, in the candidate's leaf order:

    - [certified_sound] [true -> false];
    - [cert_fallbacks] increased (in particular [0 -> >0]);
    - [warm_hit_rate] dropped by more than [0.1] (absolute).

    Leaves present in only one record are ignored (schemas may grow).
    Timing is not compared: no record kind carries a timing leaf. *)

val findings_json : finding list -> Json.t
(** Machine-readable diff output:
    [{schema: "ldafp-diff/1", correctness_regressions: n,
      findings: [{path, baseline, candidate, message}, ...]}]. *)
