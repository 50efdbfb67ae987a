(** Binary-classification outcome counting.

    Class [A] is "positive".  Error rate here is the plain misclassified
    fraction, matching the paper's Tables 1–2. *)

type t = { tp : int; fp : int; tn : int; fn : int }

val empty : t
val add : t -> truth:bool -> predicted:bool -> t
(** [truth]/[predicted] are [true] for class A. *)

val of_predictions : truth:bool array -> predicted:bool array -> t
(** @raise Invalid_argument on length mismatch. *)

val merge : t -> t -> t
val total : t -> int
val errors : t -> int
val error_rate : t -> float
(** @raise Invalid_argument on an empty confusion. *)

val accuracy : t -> float
val sensitivity : t -> float
(** True-positive rate; [nan] when there are no positives. *)

val specificity : t -> float
val pp : Format.formatter -> t -> unit
