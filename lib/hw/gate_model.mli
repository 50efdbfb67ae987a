(** First-order gate-count model of the classifier datapath.

    The paper's power argument (§5.1) rests on fixed-point arithmetic
    cost being "almost a quadratic function of the word length"
    [Padgett & Anderson].  This module makes that concrete with textbook
    structural counts for the serial multiply-accumulate classifier:

    - ripple-carry adder of width [n]: [n] full adders;
    - array (Baugh-Wooley) multiplier [n × n]: [n²] AND cells and
      [n(n−2)+...] ≈ [n² − 2n] full adders — the quadratic term;
    - registers: one flip-flop per bit.

    Counts are exact integers from the structural formulas, not
    technology-calibrated — they support relative comparisons (the 3×
    word-length ⇒ ≈9× area/power claim), which is all the paper uses. *)

type counts = {
  full_adders : int;
  and_cells : int;
  flipflops : int;
  comparators : int;  (** magnitude-comparator bit slices *)
}

val zero : counts
val ( ++ ) : counts -> counts -> counts

val ripple_adder : width:int -> counts
val array_multiplier : width:int -> counts
(** [width × width] two's-complement (Baugh-Wooley) array multiplier
    producing [2·width] bits. *)

val register : width:int -> counts
val comparator : width:int -> counts

val classifier : width:int -> n_features:int -> counts
(** Full classifier: one serial MAC slice (multiplier + accumulator
    adder + accumulator register; the paper's classifier computes [wᵀx]
    with one such slice over [M] cycles), weight ROM modelled as
    registers ([n_features] words), threshold register, final
    comparator. *)

val gate_equivalents : counts -> float
(** Scalar complexity: FA = 5 gates, AND = 1, FF = 6, comparator slice =
    3.5 (standard-cell rules of thumb). *)

val pp : Format.formatter -> counts -> unit
