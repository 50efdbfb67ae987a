(** Synthesizable Verilog-2001 for a trained fixed-point classifier.

    Emits a self-contained module implementing the serial MAC datapath of
    {!Datapath}: a weight ROM holding the trained [QK.F] codes, one
    [WL × WL] signed multiplier with round-to-nearest-even truncation of
    the low fractional bits, a wrapping accumulator, and a signed
    comparator against the threshold — i.e. the circuit the LDA-FP
    constraints were designed for.  A matching self-checking testbench can
    be emitted from a set of input/expected-output vectors produced by the
    OCaml datapath simulation. *)

type spec = {
  module_name : string;
  fmt : Fixedpoint.Qformat.t;
  weights : Fixedpoint.Fx_vector.t;
  threshold : Fixedpoint.Fx.t;
  polarity : bool;
}

val spec_of_weights :
  fmt:Fixedpoint.Qformat.t ->
  weights:Linalg.Vec.t ->
  threshold:float ->
  unit ->
  spec
(** Quantise a float solution into a hardware spec: module
    [ldafp_classifier], class A when [y >= threshold]. *)

val module_source : spec -> string
(** The classifier module: ports [clk], [rst], [start], [x_in] (one
    feature per cycle), [valid], [class_a]. *)

type test_vector = { inputs : Fixedpoint.Fx_vector.t; expected : bool }

val testbench_source : spec -> test_vector list -> string
(** Self-checking testbench driving the module with the vectors and
    [$fatal]-ing on mismatch. *)

val rom_contents : spec -> (int * string) list
(** [(index, binary-string)] rows of the weight ROM, for documentation
    and for tests of the emitter itself. *)
