open Fixedpoint

type spec = {
  module_name : string;
  fmt : Qformat.t;
  weights : Fx_vector.t;
  threshold : Fx.t;
  polarity : bool;
}

let spec_of_weights ~fmt ~weights ~threshold () =
  {
    module_name = "ldafp_classifier";
    fmt;
    weights = Fx_vector.of_floats ~ov:Rounding.Saturate fmt weights;
    threshold = Fx.of_float ~ov:Rounding.Saturate fmt threshold;
    polarity = true;
  }

let binary_of_raw fmt raw =
  let wl = Qformat.word_length fmt in
  let raw = Qformat.wrap_raw fmt raw land ((1 lsl wl) - 1) in
  String.init wl (fun i ->
      if raw land (1 lsl (wl - 1 - i)) <> 0 then '1' else '0')

let rom_contents spec =
  List.init (Fx_vector.length spec.weights) (fun i ->
      (i, binary_of_raw spec.fmt (Fx.raw (Fx_vector.get spec.weights i))))

let module_source spec =
  let wl = Qformat.word_length spec.fmt in
  let f = spec.fmt.Qformat.f in
  let m = Fx_vector.length spec.weights in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "// Generated by ldafp: fixed-point LDA classifier\n";
  pf "// Format %s (word length %d), %d features, polarity %s\n"
    (Qformat.to_string spec.fmt) wl m
    (if spec.polarity then "A when y >= thr" else "A when y < thr");
  pf "module %s (\n" spec.module_name;
  pf "  input  wire                  clk,\n";
  pf "  input  wire                  rst,\n";
  pf "  input  wire                  start,\n";
  pf "  input  wire signed [%d:0]    x_in,\n" (wl - 1);
  pf "  output reg                   valid,\n";
  pf "  output reg                   class_a\n";
  pf ");\n\n";
  pf "  localparam integer M = %d;\n" m;
  pf "  localparam signed [%d:0] THRESHOLD = %d'b%s;\n" (wl - 1) wl
    (binary_of_raw spec.fmt (Fx.raw spec.threshold));
  pf "\n  // Weight ROM (trained by LDA-FP)\n";
  pf "  reg signed [%d:0] w_rom [0:M-1];\n" (wl - 1);
  pf "  initial begin\n";
  List.iter
    (fun (i, bits) -> pf "    w_rom[%d] = %d'b%s;\n" i wl bits)
    (rom_contents spec);
  pf "  end\n\n";
  pf "  reg [%d:0] idx;\n" (max 0 (31 - Stdlib.min 31 0));
  pf "  reg running;\n";
  pf "  reg signed [%d:0] acc;\n" (wl - 1);
  pf "  wire signed [%d:0] product_full = w_rom[idx] * x_in;\n"
    ((2 * wl) - 1);
  if f > 0 then begin
    pf "  // Round-to-nearest-even of the low %d fractional bits\n" f;
    pf "  wire signed [%d:0] product_shifted = product_full >>> %d;\n"
      ((2 * wl) - 1) f;
    pf "  wire round_up = product_full[%d] & (|product_full[%d:0] | product_shifted[0]);\n"
      (f - 1)
      (max 0 (f - 2));
    pf "  wire signed [%d:0] product = product_shifted[%d:0] + {{%d{1'b0}}, round_up};\n"
      (wl - 1) (wl - 1) (wl - 1)
  end
  else
    pf "  wire signed [%d:0] product = product_full[%d:0];\n" (wl - 1) (wl - 1);
  pf "\n  always @(posedge clk) begin\n";
  pf "    if (rst) begin\n";
  pf "      idx <= 0; acc <= 0; running <= 1'b0; valid <= 1'b0;\n";
  pf "    end else if (start && !running) begin\n";
  pf "      idx <= 0; acc <= 0; running <= 1'b1; valid <= 1'b0;\n";
  pf "    end else if (running) begin\n";
  pf "      acc <= acc + product;  // two's-complement wrap-around\n";
  pf "      if (idx == M - 1) begin\n";
  pf "        running <= 1'b0;\n";
  pf "        valid <= 1'b1;\n";
  pf "      end else begin\n";
  pf "        idx <= idx + 1;\n";
  pf "      end\n";
  pf "    end\n";
  pf "  end\n\n";
  pf "  always @(posedge clk) begin\n";
  pf "    if (valid) class_a <= %s;\n"
    (if spec.polarity then "(acc >= THRESHOLD)" else "(acc < THRESHOLD)");
  pf "  end\n\n";
  pf "endmodule\n";
  Buffer.contents buf

type test_vector = { inputs : Fx_vector.t; expected : bool }

let testbench_source spec vectors =
  let wl = Qformat.word_length spec.fmt in
  let m = Fx_vector.length spec.weights in
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "// Self-checking testbench for %s\n" spec.module_name;
  pf "`timescale 1ns/1ps\n";
  pf "module %s_tb;\n" spec.module_name;
  pf "  reg clk = 0, rst = 1, start = 0;\n";
  pf "  reg signed [%d:0] x_in;\n" (wl - 1);
  pf "  wire valid, class_a;\n";
  pf "  %s dut (.clk(clk), .rst(rst), .start(start), .x_in(x_in), .valid(valid), .class_a(class_a));\n"
    spec.module_name;
  pf "  always #5 clk = ~clk;\n";
  pf "  reg signed [%d:0] stim [0:%d];\n" (wl - 1)
    (max 0 ((List.length vectors * m) - 1));
  pf "  initial begin\n";
  List.iteri
    (fun v { inputs; _ } ->
      for i = 0 to m - 1 do
        pf "    stim[%d] = %d'b%s;\n"
          ((v * m) + i)
          wl
          (binary_of_raw spec.fmt (Fx.raw (Fx_vector.get inputs i)))
      done)
    vectors;
  pf "  end\n";
  pf "  integer v, i;\n";
  pf "  initial begin\n";
  pf "    #12 rst = 0;\n";
  List.iteri
    (fun v { expected; _ } ->
      pf "    // vector %d\n" v;
      pf "    @(negedge clk) start = 1;\n";
      pf "    @(negedge clk) start = 0;\n";
      for i = 0 to m - 1 do
        pf "    x_in = stim[%d]; @(negedge clk);\n" ((v * m) + i)
      done;
      pf "    wait (valid); @(negedge clk); @(negedge clk);\n";
      pf "    if (class_a !== 1'b%d) begin\n" (if expected then 1 else 0);
      pf "      $display(\"FAIL vector %d\"); $finish(1);\n" v;
      pf "    end\n")
    vectors;
  pf "    $display(\"PASS (%d vectors)\");\n" (List.length vectors);
  pf "    $finish(0);\n";
  pf "  end\n";
  pf "endmodule\n";
  Buffer.contents buf
