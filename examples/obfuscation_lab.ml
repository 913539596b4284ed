(** Obfuscation lab: take one program and put every evader under the
    microscope — size, runtime cost, histogram displacement, and what a
    normalizing optimizer does to each.

    This is the paper's Figures 10 and 13 for a single program, as an
    interactive tour.

    Run with: [dune exec examples/obfuscation_lab.exe] *)

module Rng = Yali.Rng
module E = Yali.Embeddings

let subject =
  {|
int classify(int x) {
  if (x < 10) { return 0; }
  if (x < 100) { return 1; }
  return 2;
}
int main() {
  int n = abs(read_int()) % 24 + 4;
  int counts[3];
  for (int k = 0; k < 3; k = k + 1) { counts[k] = 0; }
  int acc = 0;
  for (int k = 0; k < n; k = k + 1) {
    int x = abs(read_int()) % 500;
    int c = classify(x);
    counts[c] = counts[c] + 1;
    acc = acc + x * (c + 1);
  }
  for (int k = 0; k < 3; k = k + 1) { print_int(counts[k]); }
  print_int(acc % 10007);
  return 0;
}
|}

let input = List.init 32 (fun k -> Int64.of_int ((k * 131) mod 700))

let () =
  let prog = Yali.parse subject in
  let m0 = Yali.lower prog in
  let base = Yali.run m0 input in
  let h0 = E.Histogram.of_module m0 in
  Printf.printf "subject: %d instructions, dynamic cost %d, output %s...\n\n"
    (Yali.Ir.Irmod.instr_count m0) base.cost
    (String.concat ","
       (List.map Int64.to_string (List.filteri (fun i _ -> i < 4) base.output)));

  Printf.printf "%-8s %9s %9s %10s %10s %12s  %s\n" "evader" "instrs"
    "cost" "slowdown" "distance" "dist-postO3" "behaviour";
  Printf.printf "%s\n" (String.make 78 '-');
  List.iter
    (fun (e : Yali.Obfuscation.Evader.t) ->
      let m = e.apply (Rng.make 2023) prog in
      let o = Yali.run ~fuel:100_000_000 m input in
      let same = Yali.Ir.Interp.equal_behaviour base o in
      let d = E.Histogram.euclidean h0 (E.Histogram.of_module m) in
      (* what the classifier's normalizer sees *)
      let m3 = Yali.Transforms.Pipeline.o3 m in
      let h3 = E.Histogram.of_module (Yali.Transforms.Pipeline.o3 m0) in
      let d3 = E.Histogram.euclidean h3 (E.Histogram.of_module m3) in
      Printf.printf "%-8s %9d %9d %9.2fx %10.2f %12.2f  %s\n" e.ename
        (Yali.Ir.Irmod.instr_count m)
        o.cost
        (float_of_int o.cost /. float_of_int base.cost)
        d d3
        (if same then "preserved" else "BROKEN!"))
    Yali.Obfuscation.Evader.all;

  Printf.printf
    "\nReadings:\n\
     - 'distance' is the Euclidean gap between opcode histograms (paper Fig. 10):\n\
    \  the evader's power against a histogram classifier.\n\
     - 'dist-postO3' is the same gap after the classifier normalizes both sides\n\
    \  with -O3 (paper §4.4): source-level tricks collapse, bcf survives.\n\
     - 'slowdown' is the price the evader pays at runtime (paper Fig. 13).\n"
