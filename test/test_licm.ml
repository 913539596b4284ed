(** Dedicated tests for loop-invariant code motion: hoisting of invariant
    pure arithmetic into the preheader, refusal to touch memory traffic
    (no alias analysis: loads never move past stores), and interpreter
    equivalence on loop programs. *)

open Helpers
module Ir = Yali.Ir
module Tx = Yali.Transforms
module Op = Ir.Opcode
module Loops = Ir.Loops

(* opcodes of the instructions sitting inside some loop body of [main] *)
let opcodes_in_loops (m : Ir.Irmod.t) : Op.t list =
  let f = Ir.Irmod.find_func_exn m "main" in
  let loops = Loops.of_func f in
  let in_loop label =
    List.exists (fun l -> Loops.mem loops l label) loops.Loops.loops
  in
  List.concat_map
    (fun (b : Ir.Block.t) ->
      if in_loop b.Ir.Block.label then
        List.map Ir.Instr.opcode b.Ir.Block.instrs
      else [])
    f.Ir.Func.blocks

let count op ops = List.length (List.filter (( = ) op) ops)

let licm_o1 m = Tx.Licm.run (Tx.Mem2reg.run m)

(* -- hoisting of invariant pure arithmetic --------------------------------- *)

let test_hoists_invariant_arithmetic () =
  (* [a * a] and [a + 7] do not depend on the loop; after mem2reg + licm
     they must sit in the preheader, leaving the loop free of Mul *)
  let src =
    "int main() { int a = read_int(); int s = 0; int k = 0; \
     while (k < 10) { s = s + a * a + (a + 7); k = k + 1; } return s; }"
  in
  let m = licm_o1 (lower (parse src)) in
  (match Ir.Verify.check_module m with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "verifier: %a" Ir.Verify.pp_error e);
  let inside = opcodes_in_loops m in
  Alcotest.(check int) "no Mul left inside the loop" 0 (count Op.Mul inside);
  (* the computation still exists somewhere (the preheader) *)
  let f = Ir.Irmod.find_func_exn m "main" in
  let all =
    List.concat_map
      (fun (b : Ir.Block.t) -> List.map Ir.Instr.opcode b.Ir.Block.instrs)
      f.Ir.Func.blocks
  in
  Alcotest.(check bool) "Mul survives outside" true (count Op.Mul all >= 1);
  (* a preheader block was actually inserted *)
  Alcotest.(check bool) "preheader inserted" true
    (List.exists
       (fun (b : Ir.Block.t) ->
         contains_substring b.Ir.Block.label "preheader")
       f.Ir.Func.blocks)

let test_variant_instructions_stay () =
  (* [k * 2] depends on the induction variable: it must not move *)
  let src =
    "int main() { int s = 0; int k = 0; \
     while (k < 8) { s = s + k * 2; k = k + 1; } return s; }"
  in
  let m = licm_o1 (lower (parse src)) in
  Alcotest.(check bool) "loop-variant Mul stays inside" true
    (count Op.Mul (opcodes_in_loops m) >= 1)

(* -- memory traffic is never hoisted --------------------------------------- *)

let test_never_hoists_loads_past_stores () =
  (* a[0] is re-stored every iteration; the load of a[0] feeding [s] is
     only invariant-looking — hoisting it past the store would freeze the
     first value.  LICM has no alias analysis and must leave both alone. *)
  let src =
    "int main() { int a[3]; a[0] = 1; int s = 0; int k = 0; \
     while (k < 6) { s = s + a[0]; a[0] = a[0] + k; k = k + 1; } \
     print_int(s); return a[0]; }"
  in
  let m0 = Tx.Mem2reg.run (lower (parse src)) in
  let m1 = Tx.Licm.run m0 in
  let inside0 = opcodes_in_loops m0 and inside1 = opcodes_in_loops m1 in
  Alcotest.(check int) "loads stay in the loop"
    (count Op.Load inside0) (count Op.Load inside1);
  Alcotest.(check int) "stores stay in the loop"
    (count Op.Store inside0) (count Op.Store inside1);
  (* and the observable behaviour is untouched *)
  let base = Ir.Interp.run m0 [] and after = Ir.Interp.run m1 [] in
  Alcotest.(check bool) "equivalent" true
    (Ir.Interp.equal_behaviour base after)

let test_never_hoists_division () =
  (* a division that only runs when the loop body executes must not be
     hoisted into the preheader: the loop may run zero iterations and the
     hoisted division could trap on a path that never divided *)
  let src =
    "int main() { int a = read_int(); int n = read_int(); int s = 0; \
     int k = 0; while (k < n) { s = s + 100 / a; k = k + 1; } return s; }"
  in
  let m = licm_o1 (lower (parse src)) in
  Alcotest.(check bool) "SDiv stays inside the loop" true
    (count Op.SDiv (opcodes_in_loops m) >= 1);
  (* a = 0 with a zero-trip loop must not trap *)
  let o = Ir.Interp.run m [ 0L; 0L ] in
  Alcotest.(check bool) "zero-trip loop, divisor 0: no trap" true
    (o.Ir.Interp.exit_value = Ir.Interp.RInt 0L)

(* -- interpreter equivalence on loop programs ------------------------------ *)

let loop_programs =
  [
    (* nested counting loops *)
    "int main() { int a = read_int(); int s = 0; int i = 0; \
     while (i < 5) { int j = 0; while (j < 4) { s = s + a * 3 - i; j = j + 1; } \
     i = i + 1; } print_int(s); return s % 256; }";
    (* loop-carried dependence plus invariant expression *)
    "int main() { int a = read_int(); int b = read_int(); int s = 1; \
     int k = 0; while (k < 7) { s = s + s % 13 + (a ^ b); k = k + 1; } \
     print_int(s); return s % 256; }";
    (* do-while with an early break *)
    "int main() { int a = read_int(); int s = 0; int k = 0; \
     do { s = s + (a & 15); if (s > 40) { break; } k = k + 1; } \
     while (k < 9); print_int(s); print_int(k); return 0; }";
    (* array sweep with invariant scale *)
    "int main() { int a = read_int(); int v[5]; int k = 0; \
     while (k < 5) { v[k] = k * (a + 2); k = k + 1; } int s = 0; k = 0; \
     while (k < 5) { s = s + v[k]; k = k + 1; } print_int(s); return 0; }";
  ]

let test_equivalence_on_loop_programs () =
  List.iter
    (fun src ->
      let m0 = lower (parse src) in
      List.iter
        (fun input ->
          let base = Ir.Interp.run m0 input in
          let via_licm = Ir.Interp.run (Tx.Licm.run m0) input in
          let via_o1 = Ir.Interp.run (licm_o1 m0) input in
          Alcotest.(check bool) "licm alone equivalent" true
            (Ir.Interp.equal_behaviour base via_licm);
          Alcotest.(check bool) "mem2reg+licm equivalent" true
            (Ir.Interp.equal_behaviour base via_o1))
        [ []; [ 3L ]; [ -7L; 5L ]; [ 100L; -100L ] ])
    loop_programs

(* dataset-wide semantic preservation, like the other passes have *)
let test_licm_preserves =
  qtest ~count:40 "licm preserves behaviour" (preserves_behaviour Tx.Licm.run)

let test_mem2reg_licm_preserves =
  qtest ~count:40 "mem2reg+licm preserves behaviour"
    (preserves_behaviour licm_o1)

let suite =
  [
    Alcotest.test_case "hoists invariant arithmetic" `Quick
      test_hoists_invariant_arithmetic;
    Alcotest.test_case "loop-variant instructions stay" `Quick
      test_variant_instructions_stay;
    Alcotest.test_case "loads never hoisted past stores" `Quick
      test_never_hoists_loads_past_stores;
    Alcotest.test_case "division never hoisted" `Quick
      test_never_hoists_division;
    Alcotest.test_case "equivalence on loop programs" `Quick
      test_equivalence_on_loop_programs;
    test_licm_preserves;
    test_mem2reg_licm_preserves;
  ]
