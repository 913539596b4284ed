(** Tests for the reference interpreter: arithmetic semantics, memory,
    control flow, intrinsics, traps and the cost model. *)

open Helpers
module Ir = Yali.Ir
module I = Ir.Instr
module T = Ir.Types

let check_exit expected src =
  Alcotest.(check int) src expected (exit_int (run_src src))

let check_output expected ?input src =
  Alcotest.(check (list int)) src expected (outputs (run_src ?input src))

let test_arith () =
  check_exit 7 "int main() { return 3 + 4; }";
  check_exit (-1) "int main() { return 3 - 4; }";
  check_exit 12 "int main() { return 3 * 4; }";
  check_exit 2 "int main() { int a = 9; return a / 4; }";
  check_exit 1 "int main() { int a = 9; return a % 4; }";
  (* C semantics: division truncates toward zero *)
  check_exit (-2) "int main() { int a = 0 - 9; return a / 4; }";
  check_exit (-1) "int main() { int a = 0 - 9; return a % 4; }"

let test_bitwise () =
  check_exit 4 "int main() { int a = 6; return a & 12; }";
  check_exit 14 "int main() { int a = 6; return a | 12; }";
  check_exit 10 "int main() { int a = 6; return a ^ 12; }";
  check_exit 24 "int main() { int a = 6; return a << 2; }";
  check_exit 1 "int main() { int a = 6; return a >> 2; }";
  check_exit (-7) "int main() { int a = 6; return ~a; }"

let test_i32_wraparound () =
  (* 2^31 - 1 + 1 wraps to -2^31 in 32-bit arithmetic *)
  check_exit (-2147483648)
    "int main() { int a = 2147483647; return a + 1; }"

let test_comparisons () =
  check_exit 1 "int main() { int a = 3; return a < 4; }";
  check_exit 0 "int main() { int a = 4; return a < 4; }";
  check_exit 1 "int main() { int a = 4; return a <= 4; }";
  check_exit 1 "int main() { int a = 5; return a != 4; }";
  check_exit 1 "int main() { int a = 4; return a == 4; }"

let test_short_circuit_effects () =
  (* the second read must not happen when the first operand decides *)
  check_output [ 1 ]
    ~input:[ 0L; 99L ]
    "int main() { int a = read_int(); if (a != 0 && read_int() > 50) { print_int(2); } else { print_int(1); } return 0; }";
  (* both reads happen when needed *)
  check_output [ 2 ]
    ~input:[ 1L; 99L ]
    "int main() { int a = read_int(); if (a != 0 && read_int() > 50) { print_int(2); } else { print_int(1); } return 0; }"

let test_ternary () =
  check_exit 10 "int main() { int a = 1; return a ? 10 : 20; }";
  check_exit 20 "int main() { int a = 0; return a ? 10 : 20; }"

let test_control_flow () =
  check_output [ 0; 1; 2 ]
    "int main() { for (int k = 0; k < 3; k = k + 1) { print_int(k); } return 0; }";
  check_output [ 3; 2; 1 ]
    "int main() { int k = 3; while (k > 0) { print_int(k); k = k - 1; } return 0; }";
  check_output [ 0 ]
    "int main() { int k = 0; do { print_int(k); k = k + 1; } while (k < 1); return 0; }"

let test_break_continue () =
  check_output [ 0; 1; 2 ]
    "int main() { for (int k = 0; k < 10; k = k + 1) { if (k == 3) { break; } print_int(k); } return 0; }";
  check_output [ 0; 2; 4 ]
    "int main() { for (int k = 0; k < 5; k = k + 1) { if (k % 2 == 1) { continue; } print_int(k); } return 0; }"

let test_switch () =
  let src k =
    Printf.sprintf
      "int main() { int x = %d; switch (x) { case 1: { return 10; } case 2: { return 20; } default: { return 30; } } return 0; }"
      k
  in
  Alcotest.(check int) "case 1" 10 (exit_int (run_src (src 1)));
  Alcotest.(check int) "case 2" 20 (exit_int (run_src (src 2)));
  Alcotest.(check int) "default" 30 (exit_int (run_src (src 7)))

let test_arrays () =
  check_exit 55
    "int main() { int a[10]; for (int k = 0; k < 10; k = k + 1) { a[k] = k + 1; } int s = 0; for (int k = 0; k < 10; k = k + 1) { s = s + a[k]; } return s; }";
  (* arrays are zero-initialised *)
  check_exit 0 "int main() { int a[5]; return a[3]; }"

let test_functions_and_recursion () =
  check_exit 120
    "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main() { return fact(5); }";
  check_exit 8
    "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); } int main() { return fib(6); }"

let test_floats () =
  let o = run_src "int main() { double x = 1.5; double y = 2.5; print_float(x * y); return 0; }" in
  Alcotest.(check int) "one float out" 1 (List.length o.foutput);
  Alcotest.(check bool) "value" true (approx (List.hd o.foutput) 3.75)

let test_intrinsics () =
  check_exit 5 "int main() { int a = 0 - 5; return abs(a); }";
  check_exit 3 "int main() { return min(7, 3); }";
  check_exit 7 "int main() { return max(7, 3); }"

let test_input_exhaustion () =
  (* reads past the end of input return 0 rather than trapping *)
  Alcotest.(check int) "read on empty" 0
    (exit_int (run_src ~input:[] "int main() { return read_int(); }"))

let test_div_by_zero_traps () =
  Alcotest.check_raises "sdiv 0"
    (Ir.Interp.Trap "division by zero")
    (fun () -> ignore (run_src "int main() { int z = 0; return 4 / z; }"))

let test_oob_store_traps () =
  (* the interpreter's bump allocator bounds every frame: a store past the
     allocation frontier traps rather than corrupting memory *)
  let b = Ir.Builder.create ~name:"main" ~param_tys:[] ~ret:T.I32 in
  let entry = Ir.Builder.new_block b in
  Ir.Builder.switch_to b entry;
  let p = Ir.Builder.alloca b T.I32 in
  let far = Ir.Builder.gep b ~ty:(T.Ptr T.I32) p [ Ir.Value.i32 999999 ] in
  Ir.Builder.store b (Ir.Value.i32 1) far;
  Ir.Builder.ret b (Some (Ir.Value.i32 0));
  let m = Ir.Irmod.make ~name:"m" [ Ir.Builder.finish b ] in
  Alcotest.(check bool) "traps" true
    (match Ir.Interp.run m [] with
    | exception Ir.Interp.Trap _ -> true
    | _ -> false)

let test_unknown_callee_traps () =
  let b = Ir.Builder.create ~name:"main" ~param_tys:[] ~ret:T.I32 in
  let entry = Ir.Builder.new_block b in
  Ir.Builder.switch_to b entry;
  let r = Ir.Builder.call b ~ty:T.I32 "no_such_fn" [] in
  Ir.Builder.ret b (Some r);
  let m = Ir.Irmod.make ~name:"m" [ Ir.Builder.finish b ] in
  Alcotest.(check bool) "traps" true
    (match Ir.Interp.run m [] with
    | exception Ir.Interp.Trap _ -> true
    | _ -> false)

let test_unreachable_traps () =
  let b = Ir.Builder.create ~name:"main" ~param_tys:[] ~ret:T.I32 in
  let entry = Ir.Builder.new_block b in
  Ir.Builder.switch_to b entry;
  Ir.Builder.terminate b Ir.Instr.Unreachable;
  let m = Ir.Irmod.make ~name:"m" [ Ir.Builder.finish b ] in
  Alcotest.check_raises "unreachable" (Ir.Interp.Trap "executed unreachable")
    (fun () -> ignore (Ir.Interp.run m []))

let test_out_of_fuel () =
  let m = lower (parse "int main() { while (1 == 1) { } return 0; }") in
  Alcotest.check_raises "infinite loop" Ir.Interp.Out_of_fuel (fun () ->
      ignore (Ir.Interp.run ~fuel:10_000 m []))

let test_steps_and_cost_positive () =
  let o = run_src "int main() { int s = 0; for (int k = 0; k < 10; k = k + 1) { s = s + k; } return s; }" in
  Alcotest.(check bool) "steps counted" true (o.steps > 10);
  Alcotest.(check bool) "cost counted" true (o.cost >= o.steps)

let test_globals () =
  let g = { Ir.Irmod.gname = "g"; gty = T.I32; ginit = [| 41L |] } in
  let b = Ir.Builder.create ~name:"main" ~param_tys:[] ~ret:T.I32 in
  let entry = Ir.Builder.new_block b in
  Ir.Builder.switch_to b entry;
  let x = Ir.Builder.load b ~ty:T.I32 (Ir.Value.Global "g") in
  let y = Ir.Builder.ibin b I.Add x (Ir.Value.i32 1) ~ty:T.I32 in
  Ir.Builder.store b y (Ir.Value.Global "g");
  let z = Ir.Builder.load b ~ty:T.I32 (Ir.Value.Global "g") in
  Ir.Builder.ret b (Some z);
  let m = Ir.Irmod.make ~globals:[ g ] ~name:"m" [ Ir.Builder.finish b ] in
  let o = Ir.Interp.run m [] in
  Alcotest.(check int) "global readback" 42
    (match o.exit_value with Ir.Interp.RInt n -> Int64.to_int n | _ -> -1)

let test_behaviour_equality () =
  let a = run_src "int main() { print_int(1); return 2; }" in
  let b = run_src "int main() { print_int(1); return 2; }" in
  let c = run_src "int main() { print_int(1); return 3; }" in
  Alcotest.(check bool) "equal" true (Ir.Interp.equal_behaviour a b);
  Alcotest.(check bool) "different exit" false (Ir.Interp.equal_behaviour a c);
  Alcotest.(check bool) "a run printing NaN equals itself" true
    (Ir.Interp.equal_behaviour (run_src prints_nan) (run_src prints_nan))

let suite =
  [
    Alcotest.test_case "integer arithmetic" `Quick test_arith;
    Alcotest.test_case "bitwise" `Quick test_bitwise;
    Alcotest.test_case "i32 wraparound" `Quick test_i32_wraparound;
    Alcotest.test_case "comparisons" `Quick test_comparisons;
    Alcotest.test_case "short-circuit effects" `Quick test_short_circuit_effects;
    Alcotest.test_case "ternary" `Quick test_ternary;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "break/continue" `Quick test_break_continue;
    Alcotest.test_case "switch" `Quick test_switch;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "functions and recursion" `Quick
      test_functions_and_recursion;
    Alcotest.test_case "floats" `Quick test_floats;
    Alcotest.test_case "intrinsics" `Quick test_intrinsics;
    Alcotest.test_case "input exhaustion" `Quick test_input_exhaustion;
    Alcotest.test_case "div by zero traps" `Quick test_div_by_zero_traps;
    Alcotest.test_case "OOB store traps" `Quick test_oob_store_traps;
    Alcotest.test_case "unknown callee traps" `Quick test_unknown_callee_traps;
    Alcotest.test_case "unreachable traps" `Quick test_unreachable_traps;
    Alcotest.test_case "out of fuel" `Quick test_out_of_fuel;
    Alcotest.test_case "steps and cost" `Quick test_steps_and_cost_positive;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "behaviour equality" `Quick test_behaviour_equality;
  ]
