(** Tests for the mini-C frontend: lexer, parser, printer round-trips,
    frontend constant folding, lowering. *)

open Helpers
module Minic = Yali.Minic
module Ast = Minic.Ast

let test_lexer_tokens () =
  let toks = Minic.Lexer.tokenize "int x = 42; // comment\n x == 3" in
  Alcotest.(check int) "token count" 9 (List.length toks) (* incl. EOF *)

let test_lexer_operators () =
  let toks = Minic.Lexer.tokenize "&& || == != <= >= << >>" in
  Alcotest.(check int) "8 ops + eof" 9 (List.length toks)

let test_lexer_comments () =
  let toks = Minic.Lexer.tokenize "/* block \n comment */ 1 // line\n 2" in
  Alcotest.(check int) "two ints + eof" 3 (List.length toks)

let test_lexer_float () =
  match Minic.Lexer.tokenize "3.25" with
  | [ Minic.Lexer.FLOAT f; Minic.Lexer.EOF ] ->
      Alcotest.(check bool) "float value" true (approx f 3.25)
  | _ -> Alcotest.fail "expected one float"

let test_lexer_rejects_garbage () =
  Alcotest.(check bool) "lex error" true
    (match Minic.Lexer.tokenize "int $ x" with
    | exception Minic.Lexer.Lex_error _ -> true
    | _ -> false)

let test_parser_simple () =
  let p = parse "int main() { return 1 + 2 * 3; }" in
  Alcotest.(check int) "one function" 1 (List.length p.pfuncs);
  match (List.hd p.pfuncs).fbody with
  | [ Ast.Return (Some (Ast.Bin (Ast.Add, Ast.IntLit 1, Ast.Bin (Ast.Mul, Ast.IntLit 2, Ast.IntLit 3)))) ] ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parser_dangling_else () =
  let p = parse "int main() { if (1 < 2) { return 1; } else { return 2; } }" in
  match (List.hd p.pfuncs).fbody with
  | [ Ast.If (_, [ Ast.Return _ ], [ Ast.Return _ ]) ] -> ()
  | _ -> Alcotest.fail "if/else shape"

let test_parser_errors () =
  Alcotest.(check bool) "parse error raised" true
    (match parse "int main() { return 1 + ; }" with
    | exception Minic.Parser.Parse_error _ -> true
    | _ -> false)

let test_roundtrip_fixed () =
  let srcs =
    [
      "int main() { return 0; }";
      "int f(int a, int b) { return a % b; }\nint main() { return f(7, 3); }";
      "int main() { int a[8]; a[0] = 1; for (int k = 1; k < 8; k = k + 1) { a[k] = a[k-1] * 2; } return a[7]; }";
      "int main() { int x = read_int(); switch (x) { case 0: { print_int(1); break; } case 5: { print_int(2); break; } default: { print_int(3); } } return 0; }";
      "int main() { int x = 3; do { x = x - 1; } while (x > 0); return x; }";
      "double area(double r) { return 3.14159 * r * r; }\nint main() { print_float(area(2.0)); return 0; }";
    ]
  in
  List.iter
    (fun src ->
      let p1 = parse src in
      let p2 = parse (Minic.Pp.program_to_string p1) in
      Alcotest.(check bool) ("roundtrip: " ^ src) true (p1 = p2))
    srcs

let test_roundtrip_dataset =
  qtest ~count:80 "dataset programs round-trip through pp/parse" (fun seed ->
      let p = dataset_program seed in
      let printed = Minic.Pp.program_to_string p in
      let p2 = Minic.Parser.parse_program printed in
      (* compare by re-printing: the AST may differ in block nesting *)
      Minic.Pp.program_to_string p2 = printed)

let test_fold_expr () =
  let open Ast in
  Alcotest.(check bool) "2+3 folds" true
    (Minic.Lower.fold_expr (Bin (Add, IntLit 2, IntLit 3)) = IntLit 5);
  Alcotest.(check bool) "ternary on const folds" true
    (Minic.Lower.fold_expr (Ternary (IntLit 1, IntLit 7, IntLit 9)) = IntLit 7);
  Alcotest.(check bool) "div by zero not folded" true
    (match Minic.Lower.fold_expr (Bin (Div, IntLit 4, IntLit 0)) with
    | Bin (Div, _, _) -> true
    | _ -> false);
  Alcotest.(check bool) "vars untouched" true
    (Minic.Lower.fold_expr (Bin (Add, Var "x", IntLit 0)) = Bin (Add, Var "x", IntLit 0))

let test_lowering_constant_unfold_dissolves () =
  (* (40-13)+13 must reach the IR as the constant 40, like clang's frontend *)
  let m1 = lower (parse "int main() { return 40; }") in
  let m2 = lower (parse "int main() { return (40 - 13) + 13; }") in
  Alcotest.(check int) "same instruction count" (Yali.Ir.Irmod.instr_count m1)
    (Yali.Ir.Irmod.instr_count m2)

let test_lowering_o0_style () =
  (* -O0 lowering keeps variables in memory: expect allocas and loads *)
  let m = lower (parse "int main() { int a = 1; int b = a + 2; return b; }") in
  let ops = Yali.Ir.Irmod.opcodes m in
  let count op = List.length (List.filter (( = ) op) ops) in
  Alcotest.(check bool) "has allocas" true (count Yali.Ir.Opcode.Alloca >= 2);
  Alcotest.(check bool) "has loads" true (count Yali.Ir.Opcode.Load >= 2);
  Alcotest.(check bool) "no phis at -O0" true (count Yali.Ir.Opcode.Phi = 0)

let test_lowering_verifies =
  qtest ~count:80 "every dataset program lowers to verified IR" (fun seed ->
      let m = lower (dataset_program seed) in
      Yali.Ir.Verify.check_module m = [])

let test_lowering_runs =
  qtest ~count:50 "every dataset program terminates on fuzz input" (fun seed ->
      let m = lower (dataset_program seed) in
      let o = Yali.Ir.Interp.run ~fuel:4_000_000 m (fuzz_input seed) in
      o.steps > 0)

let test_lower_error_on_unbound () =
  Alcotest.(check bool) "unbound variable rejected" true
    (match lower (parse "int main() { return nope; }") with
    | exception Minic.Lower.Lower_error _ -> true
    | _ -> false)

let test_stmt_count () =
  let p = parse "int main() { int a = 1; if (a > 0) { a = 2; } return a; }" in
  Alcotest.(check bool) "counts nested statements" true
    (Ast.stmt_count (List.hd p.pfuncs).fbody >= 4)

let test_declared_vars () =
  let p = parse "int f(int a) { int b = 1; int c[3]; return a; }" in
  Alcotest.(check (list string)) "params + locals" [ "a"; "b"; "c" ]
    (Ast.declared_vars (List.hd p.pfuncs))

(* C's [continue] inside a [switch] continues the enclosing loop; with no
   loop around the switch it is still an error *)
let test_continue_in_switch () =
  let src =
    "int main() { int s = 0; int i; for (i = 0; i < 6; i = i + 1) { \
     switch (i % 2) { case 0: { s = s + 1; continue; } \
     default: { s = s + 10; } } s = s + 100; } print_int(s); return 0; }"
  in
  let m = lower (parse src) in
  Alcotest.(check (list int)) "interpreter" [ 333 ]
    (outputs (Ir.Interp.run m []));
  Alcotest.(check (list int)) "vm" [ 333 ] (outputs (Yali.run m []));
  Alcotest.(check bool) "still rejected outside a loop" true
    (match
       lower
         (parse
            "int main() { switch (1) { case 1: { continue; } } return 0; }")
     with
    | _ -> false
    | exception Minic.Lower.Lower_error _ -> true)

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer float" `Quick test_lexer_float;
    Alcotest.test_case "lexer rejects garbage" `Quick test_lexer_rejects_garbage;
    Alcotest.test_case "parser precedence" `Quick test_parser_simple;
    Alcotest.test_case "parser if/else" `Quick test_parser_dangling_else;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "round-trip fixed programs" `Quick test_roundtrip_fixed;
    test_roundtrip_dataset;
    Alcotest.test_case "frontend folding" `Quick test_fold_expr;
    Alcotest.test_case "constant unfolding dissolves" `Quick
      test_lowering_constant_unfold_dissolves;
    Alcotest.test_case "-O0 lowering style" `Quick test_lowering_o0_style;
    test_lowering_verifies;
    test_lowering_runs;
    Alcotest.test_case "unbound variable rejected" `Quick test_lower_error_on_unbound;
    Alcotest.test_case "stmt_count" `Quick test_stmt_count;
    Alcotest.test_case "declared_vars" `Quick test_declared_vars;
    Alcotest.test_case "continue inside a switch" `Quick
      test_continue_in_switch;
  ]
