(** Tests for the textual-IR parser: the printer/parser round-trip contract,
    plus targeted syntax cases. *)

open Helpers
module Ir = Yali.Ir

let roundtrip (m : Ir.Irmod.t) =
  let txt = Ir.Pp.module_to_string m in
  let m2 = Ir.Parser.parse_module txt in
  (txt, Ir.Pp.module_to_string m2, m2)

let test_roundtrip_simple () =
  let m = lower (parse "int main() { int a = read_int(); return a * 3 + 1; }") in
  let txt, txt2, m2 = roundtrip m in
  Alcotest.(check string) "printed form identical" txt txt2;
  Alcotest.(check int) "no verifier complaints" 0
    (List.length (Ir.Verify.check_module m2))

let test_roundtrip_behaviour =
  qtest ~count:40 "parsed module behaves identically" (fun seed ->
      let m = lower (dataset_program seed) in
      let _, _, m2 = roundtrip m in
      let input = fuzz_input seed in
      Ir.Interp.equal_behaviour
        (Ir.Interp.run ~fuel:4_000_000 m input)
        (Ir.Interp.run ~fuel:4_000_000 m2 input))

let test_roundtrip_optimized =
  qtest ~count:30 "round-trip of SSA-form (O3) modules" (fun seed ->
      let m = Yali.Transforms.Pipeline.o3 (lower (dataset_program seed)) in
      let txt, txt2, _ = roundtrip m in
      txt = txt2)

let test_roundtrip_obfuscated =
  qtest ~count:20 "round-trip of ollvm'd modules (switch, globals)" (fun seed ->
      let m =
        Yali.Obfuscation.Ollvm.run (Yali.Rng.make seed)
          (lower (dataset_program seed))
      in
      let txt, txt2, _ = roundtrip m in
      txt = txt2)

let test_parse_phi () =
  let m =
    Ir.Parser.parse_module
      {|
define i32 @main() {
a:
  br label %c
c:
  %1 = phi i32 [ 0, %a ], [ %2, %c ]
  %2 = add i32 %1, 1
  %3 = icmp slt %2, 5
  br %3, label %c, label %d
d:
  ret %1
}
|}
  in
  Alcotest.(check int) "verifies" 0 (List.length (Ir.Verify.check_module m));
  let o = Ir.Interp.run m [] in
  Alcotest.(check bool) "loop counts to 4" true (o.exit_value = Ir.Interp.RInt 4L)

let test_parse_switch_and_global () =
  let m =
    Ir.Parser.parse_module
      {|
@g = global i32
define i32 @main() {
entry:
  %0 = load i32, @g
  switch %0, label %d [0: %z 1: %o]
z:
  ret 10
o:
  ret 11
d:
  ret 12
}
|}
  in
  Alcotest.(check bool) "global parsed" true (Ir.Irmod.find_global m "g" <> None);
  let o = Ir.Interp.run m [] in
  (* global starts at 0 -> case 0 *)
  Alcotest.(check bool) "dispatches on 0" true (o.exit_value = Ir.Interp.RInt 10L)

let test_parse_rejects_garbage () =
  Alcotest.(check bool) "unknown mnemonic rejected" true
    (match
       Ir.Parser.parse_module
         "define i32 @main() {\nentry:\n  %0 = frobnicate i32 1, 2\n  ret 0\n}"
     with
    | exception Ir.Parser.Parse_error _ -> true
    | _ -> false)

(* Every one-character substitution of a printed module either parses or
   raises [Parse_error]: no [Failure], [Not_found] or [Invalid_argument]
   escapes, so [yali opt] reports a bad file instead of crashing. *)
let test_substitutions_typed_errors () =
  let txt =
    Ir.Pp.module_to_string
      (lower
         (parse
            "int sq(int x) { return x * x; }\n\
             int main() { int s = sq(read_int()); double d = 1.5;\n\
             if (s < 3) { print_float(d * s); } return s; }"))
  in
  let alphabet = "x%@nia.:0123456789 ,[]()={}\n" in
  let b = Bytes.of_string txt in
  String.iteri
    (fun pos orig ->
      String.iter
        (fun c ->
          Bytes.set b pos c;
          (match Ir.Parser.parse_module (Bytes.to_string b) with
          | _ | (exception Ir.Parser.Parse_error _) -> ()
          | exception e ->
              Alcotest.failf "byte %d set to %C: %s leaked from\n%s" pos c
                (Printexc.to_string e) (Bytes.to_string b));
          Bytes.set b pos orig)
        alphabet)
    txt

let test_parse_types () =
  Alcotest.(check bool) "ptr" true (Ir.Parser.parse_type "i32*" = Ir.Types.Ptr Ir.Types.I32);
  Alcotest.(check bool) "arr" true
    (Ir.Parser.parse_type "[4 x i64]" = Ir.Types.Arr (Ir.Types.I64, 4));
  Alcotest.(check bool) "ptr to arr" true
    (Ir.Parser.parse_type "[2 x i8]*" = Ir.Types.Ptr (Ir.Types.Arr (Ir.Types.I8, 2)))

(* [yali opt] reads its input as IR exactly when [is_module_text] says so:
   whatever the printer emits first (the header, a global, a function),
   also after blank lines, but never a mini-C program *)
let test_module_text_detection () =
  let is_ir = Ir.Parser.is_module_text in
  for seed = 0 to 19 do
    let p = dataset_program seed in
    let m = Yali.Obfuscation.Ollvm.run (Yali.Rng.make seed) (lower p) in
    Alcotest.(check bool) "mini-C source is not IR" false
      (is_ir (Yali.Minic.Pp.program_to_string p));
    Alcotest.(check bool) "a printed module is IR" true
      (is_ir (Ir.Pp.module_to_string m));
    List.iter
      (fun f ->
        Alcotest.(check bool) "a printed function is IR" true
          (is_ir ("\n" ^ Ir.Pp.func_to_string f)))
      m.Ir.Irmod.funcs
  done;
  let global_first =
    "\n  \n@g = global i32\n\ndefine i32 @main() {\nentry:\n  ret 7\n}\n"
  in
  Alcotest.(check bool) "a module that starts with a global is IR" true
    (is_ir global_first);
  let m = Ir.Parser.parse_module global_first in
  Alcotest.(check int) "and parses with its global" 1
    (List.length m.Ir.Irmod.globals);
  Alcotest.(check bool) "blank text is not IR" false (is_ir " \n\t")

let suite =
  [
    Alcotest.test_case "round-trip simple" `Quick test_roundtrip_simple;
    test_roundtrip_behaviour;
    test_roundtrip_optimized;
    test_roundtrip_obfuscated;
    Alcotest.test_case "parse phi loop" `Quick test_parse_phi;
    Alcotest.test_case "parse switch + global" `Quick test_parse_switch_and_global;
    Alcotest.test_case "rejects garbage" `Quick test_parse_rejects_garbage;
    Alcotest.test_case "parse types" `Quick test_parse_types;
    Alcotest.test_case "substitutions raise only Parse_error" `Quick
      test_substitutions_typed_errors;
    Alcotest.test_case "IR text told from mini-C" `Quick
      test_module_text_detection;
  ]
