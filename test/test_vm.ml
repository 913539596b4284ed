(** Tests for the pre-compiling VM and the engine switchboard: the
    bit-identical-outcome contract against the reference interpreter on the
    nasty edges — division traps, [Int64.min_int / -1], narrow-width
    wraparound, exact fuel boundaries, allocator exhaustion, pointer/int
    coercions, float infinities and NaN — plus engine selection and
    memory-arena reuse. *)

open Helpers
module Ir = Yali.Ir
module Interp = Ir.Interp
module Vm = Yali.Vm
module Execution = Yali.Execution

(* A run's full observable result, exceptions included.  [show] folds in
   steps and cost: the VM contract is bit-identical accounting, not just
   equal observations. *)
type result = Finished of Interp.outcome | Trapped of string | Exhausted

let run_result (engine : Execution.engine) ?(fuel = 200_000) m input : result =
  try Finished (Execution.run ~engine ~fuel m input) with
  | Interp.Trap msg -> Trapped msg
  | Interp.Out_of_fuel -> Exhausted

let show (r : result) : string =
  match r with
  | Trapped msg -> "trap: " ^ msg
  | Exhausted -> "out of fuel"
  | Finished o ->
      let ev =
        match o.exit_value with
        | Interp.RInt n -> Printf.sprintf "i:%Ld" n
        | Interp.RFloat f -> Printf.sprintf "f:%.17g" f
        | Interp.RPtr p -> Printf.sprintf "p:%d" p
        | Interp.RUnit -> "unit"
      in
      Printf.sprintf "exit=%s out=[%s] fout=[%s] steps=%d cost=%d" ev
        (String.concat ";" (List.map Int64.to_string o.output))
        (String.concat ";" (List.map (Printf.sprintf "%.17g") o.foutput))
        o.steps o.cost

(* Run under both engines, insist the results (traps, outputs, steps and
   cost alike) agree, and hand back the shared result. *)
let both ?fuel ?(input = []) (m : Ir.Irmod.t) : result =
  let r_vm = run_result Execution.Vm ?fuel m input in
  let r_ref = run_result Execution.Ref ?fuel m input in
  Alcotest.(check string) "vm agrees with reference" (show r_ref) (show r_vm);
  r_vm

let both_src ?fuel ?input (src : string) : result =
  both ?fuel ?input (lower (parse src))

let both_ir ?fuel ?input (txt : string) : result =
  both ?fuel ?input (Ir.Parser.parse_module txt)

let check_result name expected actual =
  Alcotest.(check string) name expected (show actual)

let exit_of name r =
  match r with
  | Finished o -> o.exit_value
  | _ -> Alcotest.failf "%s: expected a finished run, got %s" name (show r)

(* ------------------------------------------------------------------ *)
(* Division edges                                                      *)
(* ------------------------------------------------------------------ *)

let test_division_by_zero () =
  let trap r = check_result "division by zero traps" "trap: division by zero" r in
  trap (both_src ~input:[ 0L ] "int main() { int a = read_int(); return 7 / a; }");
  trap (both_src ~input:[ 0L ] "int main() { int a = read_int(); return 7 % a; }");
  (* 64-bit and unsigned forms, straight IR *)
  trap (both_ir {|
define i64 @main() {
e:
  %0 = add i64 5, 0
  %1 = sdiv i64 %0, 0
  ret %1
}
|});
  trap (both_ir {|
define i64 @main() {
e:
  %0 = add i64 5, 0
  %1 = udiv i64 %0, 0
  ret %1
}
|});
  trap (both_ir {|
define i64 @main() {
e:
  %0 = add i64 5, 0
  %1 = urem i64 %0, 0
  ret %1
}
|})

let test_min_int_overflow_division () =
  (* Int64.min_int / -1 overflows in two's complement; the interpreter
     (OCaml's Int64.div) wraps to min_int, and the VM must match. *)
  let r = both_ir {|
define i64 @main() {
e:
  %0 = add i64 -9223372036854775808, 0
  %1 = sdiv i64 %0, -1
  ret %1
}
|} in
  Alcotest.(check bool) "min_int/-1 wraps to min_int" true
    (exit_of "sdiv" r = Interp.RInt Int64.min_int);
  let r = both_ir {|
define i64 @main() {
e:
  %0 = add i64 -9223372036854775808, 0
  %1 = srem i64 %0, -1
  ret %1
}
|} in
  Alcotest.(check bool) "min_int%-1 is 0" true (exit_of "srem" r = Interp.RInt 0L)

(* ------------------------------------------------------------------ *)
(* Narrow-width wraparound                                             *)
(* ------------------------------------------------------------------ *)

let test_narrow_wraparound () =
  let r = both_src "int main() { int a = 2147483647; return a + 1; }" in
  Alcotest.(check bool) "i32 max+1 wraps negative" true
    (exit_of "i32 add" r = Interp.RInt (-2147483648L));
  let r = both_src "int main() { int a = 0 - 2147483648; return a - 1; }" in
  Alcotest.(check bool) "i32 min-1 wraps positive" true
    (exit_of "i32 sub" r = Interp.RInt 2147483647L);
  let r = both_src "int main() { int a = 1000000; return a * 12345; }" in
  Alcotest.(check bool) "i32 mul wraps like the interpreter" true
    (exit_of "i32 mul" r
    = Interp.RInt (Ir.Interp.normalize Ir.Types.I32 12_345_000_000L));
  (* i8: 127 + 1 sign-wraps to -128 *)
  let r = both_ir {|
define i8 @main() {
e:
  %0 = add i8 127, 1
  ret %0
}
|} in
  Alcotest.(check bool) "i8 max+1 wraps to -128" true
    (exit_of "i8 add" r = Interp.RInt (-128L));
  (* i8 unsigned division sees the masked operands *)
  let r = both_ir {|
define i8 @main() {
e:
  %0 = add i8 -2, 0
  %1 = udiv i8 %0, 16
  ret %1
}
|} in
  Alcotest.(check bool) "i8 udiv masks to 254/16" true
    (exit_of "i8 udiv" r = Interp.RInt 15L)

(* ------------------------------------------------------------------ *)
(* Every integer operator at every width                               *)
(* ------------------------------------------------------------------ *)

(* the edges of every width: around 0, the shift amounts and the signed
   and unsigned limits of i8, i32 and i64 *)
let operands =
  [ 0L; 1L; -1L; 2L; 7L; 63L; 64L; 65L; 127L; 128L; -128L; 255L; 256L;
    0x7FFF_FFFFL; -0x8000_0000L; 0xFFFF_FFFFL; 0x1_0000_0000L;
    Int64.max_int; Int64.min_int ]

(* All 13 [ibin] operators and 10 [icmp] predicates at i1, i8, i32 and
   i64, on every pair of edge operands.  Each case loads its operands
   through [add T c, 0], so the operator reads frame slots, and prints the
   result: the masks, sign wraps, shift amounts and division traps of
   [Interp.eval_ibin] and [Interp.eval_icmp] are pinned at each width. *)
let test_int_ops_every_width () =
  let open Ir in
  let ibin op ty a b = Instr.mk ~id:2 ~ty (Instr.Ibin (op, a, b)) in
  let icmp p _ a b = Instr.mk ~id:2 ~ty:Types.I1 (Instr.Icmp (p, a, b)) in
  let ops =
    List.map ibin
      Instr.[ Add; Sub; Mul; SDiv; UDiv; SRem; URem; Shl; LShr; AShr; And; Or; Xor ]
    @ List.map icmp Instr.[ Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge ]
  in
  let program ty op x y =
    let load id c =
      Instr.mk ~id ~ty
        (Instr.Ibin (Instr.Add, Value.IConst (ty, c), Value.IConst (ty, 0L)))
    in
    let instrs =
      [ load 0 x; load 1 y; op ty (Value.Var 0) (Value.Var 1);
        Instr.mk_void (Instr.Call ("print_int", [ Value.Var 2 ])) ]
    in
    let ret = Instr.Ret (Some (Value.IConst (Types.I64, 0L))) in
    Irmod.make ~name:"ops"
      [ Func.make ~name:"main" ~params:[] ~ret:Types.I64
          ~blocks:[ Block.make ~label:"e" ~instrs ~term:ret ] ]
  in
  let runs = ref 0 in
  List.iter
    (fun ty ->
      List.iter
        (fun op ->
          List.iter
            (fun x ->
              List.iter
                (fun y ->
                  ignore (both (program ty op x y));
                  incr runs)
                operands)
            operands)
        ops)
    Types.[ I1; I8; I32; I64 ];
  Alcotest.(check int) "every case ran" 33_212 !runs

(* The casts that wrap to their result width ([Interp.normalize]), from an
   i64 slot or a double slot, on the same edge operands. *)
let test_casts_every_width () =
  let open Ir in
  let program ty c x =
    let src =
      match c with
      | Instr.FPToSI | Instr.FPToUI ->
          Instr.mk ~id:0 ~ty:Types.F64
            (Instr.Cast (Instr.SIToFP, Value.IConst (Types.I64, x)))
      | _ ->
          Instr.mk ~id:0 ~ty:Types.I64
            (Instr.Ibin
               (Instr.Add, Value.IConst (Types.I64, x), Value.IConst (Types.I64, 0L)))
    in
    let instrs =
      [ src; Instr.mk ~id:1 ~ty (Instr.Cast (c, Value.Var 0));
        Instr.mk_void (Instr.Call ("print_int", [ Value.Var 1 ])) ]
    in
    let ret = Instr.Ret (Some (Value.IConst (Types.I64, 0L))) in
    Irmod.make ~name:"casts"
      [ Func.make ~name:"main" ~params:[] ~ret:Types.I64
          ~blocks:[ Block.make ~label:"e" ~instrs ~term:ret ] ]
  in
  List.iter
    (fun ty ->
      List.iter
        (fun c -> List.iter (fun x -> ignore (both (program ty c x))) operands)
        Instr.[ Trunc; ZExt; SExt; FPToSI; FPToUI ])
    Types.[ I1; I8; I32; I64 ]

(* ------------------------------------------------------------------ *)
(* Fuel accounting                                                     *)
(* ------------------------------------------------------------------ *)

let test_fuel_boundary () =
  let m =
    lower
      (parse
         "int main() { int i = 0; int s = 0; while (i < 25) { s = s + i; i = i + 1; } return s; }")
  in
  let steps =
    match run_result Execution.Ref ~fuel:1_000_000 m [] with
    | Finished o -> o.steps
    | r -> Alcotest.failf "baseline run failed: %s" (show r)
  in
  (* exactly enough fuel: both engines finish with identical accounting *)
  (match both ~fuel:steps m with
  | Finished o -> Alcotest.(check int) "steps = fuel exactly" steps o.steps
  | r -> Alcotest.failf "exact fuel should finish: %s" (show r));
  (* one short: both engines run dry *)
  check_result "fuel-1 exhausts both engines" "out of fuel"
    (both ~fuel:(steps - 1) m);
  check_result "tiny fuel exhausts both engines" "out of fuel" (both ~fuel:1 m);
  (* Runs that end in a trap: every fuel from 1 up to one past the
     trapping step goes through [both], so the Trap-vs-[Out_of_fuel]
     precedence is compared at every step, including the step of the
     trapping instruction itself.  Each loop ends on an adjacent pair
     whose second half traps: an add whose result is stored through an
     out-of-bounds pointer, and a load through an out-of-bounds gep. *)
  let sweep name msg txt =
    let m = Ir.Parser.parse_module txt in
    let rec go fuel =
      if fuel > 10_000 then Alcotest.failf "%s: no trap within 10000 steps" name;
      match both ~fuel m with
      | Exhausted -> go (fuel + 1)
      | r ->
          check_result (name ^ ": first trapping fuel") ("trap: " ^ msg) r;
          check_result (name ^ ": one past it") ("trap: " ^ msg)
            (both ~fuel:(fuel + 1) m);
          fuel
    in
    Alcotest.(check bool) (name ^ ": the loop ran before trapping") true
      (go 1 > 20)
  in
  sweep "add then store" "store out of bounds: 4" {|
define i64 @main() {
e:
  %0 = alloca [4 x i64]
  %1 = ptrtoint %0 to i64
  br label %h
h:
  %2 = phi i64 [ 0, %e ], [ %5, %h ]
  %3 = add i64 %1, %2
  %4 = inttoptr %3 to i64*
  %5 = add i64 %2, 1
  store %5, %4
  br label %h
}
|};
  sweep "gep then load" "load out of bounds: 4" {|
define i64 @main() {
e:
  %0 = alloca [4 x i64]
  br label %h
h:
  %1 = phi i64 [ 0, %e ], [ %4, %h ]
  %2 = getelementptr i64* %0, 0, %1
  %3 = load i64, %2
  %4 = add i64 %1, 1
  br label %h
}
|}

(* ------------------------------------------------------------------ *)
(* Allocator exhaustion                                                *)
(* ------------------------------------------------------------------ *)

let test_allocator_exhaustion () =
  (* each call grabs a quarter of the 2^20-cell image; the fifth cannot *)
  check_result "alloca beyond the memory image traps" "trap: out of memory"
    (both_ir ~fuel:1_000_000 {|
define void @f() {
e:
  %0 = alloca [262144 x i64]
  ret void
}
define i64 @main() {
e:
  %0 = add i64 0, 0
  br label %h
h:
  %1 = phi i64 [ %0, %e ], [ %3, %b ]
  call void @f()
  br label %b
b:
  %3 = add i64 %1, 1
  br label %h
}
|});
  (* a single oversized frame traps too *)
  check_result "oversized alloca traps" "trap: out of memory"
    (both_ir {|
define i64 @main() {
e:
  %0 = alloca [2097152 x i64]
  ret 0
}
|})

(* ------------------------------------------------------------------ *)
(* Pointer/integer coercions                                           *)
(* ------------------------------------------------------------------ *)

let test_pointer_coercions () =
  (* arithmetic on a raw pointer trips the dynamic tag check *)
  check_result "as_int on a pointer traps" "trap: expected integer, got pointer"
    (both_ir {|
define i64 @main() {
e:
  %0 = alloca i64
  %1 = add i64 %0, 1
  ret %1
}
|});
  (* the sanctioned route: ptrtoint, arithmetic, inttoptr, store/load *)
  let r = both_ir {|
define i64 @main() {
e:
  %0 = alloca [4 x i64]
  %1 = ptrtoint %0 to i64
  %2 = add i64 %1, 2
  %3 = inttoptr %2 to i64*
  store 42, %3
  %4 = load i64, %3
  ret %4
}
|} in
  Alcotest.(check bool) "ptrtoint round-trip stores and loads" true
    (exit_of "ptrtoint" r = Interp.RInt 42L);
  (* returning the pointer itself is fine — and the exit values agree *)
  (match both_ir {|
define i64 @main() {
e:
  %0 = alloca i64
  ret %0
}
|} with
  | Finished { exit_value = Interp.RPtr _; _ } -> ()
  | r -> Alcotest.failf "expected a pointer exit, got %s" (show r))

(* ------------------------------------------------------------------ *)
(* Structural parity: recursion, intrinsics, switch, globals           *)
(* ------------------------------------------------------------------ *)

let test_recursion_parity () =
  let r =
    both_src ~fuel:2_000_000
      "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); } int main() { return fib(18); }"
  in
  Alcotest.(check bool) "fib(18)" true (exit_of "fib" r = Interp.RInt 2584L)

let test_intrinsics_parity () =
  let r =
    both_src
      ~input:[ -7L; 3L ]
      "int main() { int a = read_int(); int b = read_int(); print_int(abs(a)); print_int(min(a, b)); print_int(max(a, b)); return 0; }"
  in
  match r with
  | Finished o ->
      Alcotest.(check (list int)) "abs/min/max outputs" [ 7; -7; 3 ]
        (List.map Int64.to_int o.output)
  | r -> Alcotest.failf "intrinsics run failed: %s" (show r)

(* the VM's float path (fmul/fadd, fdiv by zero, NaN) printed via
   print_float, which lands in [foutput] *)
let test_float_parity () =
  let r =
    both_src
      "double h(double x) { return x * 1.5 + 0.25; } int main() { double a = h(3.0); print_float(a); print_float(a / 0.0); print_float(0.0 / 0.0); return 0; }"
  in
  match r with
  | Finished { foutput = [ a; inf; nan ]; _ } ->
      Alcotest.(check (float 0.0)) "h(3.0)" 4.75 a;
      Alcotest.(check bool) "a/0.0 is +inf" true (inf = Float.infinity);
      Alcotest.(check bool) "0.0/0.0 is nan" true (Float.is_nan nan)
  | r -> Alcotest.failf "expected three float outputs, got %s" (show r)

let test_switch_and_globals_parity () =
  let m = Ir.Parser.parse_module {|
@g = global i64
define i64 @main() {
entry:
  store 3, @g
  %0 = load i64, @g
  switch %0, label %d [0: %z 3: %t]
z:
  ret 10
t:
  store 9, @g
  %1 = load i64, @g
  ret %1
d:
  ret 12
}
|} in
  let r = both m in
  Alcotest.(check bool) "switch picks the stored-global arm" true
    (exit_of "switch" r = Interp.RInt 9L)

let test_dataset_parity =
  qtest ~count:40 "vm matches interpreter on dataset programs"
    (fun seed ->
      let m = lower (dataset_program seed) in
      let input = fuzz_input seed in
      show (run_result Execution.Vm ~fuel:200_000 m input)
      = show (run_result Execution.Ref ~fuel:200_000 m input))

(* ------------------------------------------------------------------ *)
(* Engine switchboard                                                  *)
(* ------------------------------------------------------------------ *)

let test_engine_selection () =
  Alcotest.(check bool) "vm parses" true
    (Execution.engine_of_string "vm" = Some Execution.Vm);
  Alcotest.(check bool) "ref parses" true
    (Execution.engine_of_string "ref" = Some Execution.Ref);
  Alcotest.(check bool) "junk rejected" true
    (Execution.engine_of_string "jit" = None);
  Alcotest.(check string) "names round-trip" "ref"
    (Execution.engine_to_string Execution.Ref);
  (* both engines behind [prepare]: compile once, run on several inputs *)
  let m =
    lower
      (parse
         "int main() { int n = read_int(); int s = 0; while (n > 0) { s = s + n * n; n = n - 1; } print_int(s); return s % 7; }")
  in
  let vm = Execution.prepare ~engine:Execution.Vm m in
  let rf = Execution.prepare ~engine:Execution.Ref m in
  List.iter
    (fun n ->
      let run p = show (Finished (p ~fuel:100_000 [ n ])) in
      Alcotest.(check string)
        (Printf.sprintf "prepare vm = prepare ref on %Ld" n)
        (run rf) (run vm))
    [ 0L; 1L; 9L; 40L ]

let test_arena_reuse () =
  let m = lower (parse "int main() { int a[64]; a[3] = 5; return a[3]; }") in
  let p = Vm.compile m in
  let first = Vm.run_compiled p [] in
  let created0 = Vm.arenas_created () in
  for _ = 1 to 50 do
    let o = Vm.run_compiled p [] in
    Alcotest.(check bool) "repeat runs identical" true (o = first)
  done;
  Alcotest.(check int) "50 reruns allocate no new memory images" created0
    (Vm.arenas_created ())

let suite =
  [
    Alcotest.test_case "division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "min_int overflow division" `Quick
      test_min_int_overflow_division;
    Alcotest.test_case "narrow-width wraparound" `Quick test_narrow_wraparound;
    Alcotest.test_case "integer operators at every width" `Quick
      test_int_ops_every_width;
    Alcotest.test_case "casts at every width" `Quick test_casts_every_width;
    Alcotest.test_case "fuel boundary" `Quick test_fuel_boundary;
    Alcotest.test_case "allocator exhaustion" `Quick test_allocator_exhaustion;
    Alcotest.test_case "pointer coercions" `Quick test_pointer_coercions;
    Alcotest.test_case "recursion parity" `Quick test_recursion_parity;
    Alcotest.test_case "intrinsics parity" `Quick test_intrinsics_parity;
    Alcotest.test_case "float parity" `Quick test_float_parity;
    Alcotest.test_case "switch and globals parity" `Quick
      test_switch_and_globals_parity;
    test_dataset_parity;
    Alcotest.test_case "engine selection" `Quick test_engine_selection;
    Alcotest.test_case "arena reuse" `Quick test_arena_reuse;
  ]

(* The native execution tier was deleted.  Its engine name must now be
   refused (the CLI reports "unknown engine" and exits 2), not mapped onto
   another engine. *)
let test_native_engine_selection () =
  Alcotest.(check bool) "native rejected" true
    (Execution.engine_of_string "native" = None)

let native_suite =
  [
    Alcotest.test_case "engine selection" `Quick test_native_engine_selection;
  ]
