(** Tests for the optimization passes: structural effects plus, crucially,
    semantic preservation on the full dataset corpus (qcheck fuzzing). *)

open Helpers
module Ir = Yali.Ir
module Tx = Yali.Transforms
module Op = Ir.Opcode

let opcount (m : Ir.Irmod.t) (op : Op.t) =
  List.length (List.filter (( = ) op) (Ir.Irmod.opcodes m))

(* -- mem2reg -------------------------------------------------------------- *)

let test_mem2reg_promotes_scalars () =
  let m = lower (parse "int main() { int a = 1; int b = a + 2; return b; }") in
  let m' = Tx.Mem2reg.run m in
  Alcotest.(check int) "no allocas left" 0 (opcount m' Op.Alloca);
  Alcotest.(check int) "no loads left" 0 (opcount m' Op.Load);
  Alcotest.(check int) "no stores left" 0 (opcount m' Op.Store)

let test_mem2reg_inserts_phis () =
  let m =
    lower
      (parse
         "int main() { int s = 0; int k = 0; while (k < read_int()) { s = s + k; k = k + 1; } return s; }")
  in
  let m' = Tx.Mem2reg.run m in
  Alcotest.(check bool) "phis inserted" true (opcount m' Op.Phi >= 2);
  Alcotest.(check int) "allocas gone" 0 (opcount m' Op.Alloca)

let test_mem2reg_keeps_arrays () =
  let m = lower (parse "int main() { int a[4]; a[0] = 1; return a[0]; }") in
  let m' = Tx.Mem2reg.run m in
  Alcotest.(check bool) "array alloca kept" true (opcount m' Op.Alloca >= 1)

let test_mem2reg_preserves =
  qtest ~count:60 "mem2reg preserves behaviour" (preserves_behaviour Tx.Mem2reg.run)

(* -- constant folding ----------------------------------------------------- *)

let test_constfold_folds () =
  (* hand-build IR with a constant expression that survives the frontend *)
  let b = Ir.Builder.create ~name:"main" ~param_tys:[] ~ret:Ir.Types.I32 in
  let e = Ir.Builder.new_block b in
  Ir.Builder.switch_to b e;
  let x = Ir.Builder.ibin b Ir.Instr.Add (Ir.Value.i32 2) (Ir.Value.i32 3) ~ty:Ir.Types.I32 in
  let y = Ir.Builder.ibin b Ir.Instr.Mul x (Ir.Value.i32 4) ~ty:Ir.Types.I32 in
  Ir.Builder.ret b (Some y);
  let m = Ir.Irmod.make ~name:"m" [ Ir.Builder.finish b ] in
  let m' = Tx.Constfold.run m in
  Alcotest.(check int) "everything folded" 0 (opcount m' Op.Add + opcount m' Op.Mul);
  let o = Ir.Interp.run m' [] in
  Alcotest.(check bool) "result 20" true (o.exit_value = Ir.Interp.RInt 20L)

let test_constfold_preserves =
  qtest ~count:40 "constfold preserves behaviour" (preserves_behaviour Tx.Constfold.run)

(* -- instcombine ---------------------------------------------------------- *)

(* instcombine must undo O-LLVM's instruction substitution: obfuscate with
   sub, then check the instruction count returns near the original *)
let test_instcombine_undoes_sub =
  qtest ~count:30 "instcombine + dce undoes most of sub's growth" (fun seed ->
      let m = lower (dataset_program seed) in
      let m = Tx.Mem2reg.run m in
      let n0 = Ir.Irmod.instr_count m in
      let obf = Yali.Obfuscation.Sub.run (Yali.Rng.make seed) m in
      let n1 = Ir.Irmod.instr_count obf in
      let cleaned = Tx.Dce.run (Tx.Instcombine.run obf) in
      let n2 = Ir.Irmod.instr_count cleaned in
      (* at least three quarters of the injected instructions disappear *)
      n2 <= n0 + ((n1 - n0) / 4))

(* the specific inverse rules for O-LLVM's -sub identities *)
let test_instcombine_ollvm_identities () =
  let check src expected_op forbidden_ops =
    let m = Tx.Dce.run (Tx.Instcombine.run (Tx.Mem2reg.run (lower (parse src)))) in
    Alcotest.(check bool)
      (Printf.sprintf "%s has %s" src (Ir.Opcode.to_string expected_op))
      true
      (opcount m expected_op >= 1);
    List.iter
      (fun op ->
        Alcotest.(check int)
          (Printf.sprintf "%s has no %s" src (Ir.Opcode.to_string op))
          0 (opcount m op))
      forbidden_ops
  in
  (* (a|b) + (a&b) ==> a + b *)
  check
    "int main() { int a = read_int(); int b = read_int(); return (a | b) + (a & b); }"
    Ir.Opcode.Add
    [ Ir.Opcode.Or; Ir.Opcode.And ];
  (* (a|b) - (a&b) ==> a ^ b *)
  check
    "int main() { int a = read_int(); int b = read_int(); return (a | b) - (a & b); }"
    Ir.Opcode.Xor
    [ Ir.Opcode.Or; Ir.Opcode.And; Ir.Opcode.Sub ];
  (* (a|b) - (a^b) ==> a & b *)
  check
    "int main() { int a = read_int(); int b = read_int(); return (a | b) - (a ^ b); }"
    Ir.Opcode.And
    [ Ir.Opcode.Or; Ir.Opcode.Xor; Ir.Opcode.Sub ];
  (* (a&b) + (a^b) ==> a | b *)
  check
    "int main() { int a = read_int(); int b = read_int(); return (a & b) + (a ^ b); }"
    Ir.Opcode.Or
    [ Ir.Opcode.And; Ir.Opcode.Xor; Ir.Opcode.Add ]

let test_instcombine_identities () =
  let src = "int main() { int a = read_int(); int b = a + 0; int c = b * 1; int d = c - 0; return d; }" in
  let m = Tx.Instcombine.run (Tx.Mem2reg.run (lower (parse src))) in
  Alcotest.(check int) "identities removed" 0
    (opcount m Op.Add + opcount m Op.Mul + opcount m Op.Sub)

let test_instcombine_a_minus_neg_b () =
  (* a - (0 - b) ==> a + b *)
  let b = Ir.Builder.create ~name:"main" ~param_tys:[] ~ret:Ir.Types.I32 in
  let e = Ir.Builder.new_block b in
  Ir.Builder.switch_to b e;
  let x = Ir.Builder.call b ~ty:Ir.Types.I32 "read_int" [] in
  let y = Ir.Builder.call b ~ty:Ir.Types.I32 "read_int" [] in
  let neg = Ir.Builder.ibin b Ir.Instr.Sub (Ir.Value.i32 0) y ~ty:Ir.Types.I32 in
  let r = Ir.Builder.ibin b Ir.Instr.Sub x neg ~ty:Ir.Types.I32 in
  Ir.Builder.ret b (Some r);
  let m = Ir.Irmod.make ~name:"m" [ Ir.Builder.finish b ] in
  let m' = Tx.Dce.run (Tx.Instcombine.run m) in
  Alcotest.(check int) "rewritten to add" 1 (opcount m' Op.Add);
  Alcotest.(check int) "subs gone" 0 (opcount m' Op.Sub);
  let o = Ir.Interp.run m' [ 10L; 4L ] in
  Alcotest.(check bool) "10 - (0-4) = 14" true (o.exit_value = Ir.Interp.RInt 14L)

let test_instcombine_preserves =
  qtest ~count:40 "instcombine preserves behaviour"
    (preserves_behaviour (fun m -> Tx.Instcombine.run (Tx.Mem2reg.run m)))

(* -- dce ------------------------------------------------------------------ *)

let test_dce_removes_dead () =
  let src = "int main() { int dead = 5 * read_int(); int live = 3; return live; }" in
  let m = Tx.Dce.run (Tx.Mem2reg.run (lower (parse src))) in
  (* the multiply is dead but the read_int call must stay (side effect) *)
  Alcotest.(check int) "mul removed" 0 (opcount m Op.Mul);
  Alcotest.(check int) "call kept" 1 (opcount m Op.Call)

let test_dce_preserves =
  qtest ~count:40 "dce preserves behaviour" (preserves_behaviour Tx.Dce.run)

(* -- simplifycfg ---------------------------------------------------------- *)

let test_simplifycfg_folds_constant_branch () =
  let src = "int main() { if (1 < 2) { return 10; } else { return 20; } }" in
  let m = Tx.Simplifycfg.run (Tx.Instcombine.run (Tx.Mem2reg.run (lower (parse src)))) in
  let f = Ir.Irmod.find_func_exn m "main" in
  Alcotest.(check int) "collapsed to one block" 1 (List.length f.blocks)

let test_simplifycfg_merges_chains () =
  let m = lower (parse "int main() { int a = 1; { { a = 2; } } return a; }") in
  let m' = Tx.Simplifycfg.run m in
  let f = Ir.Irmod.find_func_exn m' "main" in
  Alcotest.(check int) "straight-line merged" 1 (List.length f.blocks)

let test_simplifycfg_preserves =
  qtest ~count:60 "simplifycfg preserves behaviour" (preserves_behaviour Tx.Simplifycfg.run)

(* -- gvn ------------------------------------------------------------------ *)

let test_gvn_dedups () =
  let src =
    "int main() { int a = read_int(); int x = a * 3 + 1; int y = a * 3 + 1; return x + y; }"
  in
  let m = Tx.Gvn.run (Tx.Mem2reg.run (lower (parse src))) in
  Alcotest.(check int) "one multiply left" 1 (opcount m Op.Mul)

let test_gvn_respects_commutativity () =
  let src = "int main() { int a = read_int(); int b = read_int(); return (a + b) + (b + a); }" in
  let m = Tx.Gvn.run (Tx.Mem2reg.run (lower (parse src))) in
  (* a+b and b+a unify; one add for the cse'd value + one final add *)
  Alcotest.(check int) "adds deduped" 2 (opcount m Op.Add)

let test_gvn_keeps_loads () =
  (* loads must not be unified across an intervening store *)
  let src = "int main() { int a[2]; a[0] = 1; int x = a[0]; a[0] = 2; int y = a[0]; return x + y; }" in
  let m = Tx.Gvn.run (lower (parse src)) in
  let o = Ir.Interp.run m [] in
  Alcotest.(check bool) "1 + 2 = 3" true (o.exit_value = Ir.Interp.RInt 3L)

let test_gvn_preserves =
  qtest ~count:40 "gvn preserves behaviour"
    (preserves_behaviour (fun m -> Tx.Gvn.run (Tx.Mem2reg.run m)))

(* -- inlining ------------------------------------------------------------- *)

let test_inline_small_callee () =
  let src = "int sq(int x) { return x * x; } int main() { return sq(read_int()); }" in
  let m = Tx.Inline.run (Tx.Mem2reg.run (lower (parse src))) in
  let main = Ir.Irmod.find_func_exn m "main" in
  let calls =
    List.filter
      (fun (i : Ir.Instr.t) ->
        match i.kind with Ir.Instr.Call ("sq", _) -> true | _ -> false)
      (Ir.Func.instrs main)
  in
  Alcotest.(check int) "call inlined away" 0 (List.length calls);
  let o = Ir.Interp.run m [ 6L ] in
  Alcotest.(check bool) "6*6" true (o.exit_value = Ir.Interp.RInt 36L)

let test_inline_skips_recursive () =
  let src = "int f(int n) { if (n <= 0) { return 0; } return 1 + f(n - 1); } int main() { return f(3); }" in
  let m = Tx.Inline.run (lower (parse src)) in
  Alcotest.(check bool) "recursive callee survives" true
    (Ir.Irmod.find_func m "f" <> None);
  let o = Ir.Interp.run m [] in
  Alcotest.(check bool) "f 3 = 3" true (o.exit_value = Ir.Interp.RInt 3L)

let test_inline_preserves =
  qtest ~count:40 "inline preserves behaviour"
    (preserves_behaviour (fun m -> Tx.Inline.run m))

(* -- inline + gvn interaction --------------------------------------------- *)

let inline_gvn m = Tx.Gvn.run (Tx.Inline.run (Tx.Mem2reg.run m))

let test_inline_exposes_redundancy_to_gvn () =
  (* the callee recomputes [a * 3 + 1], already computed at the call site;
     only after inlining can gvn see the redundancy across the old call
     boundary and unify the two *)
  let src =
    "int f(int a) { return a * 3 + 1; } \
     int main() { int a = read_int(); int x = a * 3 + 1; return x + f(a); }"
  in
  let m0 = Tx.Mem2reg.run (lower (parse src)) in
  let gvn_only = Tx.Gvn.run m0 in
  let main_muls m =
    let f = Ir.Irmod.find_func_exn m "main" in
    List.length
      (List.filter
         (fun (i : Ir.Instr.t) -> Ir.Instr.opcode i = Op.Mul)
         (Ir.Func.instrs f))
  in
  (* without inlining the call hides the redundancy from gvn *)
  Alcotest.(check int) "gvn alone leaves main's multiply" 1 (main_muls gvn_only);
  let m = inline_gvn m0 in
  Alcotest.(check int) "inline + gvn: one multiply in main" 1 (main_muls m);
  Alcotest.(check int) "inline + gvn: call gone"
    0
    (List.length
       (List.filter
          (fun (i : Ir.Instr.t) ->
            match i.kind with Ir.Instr.Call ("f", _) -> true | _ -> false)
          (Ir.Func.instrs (Ir.Irmod.find_func_exn m "main"))));
  (match Ir.Verify.check_module m with
  | [] -> ()
  | e :: _ -> Alcotest.failf "verifier: %a" Ir.Verify.pp_error e);
  let o = Ir.Interp.run m [ 5L ] in
  (* (5*3+1) + (5*3+1) = 32 *)
  Alcotest.(check bool) "result 32" true (o.exit_value = Ir.Interp.RInt 32L)

let test_inline_gvn_multiple_calls () =
  (* two calls to the same pure callee on the same argument: after inlining,
     gvn can collapse the duplicated bodies to a single computation *)
  let src =
    "int sq(int x) { return x * x; } \
     int main() { int a = read_int(); return sq(a) + sq(a); }"
  in
  let m = inline_gvn (lower (parse src)) in
  let f = Ir.Irmod.find_func_exn m "main" in
  Alcotest.(check int) "duplicate bodies unified: one multiply" 1
    (List.length
       (List.filter
          (fun (i : Ir.Instr.t) -> Ir.Instr.opcode i = Op.Mul)
          (Ir.Func.instrs f)));
  let o = Ir.Interp.run m [ 7L ] in
  Alcotest.(check bool) "49 + 49" true (o.exit_value = Ir.Interp.RInt 98L)

let test_inline_gvn_preserves =
  qtest ~count:40 "inline + gvn preserves behaviour"
    (preserves_behaviour inline_gvn)

(* -- unreachable code ----------------------------------------------------- *)

(* Verifier-accepted modules whose unreachable blocks hold shapes that
   mini-C lowering and the obfuscators never emit: a dead value cycle, a
   dead phi cycle, and phis fed by a dead block. *)
let dead_code_modules =
  [
    ( "dead value cycle",
      {|define i32 @main() {
entry0:
  call void @print_int(7)
  ret 0
dead:
  %1 = add i32 %2, 0
  %2 = add i32 %1, 0
  %3 = mul i32 %1, 3
  call void @print_int(%3)
  br label %dead
}|} );
    ( "dead phi cycle",
      {|define i32 @main() {
entry0:
  call void @print_int(7)
  ret 0
d1:
  %1 = phi i32 [ %2, %d2 ]
  call void @print_int(%1)
  br label %d2
d2:
  %2 = phi i32 [ %1, %d1 ]
  br label %d1
}|} );
    ( "phi fed by a dead block",
      {|define i32 @main() {
entry0:
  br label %join
dead:
  br label %join
join:
  %1 = phi i32 [ 0, %entry0 ], [ 1, %dead ]
  call void @print_int(%1)
  ret 0
}|} );
    ( "loop header fed by a dead block",
      {|define i32 @main() {
entry0:
  br label %head
head:
  %1 = phi i32 [ 0, %entry0 ], [ %3, %body ], [ 7, %dead ]
  %2 = icmp slt %1, 3
  br %2, label %body, label %exit
body:
  call void @print_int(%1)
  %3 = add i32 %1, 1
  br label %head
dead:
  br label %head
exit:
  ret 0
}|} );
  ]

(* Every pass and O1-O3 returns on each, with a module the verifier
   accepts and that runs as its input does. *)
let test_dead_code_stays_valid () =
  let errors m =
    List.map (Fmt.str "%a" Ir.Verify.pp_error) (Ir.Verify.check_module m)
  in
  let runs =
    List.map
      (fun (p : Tx.Pipeline.pass) -> (p.pname, p.prun))
      Tx.Pipeline.all_passes
    @ List.map
        (fun l -> (Tx.Pipeline.level_to_string l, Tx.Pipeline.optimize l))
        Tx.Pipeline.[ O1; O2; O3 ]
  in
  List.iter
    (fun (name, txt) ->
      let m = Ir.Parser.parse_module txt in
      Alcotest.(check (list string)) (name ^ ": input verifies") [] (errors m);
      let base = Ir.Interp.run m [] in
      List.iter
        (fun (pass, run) ->
          let m' = run m in
          let what = Printf.sprintf "%s through %s" name pass in
          Alcotest.(check (list string)) what [] (errors m');
          Alcotest.(check bool) (what ^ ": same behaviour") true
            (Ir.Interp.equal_behaviour base (Ir.Interp.run m' [])))
        runs)
    dead_code_modules

(* -- the substitution rule ------------------------------------------------ *)

let test_subst_refuses_cycles () =
  let s = Tx.Subst.create () and var = Ir.Value.var in
  let add id v = Tx.Subst.add s id v in
  Alcotest.(check bool) "self map refused" false (add 1 (var 1));
  Alcotest.(check bool) "1 -> 2" true (add 1 (var 2));
  Alcotest.(check bool) "2 -> 1 closes a cycle" false (add 2 (var 1));
  Alcotest.(check bool) "3 -> 1" true (add 3 (var 1));
  Alcotest.(check bool) "2 -> 3 closes a longer cycle" false (add 2 (var 3));
  Alcotest.(check bool) "1 is already replaced" false (add 1 (Ir.Value.i32 0));
  Alcotest.(check bool) "2 -> 5" true (add 2 (Ir.Value.i32 5));
  Alcotest.(check string) "3 ends at the constant" "i32 5"
    (Ir.Value.to_string (Tx.Subst.resolve s (var 3)))

(* Random adds over a few ids against a model that records every accepted
   one: [add] accepts exactly when the id is unreplaced and the model's
   chain from the value does not end at it, and [resolve] ends where the
   model's chain does, at a value that is not replaced. *)
let test_subst_resolve_ends =
  qtest ~count:200 "subst resolve ends at an unreplaced value" (fun seed ->
      let rng = Yali.Rng.make seed in
      let n = 2 + Yali.Rng.int rng 12 in
      let s = Tx.Subst.create () and model = Hashtbl.create n in
      (* the model never holds a cycle, so [n] steps reach a chain's end *)
      let rec ends steps (v : Ir.Value.t) =
        match v with
        | Ir.Value.Var j when steps > 0 -> (
            match Hashtbl.find_opt model j with
            | Some w -> ends (steps - 1) w
            | None -> v)
        | _ -> v
      in
      List.for_all
        (fun _ ->
          let id = Yali.Rng.int rng n in
          let v =
            if Yali.Rng.int rng 4 = 0 then Ir.Value.i32 id
            else Ir.Value.var (Yali.Rng.int rng n)
          in
          let expect =
            (not (Hashtbl.mem model id)) && ends n v <> Ir.Value.var id
          in
          if expect then Hashtbl.replace model id v;
          Tx.Subst.add s id v = expect
          && List.for_all
               (fun j ->
                 let r = Tx.Subst.resolve s (Ir.Value.var j) in
                 r = ends n (Ir.Value.var j)
                 &&
                 match r with
                 | Ir.Value.Var k -> not (Hashtbl.mem model k)
                 | _ -> true)
               (List.init n Fun.id))
        (List.init (3 * n) Fun.id))

(* -- pipelines ------------------------------------------------------------ *)

let test_pipelines_preserve =
  [
    qtest ~count:60 "O1 preserves behaviour" (preserves_behaviour Tx.Pipeline.o1);
    qtest ~count:60 "O2 preserves behaviour" (preserves_behaviour Tx.Pipeline.o2);
    qtest ~count:60 "O3 preserves behaviour" (preserves_behaviour Tx.Pipeline.o3);
  ]

let test_pipeline_reduces_cost =
  qtest ~count:25 "O3 reduces dynamic cost" (fun seed ->
      let m = lower (dataset_program seed) in
      let input = fuzz_input seed in
      let base = Ir.Interp.run ~fuel:4_000_000 m input in
      let o = Ir.Interp.run ~fuel:4_000_000 (Tx.Pipeline.o3 m) input in
      o.cost <= base.cost)

let test_o3_idempotent =
  qtest ~count:25 "O3 is (size-)idempotent" (fun seed ->
      let m = Tx.Pipeline.o3 (lower (dataset_program seed)) in
      Ir.Irmod.instr_count (Tx.Pipeline.o3 m) <= Ir.Irmod.instr_count m)

let test_levels_monotone =
  qtest ~count:25 "higher levels never produce slower code" (fun seed ->
      let m = lower (dataset_program seed) in
      let input = fuzz_input seed in
      let cost opt = (Ir.Interp.run ~fuel:4_000_000 (opt m) input).cost in
      let c0 = cost Tx.Pipeline.o0 and c1 = cost Tx.Pipeline.o1 in
      let c3 = cost Tx.Pipeline.o3 in
      c1 <= c0 && c3 <= c0)

let test_level_parsing () =
  Alcotest.(check bool) "O0" true (Tx.Pipeline.level_of_string "-O0" = Some Tx.Pipeline.O0);
  Alcotest.(check bool) "o3" true (Tx.Pipeline.level_of_string "o3" = Some Tx.Pipeline.O3);
  Alcotest.(check bool) "junk" true (Tx.Pipeline.level_of_string "Ofast" = None)

(* gvn's key classes: each pair is unified or kept apart exactly as the
   printed form of the instruction would be.  A one-block function computes
   both instructions and returns the second; gvn unified them when the
   return names the first. *)
let test_gvn_key_classes () =
  let module I = Ir.Instr in
  let module V = Ir.Value in
  let module T = Ir.Types in
  let check name want ?(param = T.I32) ?(ty1 = T.I32) k1 ?(ty2 = ty1) k2 =
    let b = Ir.Builder.create ~name:"f" ~param_tys:[ param; param ] ~ret:ty2 in
    Ir.Builder.switch_to b (Ir.Builder.new_block b);
    let x = Ir.Builder.emit b ~ty:ty1 k1 in
    let y = Ir.Builder.emit b ~ty:ty2 k2 in
    Ir.Builder.ret b (Some y);
    match (Tx.Gvn.run_func (Ir.Builder.finish b)).blocks with
    | [ { term = I.Ret (Some r); _ } ] ->
        Alcotest.(check bool) name want (r = x)
    | _ -> Alcotest.fail (name ^ ": gvn changed the block structure")
  in
  let fadd x = I.Fbin (I.FAdd, V.Var 0, V.FConst x) in
  let fcheck name want x1 x2 =
    check name want ~param:T.F64 ~ty1:T.F64 (fadd x1) (fadd x2)
  in
  let sext = I.Cast (I.SExt, V.Var 0) in
  let swapped op =
    (I.Ibin (op, V.Var 0, V.Var 1), I.Ibin (op, V.Var 1, V.Var 0))
  in
  let add01, add10 = swapped I.Add and sub01, sub10 = swapped I.Sub in
  check "commuted add" true add01 add10;
  check "commuted sub" false sub01 sub10;
  fcheck "nan and -nan" false Float.nan (-.Float.nan);
  fcheck "two nan payloads" true Float.nan
    (Int64.float_of_bits 0x7FF0000000000001L);
  fcheck "nan and the smallest subnormal" false Float.nan
    (Int64.float_of_bits 1L);
  fcheck "0.0 and -0.0" false 0.0 (-0.0);
  fcheck "same float" true 0.5 0.5;
  (* icmp's key has no type, so only the constants' types differ *)
  check "i32 1 and i64 1" false ~ty1:T.I1
    (I.Icmp (I.Eq, V.Var 0, V.i32 1)) (I.Icmp (I.Eq, V.Var 0, V.i64 1));
  check "casts to two types" false ~param:T.I8 ~ty1:T.I32 sext ~ty2:T.I64 sext;
  check "same cast" true ~param:T.I8 ~ty1:T.I64 sext sext

let suite =
  [
    Alcotest.test_case "gvn key classes" `Quick test_gvn_key_classes;
    Alcotest.test_case "mem2reg promotes scalars" `Quick test_mem2reg_promotes_scalars;
    Alcotest.test_case "mem2reg inserts phis" `Quick test_mem2reg_inserts_phis;
    Alcotest.test_case "mem2reg keeps arrays" `Quick test_mem2reg_keeps_arrays;
    test_mem2reg_preserves;
    Alcotest.test_case "constfold folds" `Quick test_constfold_folds;
    test_constfold_preserves;
    test_instcombine_undoes_sub;
    Alcotest.test_case "instcombine ollvm identities" `Quick
      test_instcombine_ollvm_identities;
    Alcotest.test_case "instcombine identities" `Quick test_instcombine_identities;
    Alcotest.test_case "instcombine a-(0-b)" `Quick test_instcombine_a_minus_neg_b;
    test_instcombine_preserves;
    Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead;
    test_dce_preserves;
    Alcotest.test_case "simplifycfg folds const branch" `Quick
      test_simplifycfg_folds_constant_branch;
    Alcotest.test_case "simplifycfg merges chains" `Quick
      test_simplifycfg_merges_chains;
    test_simplifycfg_preserves;
    Alcotest.test_case "gvn dedups" `Quick test_gvn_dedups;
    Alcotest.test_case "gvn commutativity" `Quick test_gvn_respects_commutativity;
    Alcotest.test_case "gvn keeps loads" `Quick test_gvn_keeps_loads;
    test_gvn_preserves;
    Alcotest.test_case "inline small callee" `Quick test_inline_small_callee;
    Alcotest.test_case "inline skips recursive" `Quick test_inline_skips_recursive;
    test_inline_preserves;
    Alcotest.test_case "inline exposes redundancy to gvn" `Quick
      test_inline_exposes_redundancy_to_gvn;
    Alcotest.test_case "inline + gvn collapses duplicate calls" `Quick
      test_inline_gvn_multiple_calls;
    test_inline_gvn_preserves;
  ]
  @ [
      Alcotest.test_case "dead code stays valid" `Quick
        test_dead_code_stays_valid;
      Alcotest.test_case "subst refuses cycles" `Quick
        test_subst_refuses_cycles;
      test_subst_resolve_ends;
    ]
  @ test_pipelines_preserve
  @ [
      test_pipeline_reduces_cost;
      test_o3_idempotent;
      test_levels_monotone;
      Alcotest.test_case "level parsing" `Quick test_level_parsing;
    ]
