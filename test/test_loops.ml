(** Tests for natural-loop detection and loop-invariant code motion. *)

open Helpers
module Ir = Yali.Ir
module Tx = Yali.Transforms
module Op = Ir.Opcode

let loop_module () =
  Tx.Mem2reg.run
    (lower
       (parse
          "int main() { int n = read_int(); int a = read_int(); int s = 0;\n\
           for (int k = 0; k < n; k = k + 1) { s = s + (a * 3 + 7); }\n\
           print_int(s); return 0; }"))

let test_detects_loop () =
  let m = loop_module () in
  let f = Ir.Irmod.find_func_exn m "main" in
  let loops = Ir.Loops.of_func f in
  Alcotest.(check int) "one loop" 1 (Ir.Loops.loop_count loops);
  let l = List.hd loops.loops in
  Alcotest.(check bool) "header is the for-cond block" true
    (contains_substring (Ir.Cfg.label loops.cfg l.header) "for.cond");
  Alcotest.(check bool) "body has >= 2 blocks" true (l.size >= 2)

let test_no_loops_in_straightline () =
  let m = lower (parse "int main() { return 1 + read_int(); }") in
  let f = Ir.Irmod.find_func_exn m "main" in
  Alcotest.(check int) "no loops" 0 (Ir.Loops.loop_count (Ir.Loops.of_func f))

let test_nested_loops () =
  let m =
    lower
      (parse
         "int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { for (int j = 0; j < 3; j = j + 1) { s = s + 1; } } return s; }")
  in
  let f = Ir.Irmod.find_func_exn m "main" in
  let loops = Ir.Loops.of_func f in
  Alcotest.(check int) "two loops" 2 (Ir.Loops.loop_count loops);
  (* innermost-first puts the smaller body first *)
  match Ir.Loops.innermost_first loops with
  | [ a; b ] ->
      Alcotest.(check bool) "inner smaller" true (a.size < b.size)
  | _ -> Alcotest.fail "expected two loops"

let test_depth_map () =
  let m =
    lower
      (parse
         "int main() { int s = 0; for (int i = 0; i < 2; i = i + 1) { for (int j = 0; j < 2; j = j + 1) { s = s + 1; } } return s; }")
  in
  let f = Ir.Irmod.find_func_exn m "main" in
  let loops = Ir.Loops.of_func f in
  let depths = Ir.Loops.depth_map loops in
  let max_depth = Array.fold_left max 0 depths in
  Alcotest.(check int) "max nesting 2" 2 max_depth

(* unreachable blocks belong to no loop, though dominance is reflexive on
   them and they may branch into a reachable loop's body *)
let test_unreachable_blocks_outside_loops () =
  let loops_of text =
    Ir.Loops.of_func
      (Ir.Irmod.find_func_exn (Ir.Parser.parse_module text) "main")
  in
  Alcotest.(check int) "a dead self-loop is no loop" 0
    (Ir.Loops.loop_count
       (loops_of
          {|define i32 @main() {
entry0:
  ret 0
dead:
  br label %dead
}|}));
  let t =
    loops_of
      {|define i32 @main() {
entry0:
  br label %head
head:
  %1 = phi i32 [ 0, %entry0 ], [ %3, %body ]
  %2 = icmp slt %1, 3
  br %2, label %body, label %exit
body:
  %3 = add i32 %1, 1
  br label %head
dead:
  br label %body
exit:
  ret 0
}|}
  in
  match t.loops with
  | [ l ] ->
      let mem = Ir.Loops.mem t l in
      Alcotest.(check int) "body size" 2 l.size;
      Alcotest.(check (list bool))
        "body is {head, body}"
        [ false; true; true; false; false ]
        (List.map mem [ "entry0"; "head"; "body"; "dead"; "exit" ])
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

(* -- licm ------------------------------------------------------------------ *)

let test_licm_hoists_invariant () =
  let m = loop_module () in
  let m' = Tx.Licm.run m in
  Yali.Ir.Verify.assert_ok m';
  (* a*3+7 is loop-invariant; after licm the dynamic cost must drop *)
  let input = [ 50L; 9L ] in
  let before = Ir.Interp.run m input in
  let after = Ir.Interp.run m' input in
  Alcotest.(check bool) "same behaviour" true
    (Ir.Interp.equal_behaviour before after);
  Alcotest.(check bool)
    (Printf.sprintf "cost drops (%d -> %d)" before.cost after.cost)
    true (after.cost < before.cost);
  (* the multiply now executes once, not 50 times *)
  let dyn_mul (o : Ir.Interp.outcome) = o.steps in
  Alcotest.(check bool) "fewer steps" true (dyn_mul after < dyn_mul before)

let test_licm_does_not_hoist_division () =
  (* division may trap; it must stay inside the guard *)
  let m =
    Tx.Mem2reg.run
      (lower
         (parse
            "int main() { int n = read_int(); int d = read_int(); int s = 0;\n\
             for (int k = 0; k < n; k = k + 1) { s = s + 100 / d; }\n\
             return s; }"))
  in
  let m' = Tx.Licm.run m in
  (* with n = 0 and d = 0 the division never runs: must not trap *)
  let o = Ir.Interp.run m' [ 0L; 0L ] in
  Alcotest.(check bool) "no trap on zero-trip loop" true
    (o.exit_value = Ir.Interp.RInt 0L)

let test_licm_preserves =
  qtest ~count:60 "licm preserves behaviour"
    (preserves_behaviour (fun m -> Tx.Licm.run (Tx.Mem2reg.run m)))

let test_licm_after_obfuscation =
  qtest ~count:20 "licm is sound on flattened code" (fun seed ->
      preserves_behaviour
        (fun m ->
          m
          |> Yali.Obfuscation.Fla.run (Yali.Rng.make seed)
          |> Tx.Mem2reg.run |> Tx.Licm.run)
        seed)

let suite =
  [
    Alcotest.test_case "detects a loop" `Quick test_detects_loop;
    Alcotest.test_case "no loops in straight-line" `Quick
      test_no_loops_in_straightline;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "depth map" `Quick test_depth_map;
    Alcotest.test_case "unreachable blocks outside loops" `Quick
      test_unreachable_blocks_outside_loops;
    Alcotest.test_case "licm hoists invariants" `Quick test_licm_hoists_invariant;
    Alcotest.test_case "licm keeps division guarded" `Quick
      test_licm_does_not_hoist_division;
    test_licm_preserves;
    test_licm_after_obfuscation;
  ]


