(** Tests for the IR substrate: opcodes, types, builder, verifier, CFG,
    dominance. *)

open Helpers
module Ir = Yali.Ir
module I = Ir.Instr
module T = Ir.Types
module V = Ir.Value
module B = Ir.Builder

let test_opcode_count () =
  Alcotest.(check int) "63 opcodes, like the paper's histogram" 63
    Ir.Opcode.count

let test_opcode_index_bijection () =
  List.iteri
    (fun k op -> Alcotest.(check int) (Ir.Opcode.to_string op) k (Ir.Opcode.index op))
    Ir.Opcode.all

let test_opcode_string_roundtrip () =
  List.iter
    (fun op ->
      match Ir.Opcode.of_string (Ir.Opcode.to_string op) with
      | Some op' -> Alcotest.(check bool) "roundtrip" true (op = op')
      | None -> Alcotest.fail "of_string failed")
    Ir.Opcode.all

let test_opcode_costs_positive () =
  List.iter
    (fun op ->
      Alcotest.(check bool)
        (Ir.Opcode.to_string op)
        true
        (Ir.Opcode.cost op >= 0))
    Ir.Opcode.all

let test_type_sizes () =
  Alcotest.(check int) "i32 one cell" 1 (T.size_in_cells T.I32);
  Alcotest.(check int) "array cells" 10 (T.size_in_cells (T.Arr (T.I32, 10)));
  Alcotest.(check int) "nested array" 12 (T.size_in_cells (T.Arr (T.Arr (T.I64, 3), 4)));
  Alcotest.(check int) "void is empty" 0 (T.size_in_cells T.Void)

let test_type_predicates () =
  Alcotest.(check bool) "i1 is integer" true (T.is_integer T.I1);
  Alcotest.(check bool) "f64 is float" true (T.is_float T.F64);
  Alcotest.(check bool) "ptr is pointer" true (T.is_pointer (T.Ptr T.I32));
  Alcotest.(check int) "width i32" 32 (T.width T.I32);
  Alcotest.(check bool) "deref" true (T.deref (T.Ptr T.I8) = T.I8)

(* -- builder -------------------------------------------------------------- *)

let build_simple () =
  (* f(x) = x + 1 *)
  let b = B.create ~name:"inc" ~param_tys:[ T.I32 ] ~ret:T.I32 in
  let entry = B.new_block b in
  B.switch_to b entry;
  let r = B.ibin b I.Add (B.param b 0) (V.i32 1) ~ty:T.I32 in
  B.ret b (Some r);
  B.finish b

let test_builder_simple () =
  let f = build_simple () in
  Alcotest.(check string) "name" "inc" f.Ir.Func.name;
  Alcotest.(check int) "one block" 1 (List.length f.blocks);
  Alcotest.(check int) "instrs" 2 (Ir.Func.instr_count f)

let test_builder_rejects_double_terminate () =
  let b = B.create ~name:"f" ~param_tys:[] ~ret:T.Void in
  let entry = B.new_block b in
  B.switch_to b entry;
  B.ret b None;
  Alcotest.check_raises "double terminate"
    (Invalid_argument "Builder.terminate: already terminated") (fun () ->
      B.ret b None)

let test_instr_operands_map () =
  let i = I.mk ~id:5 ~ty:T.I32 (I.Ibin (I.Add, V.Var 1, V.Var 2)) in
  Alcotest.(check int) "two operands" 2 (List.length (I.operands i));
  let i' = I.map_operands (fun _ -> V.i32 0) i in
  Alcotest.(check bool) "rewritten" true
    (List.for_all (fun v -> v = V.i32 0) (I.operands i'))

let test_icmp_negate_involution () =
  List.iter
    (fun p ->
      Alcotest.(check bool) "negate involutive" true
        (I.icmp_negate (I.icmp_negate p) = p);
      Alcotest.(check bool) "swap involutive" true (I.icmp_swap (I.icmp_swap p) = p))
    [ I.Eq; I.Ne; I.Slt; I.Sle; I.Sgt; I.Sge; I.Ult; I.Ule; I.Ugt; I.Uge ]

let test_terminator_successors () =
  Alcotest.(check (list string)) "condbr" [ "a"; "b" ]
    (I.successors (I.CondBr (V.i1 true, "a", "b")));
  Alcotest.(check (list string)) "switch" [ "d"; "x"; "y" ]
    (I.successors (I.Switch (V.i32 0, "d", [ (1L, "x"); (2L, "y") ])));
  Alcotest.(check (list string)) "ret" [] (I.successors (I.Ret None))

(* -- verifier ------------------------------------------------------------- *)

let test_verifier_accepts_good () =
  let m = Ir.Irmod.make ~name:"m" [ build_simple () ] in
  Alcotest.(check int) "no errors" 0 (List.length (Ir.Verify.check_module m))

let test_verifier_catches_bad_branch () =
  let blk =
    Ir.Block.make ~label:"entry" ~instrs:[] ~term:(I.Br "nowhere")
  in
  let f = Ir.Func.make ~name:"f" ~params:[] ~ret:T.Void ~blocks:[ blk ] in
  let errs = Ir.Verify.check_func f in
  Alcotest.(check bool) "error reported" true (errs <> [])

(* A reachable block branching back to the entry verified once, and the
   dominance frontiers, which take the entry to have no predecessors, then
   left the entry out of every frontier.  The verifier rejects the branch,
   as LLVM's does. *)
let test_verifier_rejects_branch_to_entry () =
  let m =
    Ir.Parser.parse_module
      {|define i32 @main() {
entry0:
  %1 = call i32 @read_int()
  %2 = icmp sgt %1, 0
  br %2, label %a, label %b
a:
  call void @print_int(%1)
  br label %entry0
b:
  ret 0
}|}
  in
  Alcotest.(check (list string))
    "errors"
    [ "[a] branch to the entry block entry0" ]
    (List.map (Fmt.to_to_string Ir.Verify.pp_error) (Ir.Verify.check_module m))

let test_verifier_catches_undefined_use () =
  let blk =
    Ir.Block.make ~label:"entry"
      ~instrs:[ I.mk ~id:0 ~ty:T.I32 (I.Ibin (I.Add, V.Var 99, V.i32 1)) ]
      ~term:(I.Ret (Some (V.Var 0)))
  in
  let f = Ir.Func.make ~name:"f" ~params:[] ~ret:T.I32 ~blocks:[ blk ] in
  Alcotest.(check bool) "undefined use caught" true (Ir.Verify.check_func f <> [])

let test_verifier_catches_double_def () =
  let blk =
    Ir.Block.make ~label:"entry"
      ~instrs:
        [
          I.mk ~id:0 ~ty:T.I32 (I.Ibin (I.Add, V.i32 1, V.i32 1));
          I.mk ~id:0 ~ty:T.I32 (I.Ibin (I.Add, V.i32 2, V.i32 2));
        ]
      ~term:(I.Ret (Some (V.Var 0)))
  in
  let f = Ir.Func.make ~name:"f" ~params:[] ~ret:T.I32 ~blocks:[ blk ] in
  Alcotest.(check bool) "double def caught" true (Ir.Verify.check_func f <> [])

let test_verifier_catches_phi_mismatch () =
  let b1 = Ir.Block.make ~label:"a" ~instrs:[] ~term:(I.Br "b") in
  let b2 =
    Ir.Block.make ~label:"b"
      ~instrs:[ I.mk ~id:0 ~ty:T.I32 (I.Phi [ (V.i32 1, "wrong") ]) ]
      ~term:(I.Ret (Some (V.Var 0)))
  in
  let f = Ir.Func.make ~name:"f" ~params:[] ~ret:T.I32 ~blocks:[ b1; b2 ] in
  Alcotest.(check bool) "phi mismatch caught" true (Ir.Verify.check_func f <> [])

let test_verifier_no_blocks () =
  let f = Ir.Func.make ~name:"f" ~params:[] ~ret:T.I32 ~blocks:[] in
  Alcotest.(check (list (pair string string)))
    "exactly one error" [ ("f", "function has no blocks") ]
    (List.map (fun (e : Ir.Verify.error) -> (e.where, e.what)) (Ir.Verify.check_func f))

let test_verifier_sparse_ids () =
  (* ids far apart, one negative, as hand-written IR may use them *)
  let blk =
    Ir.Block.make ~label:"entry"
      ~instrs:
        [
          I.mk ~id:1_000_000 ~ty:T.I32 (I.Ibin (I.Add, V.Var (-7), V.i32 1));
          I.mk ~id:3 ~ty:T.I32 (I.Ibin (I.Add, V.Var 1_000_000, V.Var 999));
        ]
      ~term:(I.Ret (Some (V.Var 3)))
  in
  let f = Ir.Func.make ~name:"f" ~params:[ (-7, T.I32) ] ~ret:T.I32 ~blocks:[ blk ] in
  Alcotest.(check (list string))
    "one undefined use" [ "use of undefined value %999" ]
    (List.map (fun (e : Ir.Verify.error) -> e.what) (Ir.Verify.check_func f))

(* -- CFG and dominance ---------------------------------------------------- *)

let diamond () =
  (* entry -> (l, r) -> join *)
  let b = B.create ~name:"d" ~param_tys:[ T.I32 ] ~ret:T.I32 in
  let entry = B.new_block ~hint:"entry" b in
  let l = B.new_block ~hint:"l" b in
  let r = B.new_block ~hint:"r" b in
  let j = B.new_block ~hint:"j" b in
  B.switch_to b entry;
  let c = B.icmp b I.Slt (B.param b 0) (V.i32 0) in
  B.condbr b c l r;
  B.switch_to b l;
  B.br b j;
  B.switch_to b r;
  B.br b j;
  B.switch_to b j;
  B.ret b (Some (V.i32 0));
  (B.finish b, entry, l, r, j)

let test_cfg_edges () =
  let f, entry, l, r, j = diamond () in
  let g = Ir.Cfg.of_func f in
  let ix = Ir.Cfg.index g in
  Alcotest.(check (list string)) "entry succs" [ l; r ]
    (List.map (Ir.Cfg.label g) g.succ.(ix entry));
  Alcotest.(check int) "join preds" 2 (List.length g.pred.(ix j));
  Alcotest.(check int) "edges" 4 (Ir.Cfg.edge_count g);
  Alcotest.(check bool) "acyclic" false (Ir.Cfg.has_cycle g)

let test_cfg_rpo () =
  let f, entry, _, _, j = diamond () in
  let g = Ir.Cfg.of_func f in
  let rpo = List.map (Ir.Cfg.label g) (Ir.Cfg.reverse_postorder g) in
  Alcotest.(check string) "entry first" entry (List.hd rpo);
  Alcotest.(check string) "join last" j (List.nth rpo 3)

let test_dominance_diamond () =
  let f, entry, l, r, j = diamond () in
  let g = Ir.Cfg.of_func f in
  let ix = Ir.Cfg.index g in
  let dom = Ir.Dominance.compute g in
  let idom b = Option.map (Ir.Cfg.label g) (Ir.Dominance.idom dom (ix b)) in
  Alcotest.(check (option string)) "idom l" (Some entry) (idom l);
  Alcotest.(check (option string)) "idom r" (Some entry) (idom r);
  Alcotest.(check (option string)) "idom j" (Some entry) (idom j);
  Alcotest.(check bool) "entry dominates all" true
    (Ir.Dominance.dominates dom (ix entry) (ix j));
  Alcotest.(check bool) "l does not dominate j" false
    (Ir.Dominance.dominates dom (ix l) (ix j));
  Alcotest.(check (list string)) "frontier of l" [ j ]
    (List.map (Ir.Cfg.label g) (Ir.Dominance.frontiers g dom).(ix l))

let test_dominance_loop_self_frontier () =
  (* entry -> header <-> body; header in its own dominance frontier *)
  let b = B.create ~name:"loop" ~param_tys:[ T.I32 ] ~ret:T.I32 in
  let entry = B.new_block ~hint:"entry" b in
  let header = B.new_block ~hint:"h" b in
  let exit = B.new_block ~hint:"x" b in
  B.switch_to b entry;
  B.br b header;
  B.switch_to b header;
  let c = B.icmp b I.Slt (B.param b 0) (V.i32 10) in
  B.condbr b c header exit;
  B.switch_to b exit;
  B.ret b (Some (V.i32 0));
  let f = B.finish b in
  let g = Ir.Cfg.of_func f in
  let h = Ir.Cfg.index g header in
  let df = Ir.Dominance.frontiers g (Ir.Dominance.compute g) in
  Alcotest.(check bool) "header in own frontier" true (List.mem h df.(h))

(* -- pins: verifier error lists and pass outputs --------------------------- *)

module Passdb = Yali.Check.Passdb

let pin_program seed = Yali.Check.Gen.program (Rng.make seed)

(* One seeded defect planted in a random function of [m].  Some draws
   leave the module valid (a swap of independent instructions, a label
   repeated onto its own block); the pin covers those too. *)
let mutate (rng : Rng.t) (m : Ir.Irmod.t) : Ir.Irmod.t =
  let f = Rng.choice rng m.funcs in
  let blocks = Array.of_list f.blocks in
  let n = Array.length blocks in
  let pick () = Rng.int rng n in
  let edit i g = blocks.(i) <- g blocks.(i) in
  let append i x =
    edit i (fun b -> { b with instrs = b.Ir.Block.instrs @ [ x ] })
  in
  let fresh = f.next_id + 1000 in
  let dropped = ref (-1) in
  (match Rng.int rng 10 with
  | 0 (* branch to an unknown label *) ->
      edit (pick ()) (fun b -> { b with term = I.Br "nowhere" })
  | 1 (* drop a block other than the entry *) ->
      if n > 1 then dropped := 1 + Rng.int rng (n - 1)
  | 2 (* repeat a label *) ->
      let l = blocks.(pick ()).label in
      edit (pick ()) (fun b -> { b with label = l })
  | 3 (* move a definition to the end of a block *) -> (
      let i = pick () and j = pick () in
      match List.filter I.defines blocks.(i).instrs with
      | [] -> ()
      | ds ->
          let d = Rng.choice rng ds in
          edit i (fun b ->
              { b with instrs = List.filter (fun x -> x.I.id <> d.I.id) b.instrs });
          append j d)
  | 4 (* swap two instructions *) ->
      edit (pick ()) (fun b ->
          let a = Array.of_list b.instrs in
          let k = Array.length a in
          if k >= 2 then begin
            let p = Rng.int rng k and q = Rng.int rng k in
            let t = a.(p) in
            a.(p) <- a.(q);
            a.(q) <- t
          end;
          { b with instrs = Array.to_list a })
  | 5 (* relabel a phi incoming *) -> (
      let with_phi =
        List.filter (fun i -> Ir.Block.phis blocks.(i) <> []) (List.init n Fun.id)
      in
      match with_phi with
      | [] -> ()
      | is ->
          let i = Rng.choice rng is in
          let target = Rng.choice rng (Ir.Block.phis blocks.(i)) in
          let l = blocks.(pick ()).label in
          edit i (fun b ->
              {
                b with
                instrs =
                  List.map
                    (fun (x : I.t) ->
                      match x.kind with
                      | I.Phi ((v, _) :: rest) when x.id = target.id ->
                          { x with kind = I.Phi ((v, l) :: rest) }
                      | _ -> x)
                    b.instrs;
              }))
  | 6 (* a phi after the block's other instructions *) ->
      let l = blocks.(pick ()).label in
      append (pick ()) (I.mk ~id:fresh ~ty:T.I32 (I.Phi [ (V.i32 0, l) ]))
  | 7 (* call an unknown function *) ->
      append (pick ()) (I.mk_void (I.Call ("nosuch", [])))
  | 8 (* define an id twice *) -> (
      match List.filter I.defines blocks.(pick ()).instrs with
      | [] -> ()
      | ds -> append (pick ()) (Rng.choice rng ds))
  | _ (* use an undefined id *) ->
      append (pick ())
        (I.mk ~id:fresh ~ty:T.I32 (I.Ibin (I.Add, V.Var (fresh + 1), V.i32 1))));
  let blocks = List.filteri (fun i _ -> i <> !dropped) (Array.to_list blocks) in
  let f' = { f with blocks } in
  {
    m with
    funcs = List.map (fun (g : Ir.Func.t) -> if g.name = f.name then f' else g) m.funcs;
  }

(* The verifier's error lists, text and order, on generated programs
   through the obfuscators (and O2+bcf, which leaves phis) plus three
   seeded mutants of each module. *)
let test_verifier_pin () =
  let buf = Buffer.create (1 lsl 16) in
  let invalid = ref 0 in
  let check m =
    let errs = Ir.Verify.check_module m in
    if errs <> [] then incr invalid;
    List.iter (fun (e : Ir.Verify.error) -> Printf.bprintf buf "%s\t%s\n" e.where e.what) errs;
    Buffer.add_string buf "--\n"
  in
  for seed = 0 to 39 do
    let m0 = lower (pin_program seed) in
    let ms =
      m0
      :: List.map
           (fun name ->
             Passdb.apply (Option.get (Passdb.find name)) (Rng.make seed) m0)
           [ "sub"; "bcf"; "fla"; "ollvm"; "O2+bcf" ]
    in
    List.iteri
      (fun k m ->
        check m;
        for j = 0 to 2 do
          check (mutate (Rng.split_ix (Rng.make seed) ((10 * k) + j)) m)
        done)
      ms
  done;
  Alcotest.(check int) "invalid modules" 579 !invalid;
  Alcotest.(check string) "error lists" "fedc3af2232abbae1ef377e65f971edd"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(* Every registry entry's printed output on generated programs. *)
let test_pass_pin () =
  let digests =
    List.mapi
      (fun k (e : Passdb.entry) ->
        let buf = Buffer.create (1 lsl 16) in
        for seed = 0 to 19 do
          let m = lower (pin_program seed) in
          Buffer.add_string buf
            (Ir.Pp.module_to_string (Passdb.apply e (Rng.split_ix (Rng.make seed) k) m))
        done;
        (e.ename, Digest.to_hex (Digest.string (Buffer.contents buf))))
      Passdb.all
  in
  Alcotest.(check (list (pair string string)))
    "printed outputs"
    [
      ("O0", "f279d25a04d0ec4835fa7c0e19b758ee");
      ("O1", "6f118e405c30bb101bd37fa6c1087e29");
      ("O2", "10aaaeb0934a59de3a0303aa0abfddd3");
      ("O3", "3d1433cbde56bca0ddbc8fe19b11e5e1");
      ("mem2reg", "e0c23655ea5de9bcea8b5e672f34d79e");
      ("constfold", "cd1e28e28ee0f83c52bfa097d41c382a");
      ("instcombine", "2d1d8f681d87af04320cd2bb2d49ee81");
      ("dce", "89117e60c93975cb51f5320bfcccb3c7");
      ("simplifycfg", "55e869cd55a5413f2e2c97f3cfe0079a");
      ("gvn", "f279d25a04d0ec4835fa7c0e19b758ee");
      ("inline", "e6f77bbd947a9bf063123c83fc98ff77");
      ("licm", "21ee09584ada802d359b85d599b44f03");
      ("sub", "5ca22a03720496d21fa2c07a88045211");
      ("bcf", "973683fccde94c66fc9a613bd16df157");
      ("fla", "9174716bd840001cab0805c207f19c5b");
      ("ollvm", "85a4253a615d7cfd3af12dbe88780cea");
      ("O2+sub", "dd6b2e86d97f557d92b679d6ac6c2701");
      ("O2+bcf", "c2a6c49338f315af4087e919c077a3be");
      ("O2+fla", "2260ba5c6ba661968a2e0c8c49d6c74c");
      ("O3+ollvm", "703dbcf5d27f4994715dbb8b040c7b48");
      ("fla+O2", "8b85d1a2476964e0de4bc38e26deb9d6");
      ("ollvm+O3", "d189c18285a2e9e0abee41b61b0b73af");
      ("fla+fla", "0bc60ef11ddab4b9ff353cc3cd94a6d9");
      ("fla+ollvm", "8158ec2fcfff7e6b0af14ebec5f3afc8");
      ("ollvm+fla", "de84f72d8287978711004a5849e5ecd5");
      ("ollvm+ollvm", "421faf1d9b5856cff07f8a7f0eb74f0f");
    ]
    digests

(* -- pretty printer ------------------------------------------------------- *)

let test_pp_contains_essentials () =
  let f = build_simple () in
  let s = Ir.Pp.func_to_string f in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (contains_substring s needle))
    [ "define"; "@inc"; "add"; "ret" ]

let suite =
  [
    Alcotest.test_case "opcode count is 63" `Quick test_opcode_count;
    Alcotest.test_case "opcode index bijection" `Quick test_opcode_index_bijection;
    Alcotest.test_case "opcode string roundtrip" `Quick test_opcode_string_roundtrip;
    Alcotest.test_case "opcode costs nonneg" `Quick test_opcode_costs_positive;
    Alcotest.test_case "type sizes" `Quick test_type_sizes;
    Alcotest.test_case "type predicates" `Quick test_type_predicates;
    Alcotest.test_case "builder simple" `Quick test_builder_simple;
    Alcotest.test_case "builder rejects double terminate" `Quick
      test_builder_rejects_double_terminate;
    Alcotest.test_case "instr operands map" `Quick test_instr_operands_map;
    Alcotest.test_case "icmp negate/swap involutions" `Quick
      test_icmp_negate_involution;
    Alcotest.test_case "terminator successors" `Quick test_terminator_successors;
    Alcotest.test_case "verifier accepts good" `Quick test_verifier_accepts_good;
    Alcotest.test_case "verifier: bad branch" `Quick test_verifier_catches_bad_branch;
    Alcotest.test_case "verifier: branch to the entry" `Quick
      test_verifier_rejects_branch_to_entry;
    Alcotest.test_case "verifier: undefined use" `Quick
      test_verifier_catches_undefined_use;
    Alcotest.test_case "verifier: double def" `Quick test_verifier_catches_double_def;
    Alcotest.test_case "verifier: phi mismatch" `Quick
      test_verifier_catches_phi_mismatch;
    Alcotest.test_case "verifier: function with no blocks" `Quick
      test_verifier_no_blocks;
    Alcotest.test_case "verifier: sparse and negative ids" `Quick
      test_verifier_sparse_ids;
    Alcotest.test_case "cfg edges" `Quick test_cfg_edges;
    Alcotest.test_case "cfg rpo" `Quick test_cfg_rpo;
    Alcotest.test_case "dominance diamond" `Quick test_dominance_diamond;
    Alcotest.test_case "dominance self frontier" `Quick
      test_dominance_loop_self_frontier;
    Alcotest.test_case "verifier pin: error lists" `Quick test_verifier_pin;
    Alcotest.test_case "pass pin: printed outputs" `Quick test_pass_pin;
    Alcotest.test_case "pp essentials" `Quick test_pp_contains_essentials;
  ]
