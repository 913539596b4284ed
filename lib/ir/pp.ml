(** Textual rendering of the IR, in an LLVM-flavoured concrete syntax. *)

open Instr

let pp_operand fmt v =
  (* short form, without the type, for contexts where the type is implied *)
  match v with
  | Value.Var i -> Fmt.pf fmt "%%%d" i
  | Value.IConst (_, n) -> Fmt.pf fmt "%Ld" n
  | Value.FConst x -> Fmt.pf fmt "%h" x
  | Value.Global g -> Fmt.pf fmt "@%s" g
  | Value.Undef _ -> Fmt.string fmt "undef"

let pp_instr fmt (i : Instr.t) =
  let dst fmt () =
    if Instr.defines i then Fmt.pf fmt "%%%d = " i.id else ()
  in
  let ty = Types.to_string i.ty in
  match i.kind with
  | Ibin (op, a, b) ->
      Fmt.pf fmt "%a%s %s %a, %a" dst () (ibin_to_string op) ty pp_operand a
        pp_operand b
  | Fbin (op, a, b) ->
      Fmt.pf fmt "%a%s %s %a, %a" dst () (fbin_to_string op) ty pp_operand a
        pp_operand b
  | Fneg a -> Fmt.pf fmt "%afneg %s %a" dst () ty pp_operand a
  | Icmp (p, a, b) ->
      Fmt.pf fmt "%aicmp %s %a, %a" dst () (icmp_to_string p) pp_operand a
        pp_operand b
  | Fcmp (p, a, b) ->
      Fmt.pf fmt "%afcmp %s %a, %a" dst () (fcmp_to_string p) pp_operand a
        pp_operand b
  | Alloca t -> Fmt.pf fmt "%aalloca %s" dst () (Types.to_string t)
  | Load p -> Fmt.pf fmt "%aload %s, %a" dst () ty pp_operand p
  | Store (v, p) -> Fmt.pf fmt "store %a, %a" pp_operand v pp_operand p
  | Gep (base, idxs) ->
      Fmt.pf fmt "%agetelementptr %s %a%a" dst () ty pp_operand base
        Fmt.(list ~sep:nop (fun fmt i -> Fmt.pf fmt ", %a" pp_operand i))
        idxs
  | Phi incoming ->
      Fmt.pf fmt "%aphi %s %a" dst () ty
        Fmt.(
          list ~sep:(any ", ") (fun fmt (v, l) ->
              Fmt.pf fmt "[ %a, %%%s ]" pp_operand v l))
        incoming
  | Select (c, a, b) ->
      Fmt.pf fmt "%aselect %a, %s %a, %s %a" dst () pp_operand c ty pp_operand
        a ty pp_operand b
  | Call (callee, args) ->
      Fmt.pf fmt "%acall %s @%s(%a)" dst () ty callee
        Fmt.(list ~sep:(any ", ") pp_operand)
        args
  | Cast (c, a) ->
      Fmt.pf fmt "%a%s %a to %s" dst () (cast_to_string c) pp_operand a ty
  | Freeze a -> Fmt.pf fmt "%afreeze %a" dst () pp_operand a

let pp_terminator fmt (t : Instr.terminator) =
  match t with
  | Ret None -> Fmt.string fmt "ret void"
  | Ret (Some v) -> Fmt.pf fmt "ret %a" pp_operand v
  | Br l -> Fmt.pf fmt "br label %%%s" l
  | CondBr (c, t, e) ->
      Fmt.pf fmt "br %a, label %%%s, label %%%s" pp_operand c t e
  | Switch (v, d, cases) ->
      Fmt.pf fmt "switch %a, label %%%s [%a]" pp_operand v d
        Fmt.(
          list ~sep:(any " ") (fun fmt (k, l) -> Fmt.pf fmt "%Ld: %%%s" k l))
        cases
  | Unreachable -> Fmt.string fmt "unreachable"

let pp_block fmt (b : Block.t) =
  Fmt.pf fmt "%s:@." b.label;
  List.iter (fun i -> Fmt.pf fmt "  %a@." pp_instr i) b.instrs;
  Fmt.pf fmt "  %a@." pp_terminator b.term

let pp_func fmt (f : Func.t) =
  Fmt.pf fmt "define %s @%s(%a) {@." (Types.to_string f.ret) f.name
    Fmt.(
      list ~sep:(any ", ") (fun fmt (id, ty) ->
          Fmt.pf fmt "%s %%%d" (Types.to_string ty) id))
    f.params;
  List.iter (pp_block fmt) f.blocks;
  Fmt.pf fmt "}@."

let pp_global fmt (g : Irmod.global) =
  Fmt.pf fmt "@%s = global %s@." g.Irmod.gname (Types.to_string g.Irmod.gty)

let pp_module fmt (m : Irmod.t) =
  Fmt.pf fmt "; module %s@." m.mname;
  List.iter (pp_global fmt) m.globals;
  List.iter (fun f -> Fmt.pf fmt "@.%a" pp_func f) m.funcs

let func_to_string f = Fmt.str "%a" pp_func f
let module_to_string m = Fmt.str "%a" pp_module m
