(** Parser for the textual IR emitted by {!Pp}.

    The contract is a printer/parser round trip: for any module [m] produced
    by this library, [parse (Pp.module_to_string m)] yields a module that
    prints identically and behaves identically under the interpreter.
    Constant operands print without their type, so the parser infers integer
    constant types from the instruction context (falling back to [i32]);
    this is invisible in the printed form and immaterial to execution for
    modules built by the frontend. *)

exception Parse_error of string

let err fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* Number conversions and lookups that fail with [Parse_error], never with
   [Failure] or [Not_found]. *)
let int_of (tok : string) : int =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> err "bad integer %S" tok

let int64_of (tok : string) : int64 =
  match Int64.of_string_opt tok with
  | Some n -> n
  | None -> err "bad integer %S" tok

let float_of (tok : string) : float =
  match float_of_string_opt tok with
  | Some x -> x
  | None -> err "bad float %S" tok

(* positions of the first '(' at or after [from] and of the last ')' after
   it, as in "@f(args)" *)
let parens (line : string) (from : int) : int * int =
  match (String.index_from_opt line from '(', String.rindex_opt line ')') with
  | Some o, Some c when c > o -> (o, c)
  | _ -> err "unbalanced parentheses in %S" line

(* -- lexing helpers (line oriented) --------------------------------------- *)

let strip s = String.trim s

let split_ws (s : string) : string list =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* split "a, b, c" at top level (no nesting in our operand lists except
   phi's [ v, %l ] groups, handled separately) *)
let split_commas (s : string) : string list =
  String.split_on_char ',' s |> List.map strip |> List.filter (fun t -> t <> "")

let parse_type (s : string) : Types.t =
  let rec go (s : string) : Types.t =
    if String.length s > 0 && s.[String.length s - 1] = '*' then
      Types.Ptr (go (String.sub s 0 (String.length s - 1)))
    else
      match s with
      | "void" -> Types.Void
      | "i1" -> Types.I1
      | "i8" -> Types.I8
      | "i32" -> Types.I32
      | "i64" -> Types.I64
      | "double" -> Types.F64
      | s when String.length s > 2 && s.[0] = '[' ->
          (* [N x ty] *)
          let inner = String.sub s 1 (String.length s - 2) in
          (match String.index_opt inner 'x' with
          | Some k ->
              let n = int_of (strip (String.sub inner 0 k)) in
              let elt = strip (String.sub inner (k + 1) (String.length inner - k - 1)) in
              Types.Arr (go elt, n)
          | None -> err "bad array type %S" s)
      | s -> err "unknown type %S" s
  in
  go (strip s)

let parse_operand ?(ty = Types.I32) (tok : string) : Value.t =
  let tok = strip tok in
  if tok = "" then err "empty operand"
  else if tok = "undef" then Value.Undef ty
  else if tok.[0] = '%' then
    Value.Var (int_of (String.sub tok 1 (String.length tok - 1)))
  else if tok.[0] = '@' then
    Value.Global (String.sub tok 1 (String.length tok - 1))
  else if
    String.contains tok '.'
    || String.contains tok 'p'
    || (String.contains tok 'x' && String.length tok > 1 && tok.[0] = '0')
    || String.contains tok 'n' (* nan *)
    || String.contains tok 'i' (* infinity *)
  then Value.FConst (float_of tok)
  else Value.IConst (ty, int64_of tok)

let ibin_of_string = function
  | "add" -> Some Instr.Add | "sub" -> Some Instr.Sub | "mul" -> Some Instr.Mul
  | "sdiv" -> Some Instr.SDiv | "udiv" -> Some Instr.UDiv
  | "srem" -> Some Instr.SRem | "urem" -> Some Instr.URem
  | "shl" -> Some Instr.Shl | "lshr" -> Some Instr.LShr
  | "ashr" -> Some Instr.AShr | "and" -> Some Instr.And
  | "or" -> Some Instr.Or | "xor" -> Some Instr.Xor
  | _ -> None

let fbin_of_string = function
  | "fadd" -> Some Instr.FAdd | "fsub" -> Some Instr.FSub
  | "fmul" -> Some Instr.FMul | "fdiv" -> Some Instr.FDiv
  | "frem" -> Some Instr.FRem
  | _ -> None

let icmp_of_string = function
  | "eq" -> Instr.Eq | "ne" -> Instr.Ne | "slt" -> Instr.Slt
  | "sle" -> Instr.Sle | "sgt" -> Instr.Sgt | "sge" -> Instr.Sge
  | "ult" -> Instr.Ult | "ule" -> Instr.Ule | "ugt" -> Instr.Ugt
  | "uge" -> Instr.Uge
  | p -> err "unknown icmp predicate %S" p

let fcmp_of_string = function
  | "oeq" -> Instr.Oeq | "one" -> Instr.One | "olt" -> Instr.Olt
  | "ole" -> Instr.Ole | "ogt" -> Instr.Ogt | "oge" -> Instr.Oge
  | p -> err "unknown fcmp predicate %S" p

let cast_of_string = function
  | "trunc" -> Some Instr.Trunc | "zext" -> Some Instr.ZExt
  | "sext" -> Some Instr.SExt | "fptrunc" -> Some Instr.FPTrunc
  | "fpext" -> Some Instr.FPExt | "fptoui" -> Some Instr.FPToUI
  | "fptosi" -> Some Instr.FPToSI | "uitofp" -> Some Instr.UIToFP
  | "sitofp" -> Some Instr.SIToFP | "ptrtoint" -> Some Instr.PtrToInt
  | "inttoptr" -> Some Instr.IntToPtr | "bitcast" -> Some Instr.Bitcast
  | _ -> None

(* "%5 = rest" -> (5, "rest"); no '=' -> (-1, line) *)
let split_dest (line : string) : int * string =
  let dest k =
    if line.[0] = '%' && not (String.contains (String.sub line 0 k) '(') then
      int_of_string_opt (strip (String.sub line 1 (k - 1)))
    else None
  in
  match String.index_opt line '=' with
  | Some k when dest k <> None ->
      ( Option.get (dest k),
        strip (String.sub line (k + 1) (String.length line - k - 1)) )
  | _ -> (Instr.no_result, strip line)

let parse_phi_incoming (s : string) : (Value.t * string) list * Types.t -> (Value.t * string) list =
 fun (acc, ty) ->
  ignore acc;
  (* s is like "[ v, %l ], [ v, %l ]" *)
  let parts = ref [] in
  let i = ref 0 in
  let n = String.length s in
  while !i < n do
    match String.index_from_opt s !i '[' with
    | None -> i := n
    | Some o -> (
        match String.index_from_opt s o ']' with
        | None -> err "unterminated phi group"
        | Some c ->
            let inner = String.sub s (o + 1) (c - o - 1) in
            (match split_commas inner with
            | [ v; l ] when String.length l > 1 && l.[0] = '%' ->
                parts :=
                  (parse_operand ~ty v, String.sub l 1 (String.length l - 1))
                  :: !parts
            | _ -> err "bad phi group %S" inner);
            i := c + 1)
  done;
  List.rev !parts

let parse_instr_line (line : string) : Instr.t =
  let id, rest = split_dest line in
  let toks = split_ws rest in
  match toks with
  | [] -> err "empty instruction"
  | mnemonic :: _ -> (
      let after = strip (String.sub rest (String.length mnemonic)
                            (String.length rest - String.length mnemonic)) in
      match mnemonic with
      | "store" -> (
          match split_commas after with
          | [ v; p ] ->
              Instr.mk_void (Instr.Store (parse_operand v, parse_operand p))
          | _ -> err "bad store %S" line)
      | "alloca" ->
          let ty = parse_type after in
          Instr.mk ~id ~ty:(Types.Ptr ty) (Instr.Alloca ty)
      | "load" -> (
          match split_commas after with
          | [ ty; p ] ->
              let ty = parse_type ty in
              Instr.mk ~id ~ty (Instr.Load (parse_operand p))
          | _ -> err "bad load %S" line)
      | "icmp" -> (
          match split_ws after with
          | pred :: rest_toks ->
              let ops = split_commas (String.concat " " rest_toks) in
              (match ops with
              | [ a; b ] ->
                  Instr.mk ~id ~ty:Types.I1
                    (Instr.Icmp (icmp_of_string pred, parse_operand a, parse_operand b))
              | _ -> err "bad icmp %S" line)
          | [] -> err "bad icmp %S" line)
      | "fcmp" -> (
          match split_ws after with
          | pred :: rest_toks ->
              let ops = split_commas (String.concat " " rest_toks) in
              (match ops with
              | [ a; b ] ->
                  Instr.mk ~id ~ty:Types.I1
                    (Instr.Fcmp (fcmp_of_string pred, parse_operand a, parse_operand b))
              | _ -> err "bad fcmp %S" line)
          | [] -> err "bad fcmp %S" line)
      | "fneg" -> (
          match split_ws after with
          | [ _ty; a ] -> Instr.mk ~id ~ty:Types.F64 (Instr.Fneg (parse_operand a))
          | _ -> err "bad fneg %S" line)
      | "phi" -> (
          match split_ws after with
          | ty_tok :: _ ->
              let ty = parse_type ty_tok in
              let groups = strip (String.sub after (String.length ty_tok)
                                     (String.length after - String.length ty_tok)) in
              Instr.mk ~id ~ty (Instr.Phi (parse_phi_incoming groups ([], ty)))
          | [] -> err "bad phi %S" line)
      | "select" -> (
          (* select %c, ty a, ty b *)
          match split_commas after with
          | [ c; a; b ] ->
              let drop_ty s =
                match split_ws s with
                | [ ty; v ] -> (parse_type ty, v)
                | [ v ] -> (Types.I32, v)
                | _ -> err "bad select arm %S" s
              in
              let ty, av = drop_ty a in
              let _, bv = drop_ty b in
              Instr.mk ~id ~ty
                (Instr.Select (parse_operand c, parse_operand ~ty av, parse_operand ~ty bv))
          | _ -> err "bad select %S" line)
      | "call" -> (
          (* call ty @f(args) *)
          match String.index_opt after '@' with
          | None -> err "bad call %S" line
          | Some at ->
              let ty = parse_type (String.sub after 0 at) in
              let opn, close = parens after at in
              let callee = String.sub after (at + 1) (opn - at - 1) in
              let args = String.sub after (opn + 1) (close - opn - 1) in
              let args = List.map (fun a -> parse_operand a) (split_commas args) in
              if ty = Types.Void then Instr.mk_void (Instr.Call (callee, args))
              else Instr.mk ~id ~ty (Instr.Call (callee, args)))
      | "getelementptr" -> (
          match split_ws after with
          | ty_tok :: _ ->
              let ty = parse_type ty_tok in
              let ops = strip (String.sub after (String.length ty_tok)
                                  (String.length after - String.length ty_tok)) in
              (match split_commas ops with
              | base :: idxs ->
                  Instr.mk ~id ~ty
                    (Instr.Gep (parse_operand base, List.map (fun i -> parse_operand i) idxs))
              | [] -> err "bad gep %S" line)
          | [] -> err "bad gep %S" line)
      | "freeze" ->
          Instr.mk ~id ~ty:Types.I32 (Instr.Freeze (parse_operand after))
      | m -> (
          match ibin_of_string m with
          | Some op -> (
              match split_ws after with
              | ty_tok :: rest_toks ->
                  let ty = parse_type ty_tok in
                  (match split_commas (String.concat " " rest_toks) with
                  | [ a; b ] ->
                      Instr.mk ~id ~ty
                        (Instr.Ibin (op, parse_operand ~ty a, parse_operand ~ty b))
                  | _ -> err "bad %s %S" m line)
              | [] -> err "bad %s %S" m line)
          | None -> (
              match fbin_of_string m with
              | Some op -> (
                  match split_ws after with
                  | _ty :: rest_toks -> (
                      match split_commas (String.concat " " rest_toks) with
                      | [ a; b ] ->
                          Instr.mk ~id ~ty:Types.F64
                            (Instr.Fbin (op, parse_operand a, parse_operand b))
                      | _ -> err "bad %s %S" m line)
                  | [] -> err "bad %s %S" m line)
              | None -> (
                  match cast_of_string m with
                  | Some c -> (
                      (* "<op> to <ty>" *)
                      match String.index_opt after 't' with
                      | _ -> (
                          match split_ws after with
                          | [ v; "to"; ty ] ->
                              let ty = parse_type ty in
                              Instr.mk ~id ~ty (Instr.Cast (c, parse_operand v))
                          | _ -> err "bad cast %S" line))
                  | None -> err "unknown mnemonic %S in %S" m line))))

let parse_label_ref (tok : string) : string =
  (* "label %foo" or "%foo" or "%foo," *)
  let tok = strip tok in
  let tok =
    if String.length tok > 0 && tok.[String.length tok - 1] = ',' then
      String.sub tok 0 (String.length tok - 1)
    else tok
  in
  if String.length tok > 1 && tok.[0] = '%' then
    String.sub tok 1 (String.length tok - 1)
  else err "expected label, got %S" tok

let parse_terminator (line : string) : Instr.terminator =
  let toks = split_ws line in
  match toks with
  | [ "ret"; "void" ] -> Instr.Ret None
  | [ "ret"; v ] -> Instr.Ret (Some (parse_operand v))
  | [ "br"; "label"; l ] -> Instr.Br (parse_label_ref l)
  | "br" :: c :: "label" :: t :: "label" :: e ->
      let c = String.sub c 0 (String.length c - 1) (* trailing comma *) in
      Instr.CondBr
        (parse_operand c, parse_label_ref t, parse_label_ref (String.concat "" e))
  | "switch" :: _ -> (
      (* switch %v, label %d [k: %l k: %l ...] *)
      match String.index_opt line '[' with
      | None -> err "bad switch %S" line
      | Some o ->
          let head = String.sub line 0 o in
          let close =
            match String.rindex_opt line ']' with
            | Some c when c > o -> c
            | _ -> err "bad switch %S" line
          in
          let body = String.sub line (o + 1) (close - o - 1) in
          let head_toks = split_ws head in
          (match head_toks with
          | [ "switch"; v; "label"; d ] ->
              let v = String.sub v 0 (String.length v - 1) in
              let cases =
                let toks = split_ws body in
                let rec go = function
                  | [] -> []
                  | k :: l :: rest ->
                      let k = String.sub k 0 (String.length k - 1) in
                      (int64_of k, parse_label_ref l) :: go rest
                  | _ -> err "bad switch cases %S" body
                in
                go toks
              in
              Instr.Switch (parse_operand ~ty:Types.I64 v, parse_label_ref d, cases)
          | _ -> err "bad switch %S" line))
  | [ "unreachable" ] -> Instr.Unreachable
  | _ -> err "unknown terminator %S" line

let is_terminator_line (line : string) : bool =
  match split_ws line with
  | ("ret" | "br" | "switch" | "unreachable") :: _ -> true
  | _ -> false

(* -- function / module structure ------------------------------------------ *)

let parse_module (src : string) : Irmod.t =
  let lines = String.split_on_char '\n' src in
  let name = ref "m" in
  let globals = ref [] in
  let funcs = ref [] in
  (* current function state *)
  let cur_name = ref "" in
  let cur_ret = ref Types.Void in
  let cur_params = ref [] in
  let cur_blocks = ref [] in
  let cur_label = ref None in
  let cur_instrs = ref [] in
  let cur_term = ref None in
  let close_block () =
    match !cur_label with
    | None -> ()
    | Some label ->
        let term = Option.value !cur_term ~default:Instr.Unreachable in
        cur_blocks :=
          Block.make ~label ~instrs:(List.rev !cur_instrs) ~term :: !cur_blocks;
        cur_label := None;
        cur_instrs := [];
        cur_term := None
  in
  let close_func () =
    close_block ();
    if !cur_name <> "" then begin
      funcs :=
        Func.make ~name:!cur_name ~params:(List.rev !cur_params) ~ret:!cur_ret
          ~blocks:(List.rev !cur_blocks)
        :: !funcs;
      cur_name := "";
      cur_params := [];
      cur_blocks := []
    end
  in
  List.iter
    (fun raw ->
      let line = strip raw in
      if line = "" then ()
      else if String.length line >= 9 && String.sub line 0 9 = "; module " then
        name := strip (String.sub line 9 (String.length line - 9))
      else if line.[0] = ';' then ()
      else if line.[0] = '@' then begin
        (* @g = global <ty> *)
        match String.index_opt line '=' with
        | Some k ->
            let gname = strip (String.sub line 1 (k - 1)) in
            let rest = strip (String.sub line (k + 1) (String.length line - k - 1)) in
            (match split_ws rest with
            | "global" :: ty_toks ->
                let gty = parse_type (String.concat " " ty_toks) in
                globals :=
                  { Irmod.gname; gty; ginit = [||] } :: !globals
            | _ -> err "bad global %S" line)
        | None -> err "bad global %S" line
      end
      else if String.length line >= 7 && String.sub line 0 7 = "define " then begin
        close_func ();
        (* define <ty> @name(<ty> %N, ...) { *)
        let at =
          match String.index_opt line '@' with
          | Some at -> at
          | None -> err "bad define %S" line
        in
        let opn, close = parens line at in
        cur_ret := parse_type (String.sub line 7 (at - 7));
        cur_name := String.sub line (at + 1) (opn - at - 1);
        let params_s = String.sub line (opn + 1) (close - opn - 1) in
        cur_params :=
          List.rev
            (List.map
               (fun p ->
                 match split_ws p with
                 | [ ty; v ] when String.length v > 1 && v.[0] = '%' ->
                     ( int_of (String.sub v 1 (String.length v - 1)),
                       parse_type ty )
                 | _ -> err "bad parameter %S" p)
               (split_commas params_s))
      end
      else if line = "}" then close_func ()
      else if String.length line > 1 && line.[String.length line - 1] = ':' then begin
        close_block ();
        cur_label := Some (String.sub line 0 (String.length line - 1))
      end
      else if is_terminator_line line then cur_term := Some (parse_terminator line)
      else begin
        match !cur_label with
        | None -> err "instruction outside block: %S" line
        | Some _ -> cur_instrs := parse_instr_line line :: !cur_instrs
      end)
    lines;
  close_func ();
  Irmod.make ~globals:(List.rev !globals) ~name:!name (List.rev !funcs)
