(** Instructions and terminators of the miniature IR.

    Instructions are immutable records; transformation passes construct new
    instructions rather than mutating in place.  Every instruction carries the
    SSA identifier it defines ([id]; [-1] for instructions with no result,
    e.g. [store]) and its result type. *)

type ibin =
  | Add | Sub | Mul | SDiv | UDiv | SRem | URem
  | Shl | LShr | AShr | And | Or | Xor

type fbin = FAdd | FSub | FMul | FDiv | FRem

type icmp = Eq | Ne | Slt | Sle | Sgt | Sge | Ult | Ule | Ugt | Uge

type fcmp = Oeq | One | Olt | Ole | Ogt | Oge

type cast =
  | Trunc | ZExt | SExt
  | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP
  | PtrToInt | IntToPtr | Bitcast

type kind =
  | Ibin of ibin * Value.t * Value.t
  | Fbin of fbin * Value.t * Value.t
  | Fneg of Value.t
  | Icmp of icmp * Value.t * Value.t
  | Fcmp of fcmp * Value.t * Value.t
  | Alloca of Types.t  (** allocated type; result type is a pointer to it *)
  | Load of Value.t  (** pointer *)
  | Store of Value.t * Value.t  (** stored value, pointer *)
  | Gep of Value.t * Value.t list  (** base pointer, element indices *)
  | Phi of (Value.t * string) list  (** (incoming value, predecessor label) *)
  | Select of Value.t * Value.t * Value.t
  | Call of string * Value.t list
  | Cast of cast * Value.t
  | Freeze of Value.t

type t = { id : int; ty : Types.t; kind : kind }

type terminator =
  | Ret of Value.t option
  | Br of string
  | CondBr of Value.t * string * string
  | Switch of Value.t * string * (int64 * string) list
      (** scrutinee, default label, cases *)
  | Unreachable

let no_result = -1

let mk ~id ~ty kind = { id; ty; kind }
let mk_void kind = { id = no_result; ty = Types.Void; kind }

let defines (i : t) = i.id <> no_result
let is_phi (i : t) = match i.kind with Phi _ -> true | _ -> false

let opcode (i : t) : Opcode.t =
  match i.kind with
  | Ibin (Add, _, _) -> Opcode.Add
  | Ibin (Sub, _, _) -> Opcode.Sub
  | Ibin (Mul, _, _) -> Opcode.Mul
  | Ibin (SDiv, _, _) -> Opcode.SDiv
  | Ibin (UDiv, _, _) -> Opcode.UDiv
  | Ibin (SRem, _, _) -> Opcode.SRem
  | Ibin (URem, _, _) -> Opcode.URem
  | Ibin (Shl, _, _) -> Opcode.Shl
  | Ibin (LShr, _, _) -> Opcode.LShr
  | Ibin (AShr, _, _) -> Opcode.AShr
  | Ibin (And, _, _) -> Opcode.And
  | Ibin (Or, _, _) -> Opcode.Or
  | Ibin (Xor, _, _) -> Opcode.Xor
  | Fbin (FAdd, _, _) -> Opcode.FAdd
  | Fbin (FSub, _, _) -> Opcode.FSub
  | Fbin (FMul, _, _) -> Opcode.FMul
  | Fbin (FDiv, _, _) -> Opcode.FDiv
  | Fbin (FRem, _, _) -> Opcode.FRem
  | Fneg _ -> Opcode.FNeg
  | Icmp _ -> Opcode.ICmp
  | Fcmp _ -> Opcode.FCmp
  | Alloca _ -> Opcode.Alloca
  | Load _ -> Opcode.Load
  | Store _ -> Opcode.Store
  | Gep _ -> Opcode.Gep
  | Phi _ -> Opcode.Phi
  | Select _ -> Opcode.Select
  | Call _ -> Opcode.Call
  | Cast (Trunc, _) -> Opcode.Trunc
  | Cast (ZExt, _) -> Opcode.ZExt
  | Cast (SExt, _) -> Opcode.SExt
  | Cast (FPTrunc, _) -> Opcode.FPTrunc
  | Cast (FPExt, _) -> Opcode.FPExt
  | Cast (FPToUI, _) -> Opcode.FPToUI
  | Cast (FPToSI, _) -> Opcode.FPToSI
  | Cast (UIToFP, _) -> Opcode.UIToFP
  | Cast (SIToFP, _) -> Opcode.SIToFP
  | Cast (PtrToInt, _) -> Opcode.PtrToInt
  | Cast (IntToPtr, _) -> Opcode.IntToPtr
  | Cast (Bitcast, _) -> Opcode.Bitcast
  | Freeze _ -> Opcode.Freeze

let opcode_of_terminator : terminator -> Opcode.t = function
  | Ret _ -> Opcode.Ret
  | Br _ -> Opcode.Br
  | CondBr _ -> Opcode.CondBr
  | Switch _ -> Opcode.Switch
  | Unreachable -> Opcode.Unreachable

(** All value operands of an instruction, in syntactic order. *)
let operands (i : t) : Value.t list =
  match i.kind with
  | Ibin (_, a, b) | Fbin (_, a, b) | Icmp (_, a, b) | Fcmp (_, a, b) -> [ a; b ]
  | Fneg a | Load a | Cast (_, a) | Freeze a -> [ a ]
  | Alloca _ -> []
  | Store (v, p) -> [ v; p ]
  | Gep (base, idxs) -> base :: idxs
  | Phi incoming -> List.map fst incoming
  | Select (c, a, b) -> [ c; a; b ]
  | Call (_, args) -> args

(** Rewrite every operand with [f]. *)
let map_operands (f : Value.t -> Value.t) (i : t) : t =
  let kind =
    match i.kind with
    | Ibin (op, a, b) -> Ibin (op, f a, f b)
    | Fbin (op, a, b) -> Fbin (op, f a, f b)
    | Fneg a -> Fneg (f a)
    | Icmp (p, a, b) -> Icmp (p, f a, f b)
    | Fcmp (p, a, b) -> Fcmp (p, f a, f b)
    | Alloca t -> Alloca t
    | Load p -> Load (f p)
    | Store (v, p) -> Store (f v, f p)
    | Gep (base, idxs) -> Gep (f base, List.map f idxs)
    | Phi incoming -> Phi (List.map (fun (v, l) -> (f v, l)) incoming)
    | Select (c, a, b) -> Select (f c, f a, f b)
    | Call (callee, args) -> Call (callee, List.map f args)
    | Cast (c, a) -> Cast (c, f a)
    | Freeze a -> Freeze (f a)
  in
  { i with kind }

let terminator_operands : terminator -> Value.t list = function
  | Ret (Some v) -> [ v ]
  | Ret None | Br _ | Unreachable -> []
  | CondBr (c, _, _) -> [ c ]
  | Switch (v, _, _) -> [ v ]

let map_terminator_operands (f : Value.t -> Value.t) :
    terminator -> terminator = function
  | Ret (Some v) -> Ret (Some (f v))
  | Ret None -> Ret None
  | Br l -> Br l
  | CondBr (c, t, e) -> CondBr (f c, t, e)
  | Switch (v, d, cases) -> Switch (f v, d, cases)
  | Unreachable -> Unreachable

(** Successor labels of a terminator, in order. *)
let successors : terminator -> string list = function
  | Ret _ | Unreachable -> []
  | Br l -> [ l ]
  | CondBr (_, t, e) -> [ t; e ]
  | Switch (_, d, cases) -> d :: List.map snd cases

(** Rewrite successor labels of a terminator. *)
let map_successors (f : string -> string) : terminator -> terminator = function
  | Ret v -> Ret v
  | Br l -> Br (f l)
  | CondBr (c, t, e) -> CondBr (c, f t, f e)
  | Switch (v, d, cases) ->
      Switch (v, f d, List.map (fun (k, l) -> (k, f l)) cases)
  | Unreachable -> Unreachable

(** [true] when the instruction has no side effects and may be removed if its
    result is unused. *)
let is_pure (i : t) =
  match i.kind with
  | Store _ | Call _ -> false
  | Alloca _ ->
      (* allocas are kept alive by their uses only *)
      true
  | Ibin _ | Fbin _ | Fneg _ | Icmp _ | Fcmp _ | Load _ | Gep _ | Phi _
  | Select _ | Cast _ | Freeze _ ->
      true

let ibin_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | SDiv -> "sdiv"
  | UDiv -> "udiv" | SRem -> "srem" | URem -> "urem" | Shl -> "shl"
  | LShr -> "lshr" | AShr -> "ashr" | And -> "and" | Or -> "or" | Xor -> "xor"

let fbin_to_string = function
  | FAdd -> "fadd" | FSub -> "fsub" | FMul -> "fmul" | FDiv -> "fdiv"
  | FRem -> "frem"

let icmp_to_string = function
  | Eq -> "eq" | Ne -> "ne" | Slt -> "slt" | Sle -> "sle" | Sgt -> "sgt"
  | Sge -> "sge" | Ult -> "ult" | Ule -> "ule" | Ugt -> "ugt" | Uge -> "uge"

let fcmp_to_string = function
  | Oeq -> "oeq" | One -> "one" | Olt -> "olt" | Ole -> "ole" | Ogt -> "ogt"
  | Oge -> "oge"

let cast_to_string = function
  | Trunc -> "trunc" | ZExt -> "zext" | SExt -> "sext" | FPTrunc -> "fptrunc"
  | FPExt -> "fpext" | FPToUI -> "fptoui" | FPToSI -> "fptosi"
  | UIToFP -> "uitofp" | SIToFP -> "sitofp" | PtrToInt -> "ptrtoint"
  | IntToPtr -> "inttoptr" | Bitcast -> "bitcast"

(** Swap the two sides of an integer comparison predicate, e.g.
    [a < b  ==  b > a]. *)
let icmp_swap = function
  | Eq -> Eq | Ne -> Ne
  | Slt -> Sgt | Sle -> Sge | Sgt -> Slt | Sge -> Sle
  | Ult -> Ugt | Ule -> Uge | Ugt -> Ult | Uge -> Ule

(** Negate an integer comparison predicate. *)
let icmp_negate = function
  | Eq -> Ne | Ne -> Eq
  | Slt -> Sge | Sle -> Sgt | Sgt -> Sle | Sge -> Slt
  | Ult -> Uge | Ule -> Ugt | Ugt -> Ule | Uge -> Ult

let is_commutative_ibin = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | SDiv | UDiv | SRem | URem | Shl | LShr | AShr -> false
