(** The instruction set of the miniature IR.

    Exactly 63 opcodes, mirroring the 63-dimensional opcode histogram used by
    Damásio et al. (CGO'23) as the [histogram] embedding.  A number of the
    exotic opcodes (vector, atomic, exception handling) are never produced by
    the mini-C frontend — just as a C frontend for LLVM exercises only part of
    the LLVM instruction set — but they are part of the opcode universe and
    hence of the histogram's dimensionality. *)

type t =
  (* Terminators *)
  | Ret
  | Br
  | CondBr
  | Switch
  | Unreachable
  (* Integer binary operations *)
  | Add
  | Sub
  | Mul
  | SDiv
  | UDiv
  | SRem
  | URem
  | Shl
  | LShr
  | AShr
  | And
  | Or
  | Xor
  (* Floating-point operations *)
  | FAdd
  | FSub
  | FMul
  | FDiv
  | FRem
  | FNeg
  (* Memory *)
  | Alloca
  | Load
  | Store
  | Gep
  (* Casts *)
  | Trunc
  | ZExt
  | SExt
  | FPTrunc
  | FPExt
  | FPToUI
  | FPToSI
  | UIToFP
  | SIToFP
  | PtrToInt
  | IntToPtr
  | Bitcast
  | AddrSpaceCast
  (* Comparisons, data flow, calls *)
  | ICmp
  | FCmp
  | Phi
  | Select
  | Call
  | Freeze
  | ExtractValue
  | InsertValue
  (* Vectors *)
  | ExtractElement
  | InsertElement
  | ShuffleVector
  (* Atomics and exotica *)
  | AtomicRMW
  | CmpXchg
  | Fence
  | VAArg
  | LandingPad
  | Resume
  | Invoke
  | CallBr
  | CatchSwitch
  | CatchRet
  | CleanupRet

let all : t list =
  [ Ret; Br; CondBr; Switch; Unreachable;
    Add; Sub; Mul; SDiv; UDiv; SRem; URem; Shl; LShr; AShr; And; Or; Xor;
    FAdd; FSub; FMul; FDiv; FRem; FNeg;
    Alloca; Load; Store; Gep;
    Trunc; ZExt; SExt; FPTrunc; FPExt; FPToUI; FPToSI; UIToFP; SIToFP;
    PtrToInt; IntToPtr; Bitcast; AddrSpaceCast;
    ICmp; FCmp; Phi; Select; Call; Freeze; ExtractValue; InsertValue;
    ExtractElement; InsertElement; ShuffleVector;
    AtomicRMW; CmpXchg; Fence; VAArg; LandingPad; Resume; Invoke; CallBr;
    CatchSwitch; CatchRet; CleanupRet ]

(** Number of opcodes; the dimensionality of the histogram embedding. *)
let count = List.length all

let to_string = function
  | Ret -> "ret"
  | Br -> "br"
  | CondBr -> "condbr"
  | Switch -> "switch"
  | Unreachable -> "unreachable"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | SDiv -> "sdiv"
  | UDiv -> "udiv"
  | SRem -> "srem"
  | URem -> "urem"
  | Shl -> "shl"
  | LShr -> "lshr"
  | AShr -> "ashr"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"
  | FRem -> "frem"
  | FNeg -> "fneg"
  | Alloca -> "alloca"
  | Load -> "load"
  | Store -> "store"
  | Gep -> "getelementptr"
  | Trunc -> "trunc"
  | ZExt -> "zext"
  | SExt -> "sext"
  | FPTrunc -> "fptrunc"
  | FPExt -> "fpext"
  | FPToUI -> "fptoui"
  | FPToSI -> "fptosi"
  | UIToFP -> "uitofp"
  | SIToFP -> "sitofp"
  | PtrToInt -> "ptrtoint"
  | IntToPtr -> "inttoptr"
  | Bitcast -> "bitcast"
  | AddrSpaceCast -> "addrspacecast"
  | ICmp -> "icmp"
  | FCmp -> "fcmp"
  | Phi -> "phi"
  | Select -> "select"
  | Call -> "call"
  | Freeze -> "freeze"
  | ExtractValue -> "extractvalue"
  | InsertValue -> "insertvalue"
  | ExtractElement -> "extractelement"
  | InsertElement -> "insertelement"
  | ShuffleVector -> "shufflevector"
  | AtomicRMW -> "atomicrmw"
  | CmpXchg -> "cmpxchg"
  | Fence -> "fence"
  | VAArg -> "va_arg"
  | LandingPad -> "landingpad"
  | Resume -> "resume"
  | Invoke -> "invoke"
  | CallBr -> "callbr"
  | CatchSwitch -> "catchswitch"
  | CatchRet -> "catchret"
  | CleanupRet -> "cleanupret"

(** Dense index of an opcode in [all]; used to address histogram buckets.
    The ir test [opcode index bijection] holds it to [all]. *)
let index : t -> int = function
  | Ret -> 0
  | Br -> 1
  | CondBr -> 2
  | Switch -> 3
  | Unreachable -> 4
  | Add -> 5
  | Sub -> 6
  | Mul -> 7
  | SDiv -> 8
  | UDiv -> 9
  | SRem -> 10
  | URem -> 11
  | Shl -> 12
  | LShr -> 13
  | AShr -> 14
  | And -> 15
  | Or -> 16
  | Xor -> 17
  | FAdd -> 18
  | FSub -> 19
  | FMul -> 20
  | FDiv -> 21
  | FRem -> 22
  | FNeg -> 23
  | Alloca -> 24
  | Load -> 25
  | Store -> 26
  | Gep -> 27
  | Trunc -> 28
  | ZExt -> 29
  | SExt -> 30
  | FPTrunc -> 31
  | FPExt -> 32
  | FPToUI -> 33
  | FPToSI -> 34
  | UIToFP -> 35
  | SIToFP -> 36
  | PtrToInt -> 37
  | IntToPtr -> 38
  | Bitcast -> 39
  | AddrSpaceCast -> 40
  | ICmp -> 41
  | FCmp -> 42
  | Phi -> 43
  | Select -> 44
  | Call -> 45
  | Freeze -> 46
  | ExtractValue -> 47
  | InsertValue -> 48
  | ExtractElement -> 49
  | InsertElement -> 50
  | ShuffleVector -> 51
  | AtomicRMW -> 52
  | CmpXchg -> 53
  | Fence -> 54
  | VAArg -> 55
  | LandingPad -> 56
  | Resume -> 57
  | Invoke -> 58
  | CallBr -> 59
  | CatchSwitch -> 60
  | CatchRet -> 61
  | CleanupRet -> 62

let of_string_tbl : (string, t) Hashtbl.t =
  let tbl = Hashtbl.create 97 in
  List.iter (fun op -> Hashtbl.add tbl (to_string op) op) all;
  tbl

let of_string s = Hashtbl.find_opt of_string_tbl s

let pp fmt op = Fmt.string fmt (to_string op)

(** Abstract cost of executing one instance of an opcode, in cycles.  Used by
    the reference interpreter to reproduce the paper's Figure 13 performance
    comparison without real hardware: what matters there is the *relative*
    cost of optimized vs. obfuscated instruction streams. *)
let cost = function
  | Ret | Br -> 1
  | CondBr -> 2
  | Switch -> 3
  | Unreachable -> 0
  | Add | Sub | And | Or | Xor | Shl | LShr | AShr -> 1
  | Mul -> 3
  | SDiv | UDiv | SRem | URem -> 20
  | FAdd | FSub | FNeg -> 3
  | FMul -> 5
  | FDiv | FRem -> 20
  | Alloca -> 2
  | Load | Store -> 4
  | Gep -> 1
  | Trunc | ZExt | SExt | Bitcast | AddrSpaceCast | PtrToInt | IntToPtr
  | Freeze -> 1
  | FPTrunc | FPExt | FPToUI | FPToSI | UIToFP | SIToFP -> 4
  | ICmp | FCmp | Select -> 1
  | Phi -> 0
  | Call -> 10
  | ExtractValue | InsertValue | ExtractElement | InsertElement -> 1
  | ShuffleVector -> 2
  | AtomicRMW | CmpXchg -> 30
  | Fence -> 15
  | VAArg -> 4
  | LandingPad | Resume | Invoke | CallBr | CatchSwitch | CatchRet
  | CleanupRet -> 10
