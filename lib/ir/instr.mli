(** Instructions and terminators of the miniature IR.  Instructions are
    immutable; passes construct new ones.  Every instruction carries the SSA
    identifier it defines ([id]; {!no_result} for value-less instructions
    like [store]) and its result type. *)

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
  | Alloca of Types.t  (** allocated type; result is a pointer to it *)
  | Load of Value.t  (** pointer *)
  | Store of Value.t * Value.t  (** stored value, pointer *)
  | Gep of Value.t * Value.t list  (** base pointer, element indices *)
  | Phi of (Value.t * string) list  (** (incoming value, predecessor) *)
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
      (** scrutinee, default, cases *)
  | Unreachable

(** The [id] of instructions that define nothing. *)
val no_result : int

val mk : id:int -> ty:Types.t -> kind -> t

(** An instruction with no result ([store], void [call]). *)
val mk_void : kind -> t

val defines : t -> bool
val is_phi : t -> bool

(** The opcode an instruction contributes to histograms. *)
val opcode : t -> Opcode.t

val opcode_of_terminator : terminator -> Opcode.t

(** Value operands, in syntactic order. *)
val operands : t -> Value.t list

val map_operands : (Value.t -> Value.t) -> t -> t
val terminator_operands : terminator -> Value.t list
val map_terminator_operands : (Value.t -> Value.t) -> terminator -> terminator

(** Successor labels, in order (duplicates possible for switches). *)
val successors : terminator -> string list

val map_successors : (string -> string) -> terminator -> terminator

(** No side effects: removable when the result is unused. *)
val is_pure : t -> bool

val ibin_to_string : ibin -> string
val fbin_to_string : fbin -> string
val icmp_to_string : icmp -> string
val fcmp_to_string : fcmp -> string
val cast_to_string : cast -> string

(** [a < b  ==  b > a], etc. *)
val icmp_swap : icmp -> icmp

(** Logical negation of a predicate. *)
val icmp_negate : icmp -> icmp

val is_commutative_ibin : ibin -> bool
