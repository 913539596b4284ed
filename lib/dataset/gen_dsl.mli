(** The DSL the stochastic program generators are written in: expression
    operators, randomised loop shapes, salted naming and junk insertion.

    Generator contract: every produced program lowers to verified IR and
    terminates quickly and safely in the interpreter on any input stream
    (inputs clamped on read, divisions guarded) — the property the test
    suite relies on to fuzz the transformation passes. *)

open Yali_minic.Ast

(* expressions *)

val i : int -> expr
val v : string -> expr
val ( +@ ) : expr -> expr -> expr
val ( -@ ) : expr -> expr -> expr
val ( *@ ) : expr -> expr -> expr
val ( /@ ) : expr -> expr -> expr
val ( %@ ) : expr -> expr -> expr
val ( <@ ) : expr -> expr -> expr
val ( <=@ ) : expr -> expr -> expr
val ( >@ ) : expr -> expr -> expr
val ( >=@ ) : expr -> expr -> expr
val ( ==@ ) : expr -> expr -> expr
val ( <>@ ) : expr -> expr -> expr
val ( &&@ ) : expr -> expr -> expr
val ( ||@ ) : expr -> expr -> expr
val idx : string -> expr -> expr
val call : string -> expr list -> expr

(* statements *)

val decl : string -> expr -> stmt
val set : string -> expr -> stmt
val seti : string -> expr -> expr -> stmt
val ret : expr -> stmt
val print : expr -> stmt

(** Read an input and clamp it into [lo, hi] — the standard way generators
    accept workload sizes safely. *)
val read_clamped : int -> int -> expr

(* safety combinators, shared with the program generator of lib/check:
   expressions that can never trap regardless of operand values *)

(** A strictly positive value derived from [e] ([abs e % 97 + 1]). *)
val nonzero : expr -> expr

(** Division with the denominator forced nonzero. *)
val safe_div : expr -> expr -> expr

(** Modulo with the denominator forced nonzero. *)
val safe_mod : expr -> expr -> expr

(** [safe_index n e] — [abs e % n], a valid index into an array of size
    [n]. *)
val safe_index : int -> expr -> expr

(* naming and randomised shapes *)

type ctx = { rng : Yali_util.Rng.t; salt : int }

val ctx : Yali_util.Rng.t -> ctx

(** A salted variable name: samples of one class draw from different
    identifier pools, like different human authors. *)
val name : ctx -> string -> string

(** A counting loop from [lo] while [< hi], rendered as [for] or [while] at
    random. *)
val count_loop :
  ctx -> var:string -> lo:expr -> hi:expr -> stmt list -> stmt list

(** A loop running down from [hi - 1] to [lo]. *)
val count_down_loop :
  ctx -> var:string -> lo:expr -> hi:expr -> stmt list -> stmt list

(** [acc = acc + e] or [acc = e + acc], at random. *)
val accum : ctx -> string -> expr -> stmt

(** One block of observably-inert scaffolding. *)
val junk_block : ctx -> stmt list

(** Zero to four junk blocks (the main source of intra-class histogram
    variance). *)
val junk : ctx -> stmt list

(** Shuffle independent statements. *)
val reorder : ctx -> stmt list -> stmt list

val program : func list -> program

(** The common generator shape: [prologue @ junk @ body @ epilogue @ return]. *)
val simple_main :
  ?prologue:stmt list -> ?epilogue:stmt list -> ctx -> stmt list -> program
