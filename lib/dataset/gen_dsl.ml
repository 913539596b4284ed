(** A small DSL for writing stochastic program generators: expression
    operators, randomised loop shapes, name salting and junk insertion.  The
    per-class generators in [Genprog_*] are written against this module.

    Generators must produce programs that (a) always lower, and (b) always
    terminate quickly and safely in the interpreter for *any* input stream —
    inputs are clamped on read, divisions guarded.  The test suite exploits
    this: every generated program is a fuzz target for the transformation
    passes. *)

open Yali_minic.Ast
module Rng = Yali_util.Rng

(* -- expressions ---------------------------------------------------------- *)

let i n = IntLit n
let v name = Var name
let ( +@ ) a b = Bin (Add, a, b)
let ( -@ ) a b = Bin (Sub, a, b)
let ( *@ ) a b = Bin (Mul, a, b)
let ( /@ ) a b = Bin (Div, a, b)
let ( %@ ) a b = Bin (Mod, a, b)
let ( <@ ) a b = Bin (Lt, a, b)
let ( <=@ ) a b = Bin (Le, a, b)
let ( >@ ) a b = Bin (Gt, a, b)
let ( >=@ ) a b = Bin (Ge, a, b)
let ( ==@ ) a b = Bin (Eq, a, b)
let ( <>@ ) a b = Bin (Ne, a, b)
let ( &&@ ) a b = Bin (LAnd, a, b)
let ( ||@ ) a b = Bin (LOr, a, b)
let idx a e = Index (a, e)
let call f args = Call (f, args)

(* -- statements ----------------------------------------------------------- *)

let decl n e = Decl (TInt, n, Some e)
let set n e = Assign (n, e)
let seti a ie e = AssignIdx (a, ie, e)
let ret e = Return (Some e)
let print e = Expr (Call ("print_int", [ e ]))

(** [read_clamped lo hi] — read an input and clamp it into [lo, hi]; the
    standard way generators accept workload sizes safely. *)
let read_clamped lo hi =
  (* abs(read_int()) % (hi - lo + 1) + lo *)
  Bin (Add, Bin (Mod, Call ("abs", [ Call ("read_int", []) ]), i (hi - lo + 1)), i lo)

(* -- safety combinators (shared with Check.Gen) --------------------------- *)

(** [nonzero e] — a strictly positive value derived from [e]
    ([abs e % 97 + 1]); the standard safe denominator. *)
let nonzero e = Bin (Add, Bin (Mod, Call ("abs", [ e ]), i 97), i 1)

(** [e1 / e2] with the denominator forced nonzero — never traps. *)
let safe_div a b = Bin (Div, a, nonzero b)

(** [e1 % e2] with the denominator forced nonzero — never traps. *)
let safe_mod a b = Bin (Mod, a, nonzero b)

(** [safe_index n e] — [abs e % n], always a valid index into an array of
    size [n]. *)
let safe_index n e = Bin (Mod, Call ("abs", [ e ]), i n)

(* -- naming --------------------------------------------------------------- *)

type ctx = { rng : Rng.t; salt : int }

let ctx (rng : Rng.t) : ctx = { rng; salt = Rng.int rng 1000 }

(** A salted variable name: samples of the same class use different
    identifier pools, like different human authors would. *)
let name (c : ctx) (base : string) : string =
  match Rng.int c.rng 4 with
  | 0 -> base
  | 1 -> Printf.sprintf "%s%d" base (c.salt mod 10)
  | 2 -> Printf.sprintf "my_%s" base
  | _ -> Printf.sprintf "%s_%d" base (c.salt mod 100)

(* -- randomised control shapes ------------------------------------------- *)

(** A counting loop from [lo] while [< hi], step +1, rendered as [for] or
    [while] at random (both lower to near-identical IR, as real programmers'
    choices do). *)
let count_loop (c : ctx) ~(var : string) ~(lo : expr) ~(hi : expr)
    (body : stmt list) : stmt list =
  match Rng.int c.rng 3 with
  | 0 ->
      [
        For
          ( Some (Decl (TInt, var, Some lo)),
            Some (v var <@ hi),
            Some (set var (v var +@ i 1)),
            body );
      ]
  | 1 ->
      [
        Decl (TInt, var, Some lo);
        While (v var <@ hi, body @ [ set var (v var +@ i 1) ]);
      ]
  | _ ->
      [
        Decl (TInt, var, Some lo);
        For (None, Some (v var <@ hi), Some (set var (v var +@ i 1)), body);
      ]

(** A loop running down from [hi-1] to [lo]. *)
let count_down_loop (c : ctx) ~(var : string) ~(lo : expr) ~(hi : expr)
    (body : stmt list) : stmt list =
  if Rng.bool c.rng then
    [
      For
        ( Some (Decl (TInt, var, Some (hi -@ i 1))),
          Some (v var >=@ lo),
          Some (set var (v var -@ i 1)),
          body );
    ]
  else
    [
      Decl (TInt, var, Some (hi -@ i 1));
      While (v var >=@ lo, body @ [ set var (v var -@ i 1) ]);
    ]

(** Occasionally wrap an accumulation differently: [acc = acc + e] vs
    [acc = e + acc]. *)
let accum (c : ctx) (acc : string) (e : expr) : stmt =
  if Rng.bool c.rng then set acc (v acc +@ e) else set acc (e +@ v acc)

(** Junk statements that survive [-O0] but have no observable effect,
    mimicking the dead scaffolding, debugging leftovers and boilerplate that
    real judge submissions carry.  Junk is the main source of intra-class
    histogram variance: most samples receive some, and a sample can receive
    several blocks including loops and conditional chains. *)
let junk_block (c : ctx) : stmt list =
  let jn = Printf.sprintf "tmp_%d" (Rng.int c.rng 10000) in
  let jm = Printf.sprintf "aux_%d" (Rng.int c.rng 10000) in
  match Rng.int c.rng 6 with
  | 0 -> [ decl jn (i (Rng.int c.rng 100)) ]
  | 1 -> [ decl jn (i (Rng.int c.rng 50)); set jn (v jn *@ i 2) ]
  | 2 ->
      [
        decl jn (i 0);
        If (v jn >@ i (Rng.int c.rng 100 + 100), [ set jn (i 0) ], []);
      ]
  | 3 ->
      (* a dead counting loop *)
      let bound = Rng.int_range c.rng 2 6 in
      [
        decl jn (i 0);
        decl jm (i 0);
        While
          ( v jn <@ i bound,
            [ set jm (v jm +@ (v jn *@ i (Rng.int_range c.rng 2 9)));
              set jn (v jn +@ i 1) ] );
      ]
  | 4 ->
      (* a dead conditional chain *)
      let x = Rng.int c.rng 10 in
      [
        decl jn (i x);
        If
          ( v jn %@ i 3 ==@ i 0,
            [ set jn (v jn +@ i 1) ],
            [ If (v jn %@ i 3 ==@ i 1, [ set jn (v jn -@ i 1) ], []) ] );
      ]
  | _ ->
      (* a dead arithmetic chain *)
      [
        decl jn (i (Rng.int_range c.rng 1 50));
        decl jm ((v jn *@ i 17) %@ i 13);
        set jm (v jm +@ (v jn /@ i 3));
        set jn (Bin (BXor, v jn, v jm));
      ]

let junk (c : ctx) : stmt list =
  let n_blocks =
    match Rng.int c.rng 10 with
    | 0 | 1 | 2 -> 0
    | 3 | 4 | 5 -> 1
    | 6 | 7 -> 2
    | 8 -> 3
    | _ -> 4
  in
  List.concat (List.init n_blocks (fun _ -> junk_block c))

(** Shuffle a list of independent statements (samples order declarations
    differently). *)
let reorder (c : ctx) (ss : stmt list) : stmt list = Rng.shuffle c.rng ss

(** Assemble a program from functions (main must be present). *)
let program (funcs : func list) : program = { pfuncs = funcs }

(** The most common generator shape: main reads sizes, computes, prints.
    [body] is spliced between prologue and epilogue. *)
let simple_main ?(prologue = []) ?(epilogue = []) (c : ctx) (body : stmt list)
    : Yali_minic.Ast.program =
  let body = prologue @ junk c @ body @ epilogue @ [ ret (i 0) ] in
  program [ { fname = "main"; fparams = []; fret = TInt; fbody = body } ]
