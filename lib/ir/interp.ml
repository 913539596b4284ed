(** Reference interpreter for the miniature IR.

    Programs interact with the world through the intrinsics [read_int],
    [print_int], [read_float] and [print_float]; a run maps a list of input
    integers to a list of outputs plus an exit value.  This gives the test
    suite an executable notion of semantics: a transformation [T] preserves
    semantics iff [run p inp = run (T p) inp] for all inputs.

    The interpreter also charges an abstract per-opcode cost ({!Opcode.cost}),
    which stands in for wall-clock time in the reproduction of the paper's
    Figure 13 (performance of obfuscated vs. optimized code). *)

type rvalue = RInt of int64 | RFloat of float | RPtr of int | RUnit

exception Trap of string
exception Out_of_fuel

type outcome = {
  output : int64 list;
  foutput : float list;
  exit_value : rvalue;
  steps : int;  (** dynamic instruction count *)
  cost : int;  (** abstract cycles, per {!Opcode.cost} *)
}

type state = {
  m : Irmod.t;
  mem : rvalue array;
  mutable brk : int;  (** bump allocator frontier *)
  mutable input : int64 list;
  mutable out_rev : int64 list;
  mutable fout_rev : float list;
  mutable steps : int;
  mutable cost : int;
  fuel : int;
  globals : (string, int) Hashtbl.t;
}

let mem_size = 1 lsl 20

(* The memory image is pooled and reused between runs (one array per domain
   at steady state): [alloc] zeroes every allocation and loads are
   bounds-checked against [brk], so a recycled array is indistinguishable
   from a fresh one. *)
let arena : rvalue array Arena.t =
  Arena.create ~make:(fun () -> Array.make mem_size (RInt 0L))

let normalize (ty : Types.t) (n : int64) : int64 =
  match ty with
  | Types.I1 -> Int64.logand n 1L
  | Types.I8 ->
      let v = Int64.logand n 0xFFL in
      if Int64.compare v 0x7FL > 0 then Int64.sub v 0x100L else v
  | Types.I32 ->
      let v = Int64.logand n 0xFFFFFFFFL in
      if Int64.compare v 0x7FFFFFFFL > 0 then Int64.sub v 0x1_0000_0000L else v
  | _ -> n

let as_int = function
  | RInt n -> n
  | RPtr _ -> raise (Trap "expected integer, got pointer")
  | RFloat _ -> raise (Trap "expected integer, got float")
  | RUnit -> raise (Trap "expected integer, got unit")

let as_float = function
  | RFloat f -> f
  | RInt n -> Int64.to_float n
  | _ -> raise (Trap "expected float")

let as_ptr = function
  | RPtr p -> p
  | RInt n -> Int64.to_int n
  | _ -> raise (Trap "expected pointer")

let as_bool v = not (Int64.equal (as_int v) 0L)

let charge (st : state) (op : Opcode.t) =
  st.steps <- st.steps + 1;
  st.cost <- st.cost + Opcode.cost op;
  if st.steps > st.fuel then raise Out_of_fuel

let alloc (st : state) (cells : int) : int =
  let base = st.brk in
  if base + cells >= Array.length st.mem then raise (Trap "out of memory");
  st.brk <- base + cells;
  (* zero-initialise *)
  for i = base to base + cells - 1 do
    st.mem.(i) <- RInt 0L
  done;
  base

let mem_load (st : state) (addr : int) : rvalue =
  if addr < 0 || addr >= st.brk then
    raise (Trap (Printf.sprintf "load out of bounds: %d" addr));
  st.mem.(addr)

let mem_store (st : state) (addr : int) (v : rvalue) : unit =
  if addr < 0 || addr >= st.brk then
    raise (Trap (Printf.sprintf "store out of bounds: %d" addr));
  st.mem.(addr) <- v

let eval_ibin (ty : Types.t) (op : Instr.ibin) (a : int64) (b : int64) : int64
    =
  let ( %! ) x y = if Int64.equal y 0L then raise (Trap "division by zero") else Int64.rem x y in
  let ( /! ) x y = if Int64.equal y 0L then raise (Trap "division by zero") else Int64.div x y in
  let shamt = Int64.to_int (Int64.logand b 63L) in
  let w = try Types.width ty with _ -> 64 in
  let mask_to_width n =
    if w = 64 then n
    else Int64.logand n (Int64.sub (Int64.shift_left 1L w) 1L)
  in
  let r =
    match op with
    | Instr.Add -> Int64.add a b
    | Instr.Sub -> Int64.sub a b
    | Instr.Mul -> Int64.mul a b
    | Instr.SDiv -> a /! b
    | Instr.SRem -> a %! b
    | Instr.UDiv ->
        if Int64.equal b 0L then raise (Trap "division by zero")
        else Int64.unsigned_div (mask_to_width a) (mask_to_width b)
    | Instr.URem ->
        if Int64.equal b 0L then raise (Trap "division by zero")
        else Int64.unsigned_rem (mask_to_width a) (mask_to_width b)
    | Instr.Shl -> Int64.shift_left a shamt
    | Instr.LShr -> Int64.shift_right_logical (mask_to_width a) shamt
    | Instr.AShr -> Int64.shift_right a shamt
    | Instr.And -> Int64.logand a b
    | Instr.Or -> Int64.logor a b
    | Instr.Xor -> Int64.logxor a b
  in
  normalize ty r

let eval_fbin (op : Instr.fbin) (a : float) (b : float) : float =
  match op with
  | Instr.FAdd -> a +. b
  | Instr.FSub -> a -. b
  | Instr.FMul -> a *. b
  | Instr.FDiv -> a /. b
  | Instr.FRem -> Float.rem a b

let eval_icmp (p : Instr.icmp) (a : int64) (b : int64) : bool =
  let ucmp x y = Int64.unsigned_compare x y in
  match p with
  | Instr.Eq -> Int64.equal a b
  | Instr.Ne -> not (Int64.equal a b)
  | Instr.Slt -> Int64.compare a b < 0
  | Instr.Sle -> Int64.compare a b <= 0
  | Instr.Sgt -> Int64.compare a b > 0
  | Instr.Sge -> Int64.compare a b >= 0
  | Instr.Ult -> ucmp a b < 0
  | Instr.Ule -> ucmp a b <= 0
  | Instr.Ugt -> ucmp a b > 0
  | Instr.Uge -> ucmp a b >= 0

let eval_fcmp (p : Instr.fcmp) (a : float) (b : float) : bool =
  match p with
  | Instr.Oeq -> a = b
  | Instr.One -> a <> b
  | Instr.Olt -> a < b
  | Instr.Ole -> a <= b
  | Instr.Ogt -> a > b
  | Instr.Oge -> a >= b

let eval_cast (c : Instr.cast) (ty : Types.t) (v : rvalue) : rvalue =
  match c with
  | Instr.Trunc | Instr.ZExt | Instr.SExt -> RInt (normalize ty (as_int v))
  | Instr.FPTrunc | Instr.FPExt -> RFloat (as_float v)
  | Instr.FPToUI | Instr.FPToSI ->
      let f = as_float v in
      if Float.is_nan f then RInt 0L else RInt (normalize ty (Int64.of_float f))
  | Instr.UIToFP | Instr.SIToFP -> RFloat (Int64.to_float (as_int v))
  | Instr.PtrToInt -> RInt (Int64.of_int (as_ptr v))
  | Instr.IntToPtr -> RPtr (Int64.to_int (as_int v))
  | Instr.Bitcast -> v

(* Element stride of a gep through a pointer type: pointers to arrays step by
   the array element size when indexed past the first index. *)
let gep_addr (base_ty : Types.t) (base : int) (idxs : int64 list) : int =
  (* Our gep semantics: first index scales by pointee size; subsequent
     indices descend into array elements. *)
  let rec go ty addr = function
    | [] -> addr
    | i :: rest ->
        let i = Int64.to_int i in
        let elem =
          match ty with
          | Types.Ptr t | Types.Arr (t, _) -> t
          | t -> t
        in
        let stride =
          match ty with
          | Types.Ptr t -> Types.size_in_cells t
          | Types.Arr (t, _) -> Types.size_in_cells t
          | _ -> 1
        in
        go elem (addr + (i * stride)) rest
  in
  go base_ty base idxs

let rec eval_call (st : state) (callee : string) (args : rvalue list) : rvalue
    =
  match callee with
  | "read_int" -> (
      match st.input with
      | [] -> RInt 0L
      | x :: rest ->
          st.input <- rest;
          RInt x)
  | "read_float" -> (
      match st.input with
      | [] -> RFloat 0.
      | x :: rest ->
          st.input <- rest;
          RFloat (Int64.to_float x))
  | "print_int" ->
      (match args with
      | [ v ] -> st.out_rev <- as_int v :: st.out_rev
      | _ -> raise (Trap "print_int arity"));
      RUnit
  | "print_float" ->
      (match args with
      | [ v ] -> st.fout_rev <- as_float v :: st.fout_rev
      | _ -> raise (Trap "print_float arity"));
      RUnit
  | "abs" -> (
      match args with
      | [ v ] -> RInt (Int64.abs (as_int v))
      | _ -> raise (Trap "abs arity"))
  | "min" -> (
      match args with
      | [ a; b ] -> RInt (min (as_int a) (as_int b))
      | _ -> raise (Trap "min arity"))
  | "max" -> (
      match args with
      | [ a; b ] -> RInt (max (as_int a) (as_int b))
      | _ -> raise (Trap "max arity"))
  | _ -> (
      match Irmod.find_func st.m callee with
      | Some f -> eval_func st f args
      | None -> raise (Trap ("call to unknown function " ^ callee)))

and eval_func (st : state) (f : Func.t) (args : rvalue list) : rvalue =
  let env : (int, rvalue) Hashtbl.t = Hashtbl.create 64 in
  (if List.length args <> List.length f.params then
     raise
       (Trap
          (Printf.sprintf "arity mismatch calling %s: %d args for %d params"
             f.name (List.length args) (List.length f.params))));
  List.iter2 (fun (id, _) v -> Hashtbl.replace env id v) f.params args;
  let lookup (v : Value.t) : rvalue =
    match v with
    | Value.Var id -> (
        match Hashtbl.find_opt env id with
        | Some r -> r
        | None -> raise (Trap (Printf.sprintf "read of unset %%%d in %s" id f.name)))
    | Value.IConst (ty, n) -> RInt (normalize ty n)
    | Value.FConst x -> RFloat x
    | Value.Global g -> (
        match Hashtbl.find_opt st.globals g with
        | Some addr -> RPtr addr
        | None -> raise (Trap ("unknown global " ^ g)))
    | Value.Undef _ -> RInt 0L
  in
  let blocks = Hashtbl.create 16 in
  List.iter (fun (b : Block.t) -> Hashtbl.replace blocks b.label b) f.blocks;
  let def_types : (int, Types.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (id, t) -> Hashtbl.replace def_types id t) f.params;
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          if Instr.defines i then Hashtbl.replace def_types i.id i.ty)
        b.instrs)
    f.blocks;
  let rec exec_block (prev : string option) (b : Block.t) : rvalue =
    (* phis are evaluated simultaneously against the incoming edge *)
    let phi_updates =
      List.filter_map
        (fun (i : Instr.t) ->
          match i.kind with
          | Instr.Phi incoming -> (
              charge st Opcode.Phi;
              match prev with
              | None -> raise (Trap "phi in entry block")
              | Some p -> (
                  match List.assoc_opt p (List.map (fun (v, l) -> (l, v)) incoming) with
                  | Some v -> Some (i.id, lookup v)
                  | None -> raise (Trap (Printf.sprintf "phi %%%d misses edge from %s" i.id p))))
          | _ -> None)
        b.instrs
    in
    List.iter (fun (id, v) -> Hashtbl.replace env id v) phi_updates;
    List.iter
      (fun (i : Instr.t) ->
        match i.kind with
        | Instr.Phi _ -> ()
        | _ ->
            charge st (Instr.opcode i);
            let result =
              match i.kind with
              | Instr.Phi _ -> assert false
              | Instr.Ibin (op, a, b') ->
                  RInt (eval_ibin i.ty op (as_int (lookup a)) (as_int (lookup b')))
              | Instr.Fbin (op, a, b') ->
                  RFloat (eval_fbin op (as_float (lookup a)) (as_float (lookup b')))
              | Instr.Fneg a -> RFloat (-.as_float (lookup a))
              | Instr.Icmp (p, a, b') ->
                  RInt (if eval_icmp p (as_int (lookup a)) (as_int (lookup b')) then 1L else 0L)
              | Instr.Fcmp (p, a, b') ->
                  RInt (if eval_fcmp p (as_float (lookup a)) (as_float (lookup b')) then 1L else 0L)
              | Instr.Alloca ty -> RPtr (alloc st (Types.size_in_cells ty))
              | Instr.Load p -> mem_load st (as_ptr (lookup p))
              | Instr.Store (v, p) ->
                  mem_store st (as_ptr (lookup p)) (lookup v);
                  RUnit
              | Instr.Gep (base, idxs) ->
                  let base_ty =
                    match base with
                    | Value.Var id -> (
                        match Hashtbl.find_opt def_types id with
                        | Some t -> t
                        | None -> Types.Ptr Types.I64)
                    | Value.Global g -> (
                        match Irmod.find_global st.m g with
                        | Some gl -> Types.Ptr gl.gty
                        | None -> Types.Ptr Types.I64)
                    | _ -> Types.Ptr Types.I64
                  in
                  RPtr
                    (gep_addr base_ty
                       (as_ptr (lookup base))
                       (List.map (fun v -> as_int (lookup v)) idxs))
              | Instr.Select (c, a, b') ->
                  if as_bool (lookup c) then lookup a else lookup b'
              | Instr.Call (callee, args) ->
                  eval_call st callee (List.map lookup args)
              | Instr.Cast (c, a) -> eval_cast c i.ty (lookup a)
              | Instr.Freeze a -> lookup a
            in
            if Instr.defines i then Hashtbl.replace env i.id result)
      b.instrs;
    charge st (Instr.opcode_of_terminator b.term);
    match b.term with
    | Instr.Ret None -> RUnit
    | Instr.Ret (Some v) -> lookup v
    | Instr.Br l -> jump b.label l
    | Instr.CondBr (c, t, e) ->
        jump b.label (if as_bool (lookup c) then t else e)
    | Instr.Switch (v, d, cases) ->
        (* a switch lowers to a compare chain / sparse jump sequence: charge
           proportionally to the number of cases (flattened functions pay
           for their dispatcher on every iteration, as on real hardware) *)
        st.cost <- st.cost + (List.length cases / 2);
        let x = as_int (lookup v) in
        let target =
          match List.find_opt (fun (k, _) -> Int64.equal k x) cases with
          | Some (_, l) -> l
          | None -> d
        in
        jump b.label target
    | Instr.Unreachable -> raise (Trap "executed unreachable")
  and jump prev l =
    match Hashtbl.find_opt blocks l with
    | Some b -> exec_block (Some prev) b
    | None -> raise (Trap ("jump to unknown block " ^ l))
  in
  exec_block None (Func.entry f)

(** Run [main] of a module on a list of input integers. *)
let run ?(fuel = 10_000_000) (m : Irmod.t) (input : int64 list) : outcome =
  Arena.with_mem arena @@ fun mem ->
  let st =
    {
      m;
      mem;
      brk = 0;
      input;
      out_rev = [];
      fout_rev = [];
      steps = 0;
      cost = 0;
      fuel;
      globals = Hashtbl.create 8;
    }
  in
  (* allocate and initialise globals *)
  List.iter
    (fun (g : Irmod.global) ->
      let cells = max 1 (Types.size_in_cells g.gty) in
      let base = alloc st cells in
      Array.iteri
        (fun i v -> if i < cells then st.mem.(base + i) <- RInt v)
        g.ginit;
      Hashtbl.replace st.globals g.gname base)
    m.globals;
  let main = Irmod.find_func_exn m "main" in
  let args = List.map (fun (_, ty) -> match ty with
    | Types.F64 -> RFloat 0. | _ -> RInt 0L) main.params in
  let exit_value = eval_func st main args in
  {
    output = List.rev st.out_rev;
    foutput = List.rev st.fout_rev;
    exit_value;
    steps = st.steps;
    cost = st.cost;
  }

(** Observable behaviour of a run: printed output plus exit value.  Two
    modules are behaviourally equivalent on an input when their observations
    agree. *)
let observe (o : outcome) : int64 list * float list * string =
  let ev =
    match o.exit_value with
    | RInt n -> Printf.sprintf "i:%Ld" n
    | RFloat f -> Printf.sprintf "f:%.9g" f
    | RPtr _ -> "ptr"
    | RUnit -> "unit"
  in
  (o.output, o.foutput, ev)

let equal_observation a b = Stdlib.compare a b = 0

let equal_behaviour (a : outcome) (b : outcome) : bool =
  equal_observation (observe a) (observe b)
