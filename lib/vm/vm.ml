(** See vm.mli for the contract.  The implementation notes below record the
    exactness-sensitive decisions; change them only against the differential
    oracle ("engines/vm-vs-interp-differential" in {!Yali_check.Oracles}).

    {b Value representation.}  The interpreter passes around boxed
    [Interp.rvalue]s; at ~15ns/step the boxing (an [Int64] block plus an
    [RInt] block per arithmetic result) and the write barrier on every
    binding dominate.  The VM instead stores every frame slot and every
    memory cell as an untagged pair in two parallel banks:

    - [tags]  : one byte per slot — 0 = int, 1 = float, 2 = ptr, 3 = unit;
    - [bits]  : a flat int64 [Bigarray.Array1.t] holding the payload — the
      value itself for ints and pointers, the [Int64.bits_of_float] image
      for floats.  With the kind and layout statically known, Bigarray
      access compiles to an inline load/store of an unboxed [int64], so
      the integer-dominated hot path pays no conversion at all; float
      operations pay a [bits_of_float]/[float_of_bits] pair instead
      (cheap [@@noalloc] externals).

    A dynamic conversion ([Interp.as_int] etc.) becomes a tag check; the
    trap messages are replicated verbatim.  The hot arithmetic never
    allocates: reads, ALU ops, compares and writes all stay unboxed.

    {b Mirrored evaluators.}  Calling {!Interp}'s evaluators would re-box
    every operand at the call boundary (no flambda), so all of [Ibin]
    (every width), [Icmp]/[Fbin]/[Fneg]/[Fcmp], casts and [normalize] are
    mirrored inline here, each a line-for-line transcription of the
    corresponding [Interp] case, except that [Ibin] and [Cast] take the
    width once in [compile] and mask and wrap by shifts ([mask], [wrap]).
    The differential property is the proof that the mirror has not
    drifted: it compares both engines on random programs across every
    pipeline variant, steps and cost included; the test "integer operators
    at every width" pins every integer operator at each width.

    {b One arm per instruction kind.}  Each IR instruction kind compiles
    to one constructor with one dispatch arm, which matches the operator,
    predicate or cast inside.  Per-operator and per-width constructors and
    fused superinstructions paid only on loop-heavy microbenchmarks, so
    both were deleted (DESIGN.md §13).

    {b Charging}: the interpreter charges (step + cost, then fuel check)
    {e before} evaluating each instruction and terminator; the dispatch
    loop does the same from the precomputed [c_costs] array, so the
    Trap-vs-[Out_of_fuel] precedence is identical.

    {b Phi edges}: the interpreter charges each phi of the target block,
    one at a time, before resolving it against the incoming edge.  An
    [edge] precomputes the number of phis charged along it ([e_charge] —
    for failing edges, the phis up to and including the failing one) and
    lump-charges them; the predicates [steps + k > fuel] for any
    [k <= e_charge] and [steps + e_charge > fuel] agree, so the
    classification is unchanged.  Copies are parallel: all sources are
    read into a scratch bank before any destination is written.

    {b Operand order}: OCaml evaluates application arguments right-to-left,
    so e.g. the interpreter's [eval_ibin ty op (as_int (lookup a)) (as_int
    (lookup b))] faults on [b] first.  Each dispatch arm replays the exact
    fetch/convert order so that competing traps pick the same winner. *)

open Yali_ir

(* ------------------------------------------------------------------ *)
(* Compiled form                                                       *)
(* ------------------------------------------------------------------ *)

(* A pre-resolved operand.  [Cst] carries the (tag, bits) encoding of the
   constant.  [Bad] is a fetch that traps: the interpreter resolves names
   at use time, so e.g. an unknown global only faults when (and if) the
   instruction mentioning it executes. *)
type operand =
  | Slot of int
  | Cst of int * int64  (* tag, bits *)
  | Bad of string

(* A CFG edge with its phi lowering: jump target as a code offset, the
   number of phis the interpreter charges along the edge, and the parallel
   copies [e_dst.(i) <- e_src.(i)].  [e_fail] marks edges that trap (after
   charging) instead of copying. *)
type edge = {
  e_target : int;
  e_charge : int;
  e_dst : int array;
  e_src : operand array;
  e_fail : string option;
  e_fast : bool;  (* nothing to charge, fail or copy: just jump *)
}

let mk_edge e_target e_charge e_dst e_src e_fail =
  {
    e_target;
    e_charge;
    e_dst;
    e_src;
    e_fail;
    e_fast = e_charge = 0 && e_fail = None && Array.length e_dst = 0;
  }

type intrinsic =
  | Read_int
  | Read_float
  | Print_int
  | Print_float
  | Abs
  | Min
  | Max

(* One flattened instruction: one constructor, and one dispatch arm, per
   IR instruction kind; the operator, predicate or cast is matched inside
   the arm.  First field of value-producing forms is the destination slot
   (-1: discard).  Calls are pre-bound: [Call_intr] to an intrinsic tag,
   [Call_fn] to a function index, [Call_bad] to the exact trap the
   interpreter raises after evaluating the arguments. *)
type inst =
  | Ibin of int * int * Instr.ibin * operand * operand  (* dst, width *)
  | Icmp of int * Instr.icmp * operand * operand
  | Fbin of int * Instr.fbin * operand * operand
  | Fneg of int * operand
  | Fcmp of int * Instr.fcmp * operand * operand
  | Alloca of int * int
  | Load of int * operand
  | Store of operand * operand  (* value, pointer *)
  | Gep of int * operand * operand array * int array  (* base, idxs, strides *)
  | Select of int * operand * operand * operand
  | Call_intr of int * intrinsic * operand array
  | Call_fn of int * int * operand array
  | Call_bad of operand array * string
  | Cast of int * Instr.cast * int * operand  (* dst, cast, width *)
  | Freeze of int * operand
  | Ret of operand
  | Ret_void
  | Jmp of edge
  | Cond_br of operand * edge * edge
  | Switch of operand * int * (int64 * edge) array * edge
    (* scrutinee, extra dispatch cost, cases in source order, default *)
  | Unreachable

type cfunc = {
  c_name : string;
  c_nslots : int;
  c_param_slots : int array;
  c_param_tys : Types.t array;
  c_code : inst array;
  c_costs : int array;  (* per-offset Opcode.cost, charged before dispatch *)
  c_entry : edge;
  c_empty : bool;  (* no blocks: entering raises Func.entry's exception *)
  c_max_copy : int;
}

type i64s = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type program = {
  p_funcs : cfunc array;
  p_main : int;  (* -1 when the module has no [main] *)
  p_globals : (int * Bytes.t * i64s) array;
    (* base address, tag image, bits image *)
  p_brk0 : int;  (* allocation frontier after globals *)
  p_globals_oom : bool;  (* global layout overflows the memory image *)
  p_max_copy : int;
}

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let intrinsic_of_name = function
  | "read_int" -> Some Read_int
  | "read_float" -> Some Read_float
  | "print_int" -> Some Print_int
  | "print_float" -> Some Print_float
  | "abs" -> Some Abs
  | "min" -> Some Min
  | "max" -> Some Max
  | _ -> None

(* Stride of each gep index position, from the static type chain alone
   (mirrors Interp.gep_addr: first index scales by the pointee size,
   later indices descend into array elements). *)
let strides_of (base_ty : Types.t) (n : int) : int array =
  let out = Array.make n 1 in
  let ty = ref base_ty in
  for k = 0 to n - 1 do
    (match !ty with
    | Types.Ptr t | Types.Arr (t, _) ->
        out.(k) <- Types.size_in_cells t;
        ty := t
    | t ->
        out.(k) <- 1;
        ty := t)
  done;
  out

(* The width [Interp.eval_ibin] takes for a type ([Types.width], or 64
   for a non-integer type, where [Interp.normalize] is the identity too). *)
let width (ty : Types.t) : int =
  match ty with Types.I1 -> 1 | Types.I8 -> 8 | Types.I32 -> 32 | _ -> 64

let compile (m : Irmod.t) : program =
  let funcs = Array.of_list m.funcs in
  (* callee binding: first definition of a name wins (Irmod.find_func) *)
  let ftbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Func.t) ->
      if not (Hashtbl.mem ftbl f.name) then Hashtbl.add ftbl f.name i)
    funcs;
  (* global layout is deterministic: a running total of cell counts in
     declaration order.  Last duplicate name wins (interpreter uses
     Hashtbl.replace).  Initialiser images are materialised once. *)
  let gtbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let brk = ref 0 in
  let oom = ref false in
  let globals =
    List.map
      (fun (g : Irmod.global) ->
        let cells = max 1 (Types.size_in_cells g.gty) in
        let base = !brk in
        if base + cells >= Interp.mem_size then oom := true;
        brk := base + cells;
        Hashtbl.replace gtbl g.gname base;
        if !oom then
          (* never written: the oom trap fires before globals are laid in *)
          (base, Bytes.empty, Bigarray.Array1.create Int64 C_layout 0)
        else begin
          let img = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout cells in
          for i = 0 to cells - 1 do
            img.{i} <- (if i < Array.length g.ginit then g.ginit.(i) else 0L)
          done;
          (base, Bytes.make cells '\000', img)
        end)
      m.globals
    |> Array.of_list
  in
  let compile_func (f : Func.t) : cfunc =
    let blocks = Array.of_list f.blocks in
    (* Slot assignment: params first, then every definition in block order.
       Phis are assigned even when [no_result]: the interpreter binds
       [i.id] for phis unconditionally. *)
    let slots : (int, int) Hashtbl.t = Hashtbl.create 64 in
    let nslots = ref 0 in
    let assign id =
      if not (Hashtbl.mem slots id) then (
        Hashtbl.add slots id !nslots;
        incr nslots)
    in
    List.iter (fun (id, _) -> assign id) f.params;
    Array.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.kind with
            | Instr.Phi _ -> assign i.id
            | _ -> if Instr.defines i then assign i.id)
          b.instrs)
      blocks;
    let slot id = Hashtbl.find slots id in
    let param_slots =
      Array.of_list (List.map (fun (id, _) -> slot id) f.params)
    in
    let param_tys = Array.of_list (List.map snd f.params) in
    (* def_types mirrors the interpreter's table (last definition wins). *)
    let def_types : (int, Types.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter (fun (id, t) -> Hashtbl.replace def_types id t) f.params;
    Array.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            if Instr.defines i then Hashtbl.replace def_types i.id i.ty)
          b.instrs)
      blocks;
    let resolve (v : Value.t) : operand =
      match v with
      | Value.Var id -> (
          match Hashtbl.find_opt slots id with
          | Some s -> Slot s
          | None ->
              Bad (Printf.sprintf "read of unset %%%d in %s" id f.name))
      | Value.IConst (ty, n) -> Cst (0, Interp.normalize ty n)
      | Value.FConst x -> Cst (1, Int64.bits_of_float x)
      | Value.Global g -> (
          match Hashtbl.find_opt gtbl g with
          | Some addr -> Cst (2, Int64.of_int addr)
          | None -> Bad ("unknown global " ^ g))
      | Value.Undef _ -> Cst (0, 0L)
    in
    (* Code layout: per block, the non-phi instructions then the
       terminator.  Jumps resolve labels through a table where the last
       duplicate wins, like the interpreter's block table. *)
    let nblocks = Array.length blocks in
    let block_pc = Array.make (max 1 nblocks) 0 in
    let label_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let pc = ref 0 in
    Array.iteri
      (fun bi (b : Block.t) ->
        block_pc.(bi) <- !pc;
        Hashtbl.replace label_tbl b.label bi;
        let non_phis =
          List.fold_left
            (fun acc (i : Instr.t) ->
              match i.kind with Instr.Phi _ -> acc | _ -> acc + 1)
            0 b.instrs
        in
        pc := !pc + non_phis + 1)
      blocks;
    let edge_into (pred : string option) (bi : int) : edge =
      let b = blocks.(bi) in
      let tpc = block_pc.(bi) in
      let rec go j dsts srcs = function
        | [] ->
            mk_edge tpc j
              (Array.of_list (List.rev dsts))
              (Array.of_list (List.rev srcs))
              None
        | (i : Instr.t) :: rest -> (
            match i.kind with
            | Instr.Phi incoming -> (
                (* the interpreter charges each phi, then resolves it *)
                match pred with
                | None ->
                    mk_edge tpc (j + 1) [||] [||] (Some "phi in entry block")
                | Some p -> (
                    match
                      List.assoc_opt p
                        (List.map (fun (v, l) -> (l, v)) incoming)
                    with
                    | Some v ->
                        go (j + 1) (slot i.id :: dsts) (resolve v :: srcs)
                          rest
                    | None ->
                        mk_edge tpc (j + 1) [||] [||]
                          (Some
                             (Printf.sprintf "phi %%%d misses edge from %s"
                                i.id p))))
            | _ -> go j dsts srcs rest)
      in
      go 0 [] [] b.instrs
    in
    let make_edge (pred : string) (target : string) : edge =
      match Hashtbl.find_opt label_tbl target with
      | None ->
          mk_edge 0 0 [||] [||] (Some ("jump to unknown block " ^ target))
      | Some bi -> edge_into (Some pred) bi
    in
    let code : inst list ref = ref [] in
    let costs : int list ref = ref [] in
    let emit inst cost =
      code := inst :: !code;
      costs := cost :: !costs
    in
    Array.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.kind with
            | Instr.Phi _ -> ()
            | k ->
                let dst = if Instr.defines i then slot i.id else -1 in
                let inst =
                  match k with
                  | Instr.Phi _ -> assert false
                  | Instr.Ibin (op, a, b') ->
                      Ibin (dst, width i.ty, op, resolve a, resolve b')
                  | Instr.Fbin (op, a, b') ->
                      Fbin (dst, op, resolve a, resolve b')
                  | Instr.Fneg a -> Fneg (dst, resolve a)
                  | Instr.Icmp (p, a, b') ->
                      Icmp (dst, p, resolve a, resolve b')
                  | Instr.Fcmp (p, a, b') ->
                      Fcmp (dst, p, resolve a, resolve b')
                  | Instr.Alloca ty -> Alloca (dst, Types.size_in_cells ty)
                  | Instr.Load p -> Load (dst, resolve p)
                  | Instr.Store (v, p) -> Store (resolve v, resolve p)
                  | Instr.Gep (base, idxs) ->
                      let base_ty =
                        match base with
                        | Value.Var id -> (
                            match Hashtbl.find_opt def_types id with
                            | Some t -> t
                            | None -> Types.Ptr Types.I64)
                        | Value.Global g -> (
                            match Irmod.find_global m g with
                            | Some gl -> Types.Ptr gl.gty
                            | None -> Types.Ptr Types.I64)
                        | _ -> Types.Ptr Types.I64
                      in
                      Gep
                        ( dst,
                          resolve base,
                          Array.of_list (List.map resolve idxs),
                          strides_of base_ty (List.length idxs) )
                  | Instr.Select (c, a, b') ->
                      Select (dst, resolve c, resolve a, resolve b')
                  | Instr.Call (callee, args) -> (
                      let rargs = Array.of_list (List.map resolve args) in
                      (* intrinsics shadow module functions, like the
                         interpreter's eval_call *)
                      match intrinsic_of_name callee with
                      | Some it -> Call_intr (dst, it, rargs)
                      | None -> (
                          match Hashtbl.find_opt ftbl callee with
                          | None ->
                              Call_bad
                                (rargs, "call to unknown function " ^ callee)
                          | Some fix ->
                              let nparams =
                                List.length funcs.(fix).Func.params
                              in
                              if Array.length rargs <> nparams then
                                Call_bad
                                  ( rargs,
                                    Printf.sprintf
                                      "arity mismatch calling %s: %d args \
                                       for %d params"
                                      callee (Array.length rargs) nparams )
                              else Call_fn (dst, fix, rargs)))
                  | Instr.Cast (c, a) -> Cast (dst, c, width i.ty, resolve a)
                  | Instr.Freeze a -> Freeze (dst, resolve a)
                in
                emit inst (Opcode.cost (Instr.opcode i)))
          b.instrs;
        let term =
          match b.term with
          | Instr.Ret None -> Ret_void
          | Instr.Ret (Some v) -> Ret (resolve v)
          | Instr.Br l -> Jmp (make_edge b.label l)
          | Instr.CondBr (c, t, e) ->
              Cond_br (resolve c, make_edge b.label t, make_edge b.label e)
          | Instr.Switch (v, d, cases) ->
              Switch
                ( resolve v,
                  List.length cases / 2,
                  Array.of_list
                    (List.map (fun (key, l) -> (key, make_edge b.label l)) cases),
                  make_edge b.label d )
          | Instr.Unreachable -> Unreachable
        in
        emit term (Opcode.cost (Instr.opcode_of_terminator b.term)))
      blocks;
    let max_copy =
      Array.fold_left
        (fun acc (b : Block.t) -> max acc (List.length (Block.phis b)))
        0 blocks
    in
    {
      c_name = f.name;
      c_nslots = !nslots;
      c_param_slots = param_slots;
      c_param_tys = param_tys;
      c_code = Array.of_list (List.rev !code);
      c_costs = Array.of_list (List.rev !costs);
      c_entry =
        (if nblocks = 0 then mk_edge 0 0 [||] [||] None else edge_into None 0);
      c_empty = nblocks = 0;
      c_max_copy = max_copy;
    }
  in
  let cfuncs = Array.map compile_func funcs in
  {
    p_funcs = cfuncs;
    p_main =
      (match Hashtbl.find_opt ftbl "main" with Some i -> i | None -> -1);
    p_globals = globals;
    p_brk0 = !brk;
    p_globals_oom = !oom;
    p_max_copy =
      Array.fold_left (fun acc c -> max acc c.c_max_copy) 0 cfuncs;
  }

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

(* A register/memory bank: a tag byte and an unboxed 64-bit payload per
   cell.  Frames, the memory image and the phi scratch all use this.
   Payload cells start uninitialised — harmless, because every tag starts
   as unit and no unit-tagged payload can reach an observable: all
   conversions check the tag first, and raw moves carry the unit tag
   along. *)
type bank = { tags : Bytes.t; bits : i64s }

let make_bank n =
  {
    tags = Bytes.make n '\003';
    bits = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n;
  }

(* The VM's pooled memory image (cf. Interp.arena for the interpreter). *)
let mem_arena : bank Arena.t =
  Arena.create ~make:(fun () -> make_bank Interp.mem_size)

let arenas_created () = Arena.created mem_arena

type state = {
  prog : program;
  mem : bank;
  mutable brk : int;
  mutable input : int64 list;
  mutable out_rev : int64 list;
  mutable fout_rev : float list;
  mutable steps : int;
  mutable cost : int;
  fuel : int;
  scratch : bank;  (* phi parallel-copy buffer *)
  pools : bank list array;  (* per-function frame free lists *)
  mutable ret_tag : int;
  ret_bits : i64s;  (* 1 cell; a mutable int64 field would box *)
}

let phi_cost = Opcode.cost Opcode.Phi

(* Tag-check failures replicate Interp.as_int/as_float/as_ptr verbatim. *)
let trap_int (t : int) : 'a =
  raise
    (Interp.Trap
       (if t = 1 then "expected integer, got float"
        else if t = 2 then "expected integer, got pointer"
        else "expected integer, got unit"))

let[@inline] geti (fr : bank) (o : operand) : int64 =
  match o with
  | Slot s ->
      let t = Char.code (Bytes.unsafe_get fr.tags s) in
      if t = 0 then Bigarray.Array1.unsafe_get fr.bits s else trap_int t
  | Cst (0, b) -> b
  | Cst (t, _) -> trap_int t
  | Bad msg -> raise (Interp.Trap msg)

let[@inline] getf (fr : bank) (o : operand) : float =
  match o with
  | Slot s ->
      let t = Char.code (Bytes.unsafe_get fr.tags s) in
      if t = 1 then Int64.float_of_bits (Bigarray.Array1.unsafe_get fr.bits s)
      else if t = 0 then Int64.to_float (Bigarray.Array1.unsafe_get fr.bits s)
      else raise (Interp.Trap "expected float")
  | Cst (1, b) -> Int64.float_of_bits b
  | Cst (0, b) -> Int64.to_float b
  | Cst _ -> raise (Interp.Trap "expected float")
  | Bad msg -> raise (Interp.Trap msg)

let[@inline] getp (fr : bank) (o : operand) : int =
  match o with
  | Slot s ->
      let t = Char.code (Bytes.unsafe_get fr.tags s) in
      if t = 0 || t = 2 then
        Int64.to_int (Bigarray.Array1.unsafe_get fr.bits s)
      else raise (Interp.Trap "expected pointer")
  | Cst ((0 | 2), b) -> Int64.to_int b
  | Cst _ -> raise (Interp.Trap "expected pointer")
  | Bad msg -> raise (Interp.Trap msg)

(* Untyped fetch (tag then payload), for moves that don't convert: store
   values, select arms, freeze, returns, call arguments, phi copies.
   [graw] never faults on its own: [gtag] is always called first. *)
let[@inline] gtag (fr : bank) (o : operand) : int =
  match o with
  | Slot s -> Char.code (Bytes.unsafe_get fr.tags s)
  | Cst (t, _) -> t
  | Bad msg -> raise (Interp.Trap msg)

let[@inline] graw (fr : bank) (o : operand) : int64 =
  match o with
  | Slot s -> Bigarray.Array1.unsafe_get fr.bits s
  | Cst (_, b) -> b
  | Bad _ -> 0L

let[@inline] set_t (fr : bank) (dst : int) (t : int) (payload : int64) =
  if dst >= 0 then begin
    Bytes.unsafe_set fr.tags dst (Char.unsafe_chr t);
    Bigarray.Array1.unsafe_set fr.bits dst payload
  end

let[@inline] seti (fr : bank) (dst : int) (x : int64) = set_t fr dst 0 x

let[@inline] setf (fr : bank) (dst : int) (x : float) =
  set_t fr dst 1 (Int64.bits_of_float x)

(* Unsigned int64 compare, as Int64.unsigned_compare implements it. *)
let[@inline] ult (x : int64) (y : int64) =
  Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

(* Interp.eval_ibin's [mask_to_width] and [Interp.normalize] at width [w]
   (1, 8, 32 or 64), by shifts: the low [w] bits, and those bits
   sign-extended (i1 stays 0 or 1).  Both are the identity at 64.  A match
   on the type here would be a second data-dependent branch in every
   [Ibin]. *)
let[@inline] mask (w : int) (n : int64) : int64 =
  Int64.shift_right_logical (Int64.shift_left n (64 - w)) (64 - w)

let[@inline] wrap (w : int) (n : int64) : int64 =
  if w = 1 then Int64.logand n 1L
  else Int64.shift_right (Int64.shift_left n (64 - w)) (64 - w)

let take_edge_slow (st : state) (frame : bank) (e : edge) : int =
  if e.e_charge > 0 then (
    st.steps <- st.steps + e.e_charge;
    st.cost <- st.cost + (e.e_charge * phi_cost);
    if st.steps > st.fuel then raise Interp.Out_of_fuel);
  (match e.e_fail with Some msg -> raise (Interp.Trap msg) | None -> ());
  let n = Array.length e.e_dst in
  if n > 0 then (
    let sc = st.scratch in
    for i = 0 to n - 1 do
      let o = Array.unsafe_get e.e_src i in
      Bytes.unsafe_set sc.tags i (Char.unsafe_chr (gtag frame o));
      Bigarray.Array1.unsafe_set sc.bits i (graw frame o)
    done;
    for i = 0 to n - 1 do
      let d = Array.unsafe_get e.e_dst i in
      Bytes.unsafe_set frame.tags d (Bytes.unsafe_get sc.tags i);
      Bigarray.Array1.unsafe_set frame.bits d
        (Bigarray.Array1.unsafe_get sc.bits i)
    done);
  e.e_target


let eval_intrinsic (st : state) (frame : bank) (dst : int) (it : intrinsic)
    (args : operand array) : unit =
  (* the interpreter's caller evaluates all arguments (left to right)
     before dispatch, so arity traps fire only after every fetch *)
  let fetch_all () = Array.iter (fun o -> ignore (gtag frame o)) args in
  match it with
  | Read_int -> (
      fetch_all ();
      match st.input with
      | [] -> seti frame dst 0L
      | x :: rest ->
          st.input <- rest;
          seti frame dst x)
  | Read_float -> (
      fetch_all ();
      match st.input with
      | [] -> setf frame dst 0.
      | x :: rest ->
          st.input <- rest;
          setf frame dst (Int64.to_float x))
  | Print_int ->
      if Array.length args = 1 then (
        st.out_rev <- geti frame args.(0) :: st.out_rev;
        set_t frame dst 3 0L)
      else (
        fetch_all ();
        raise (Interp.Trap "print_int arity"))
  | Print_float ->
      if Array.length args = 1 then (
        st.fout_rev <- getf frame args.(0) :: st.fout_rev;
        set_t frame dst 3 0L)
      else (
        fetch_all ();
        raise (Interp.Trap "print_float arity"))
  | Abs ->
      if Array.length args = 1 then (
        let x = geti frame args.(0) in
        seti frame dst (if x >= 0L then x else Int64.neg x))
      else (
        fetch_all ();
        raise (Interp.Trap "abs arity"))
  | Min ->
      if Array.length args = 2 then (
        let ta = gtag frame args.(0) in
        let ba = graw frame args.(0) in
        let tb = gtag frame args.(1) in
        let bb = graw frame args.(1) in
        (* convert right-to-left, like [min (as_int a) (as_int b)] *)
        let y = if tb = 0 then bb else trap_int tb in
        let x = if ta = 0 then ba else trap_int ta in
        seti frame dst (if x <= y then x else y))
      else (
        fetch_all ();
        raise (Interp.Trap "min arity"))
  | Max ->
      if Array.length args = 2 then (
        let ta = gtag frame args.(0) in
        let ba = graw frame args.(0) in
        let tb = gtag frame args.(1) in
        let bb = graw frame args.(1) in
        let y = if tb = 0 then bb else trap_int tb in
        let x = if ta = 0 then ba else trap_int ta in
        seti frame dst (if x >= y then x else y))
      else (
        fetch_all ();
        raise (Interp.Trap "max arity"))

let rec exec (st : state) (f : cfunc) (frame : bank) : unit =
  let code = f.c_code in
  let costs = f.c_costs in
  let fuel = st.fuel in
  let mem = st.mem in
  (* The step/cost counters and the allocation frontier live in loop
     parameters (registers, via self tail calls); [st] holds the canonical
     copy only across calls, slow edges and returns.  The exception paths
     raise without syncing — nothing observes the counters of a run that
     trapped or ran out of fuel. *)
  let rec loop (k : int) (steps0 : int) (cost0 : int) (brk : int) : unit =
    let steps = steps0 + 1 in
    let cost = cost0 + Array.unsafe_get costs k in
    if steps > fuel then raise Interp.Out_of_fuel;
    match Array.unsafe_get code k with
    | Ibin (dst, w, op, a, b) ->
        (* Interp.eval_ibin, transcribed (the cross-module call would box
           both operands).  Operand order everywhere: [y] (right) fetched
           before [x] (left). *)
        let y = geti frame b in
        let x = geti frame a in
        let r =
          match op with
          | Instr.Add -> Int64.add x y
          | Instr.Sub -> Int64.sub x y
          | Instr.Mul -> Int64.mul x y
          | Instr.SDiv ->
              if y = 0L then raise (Interp.Trap "division by zero");
              Int64.div x y
          | Instr.SRem ->
              if y = 0L then raise (Interp.Trap "division by zero");
              Int64.rem x y
          | Instr.UDiv ->
              if y = 0L then raise (Interp.Trap "division by zero");
              Int64.unsigned_div (mask w x) (mask w y)
          | Instr.URem ->
              if y = 0L then raise (Interp.Trap "division by zero");
              Int64.unsigned_rem (mask w x) (mask w y)
          | Instr.Shl ->
              Int64.shift_left x (Int64.to_int (Int64.logand y 63L))
          | Instr.LShr ->
              Int64.shift_right_logical (mask w x)
                (Int64.to_int (Int64.logand y 63L))
          | Instr.AShr ->
              Int64.shift_right x (Int64.to_int (Int64.logand y 63L))
          | Instr.And -> Int64.logand x y
          | Instr.Or -> Int64.logor x y
          | Instr.Xor -> Int64.logxor x y
        in
        seti frame dst (wrap w r);
        loop (k + 1) steps cost brk
    | Fbin (dst, op, a, b) ->
        let y = getf frame b in
        let x = getf frame a in
        setf frame dst
          (match op with
          | Instr.FAdd -> x +. y
          | Instr.FSub -> x -. y
          | Instr.FMul -> x *. y
          | Instr.FDiv -> x /. y
          | Instr.FRem -> Float.rem x y);
        loop (k + 1) steps cost brk
    | Fneg (dst, a) ->
        setf frame dst (-.getf frame a);
        loop (k + 1) steps cost brk
    | Icmp (dst, p, a, b) ->
        (* Interp.eval_icmp, transcribed; it ignores the width *)
        let y = geti frame b in
        let x = geti frame a in
        let r =
          match p with
          | Instr.Eq -> x = y
          | Instr.Ne -> x <> y
          | Instr.Slt -> x < y
          | Instr.Sle -> x <= y
          | Instr.Sgt -> x > y
          | Instr.Sge -> x >= y
          | Instr.Ult -> ult x y
          | Instr.Ule -> not (ult y x)
          | Instr.Ugt -> ult y x
          | Instr.Uge -> not (ult x y)
        in
        seti frame dst (if r then 1L else 0L);
        loop (k + 1) steps cost brk
    | Fcmp (dst, p, a, b) ->
        let y = getf frame b in
        let x = getf frame a in
        let r =
          match p with
          | Instr.Oeq -> x = y
          | Instr.One -> x <> y
          | Instr.Olt -> x < y
          | Instr.Ole -> x <= y
          | Instr.Ogt -> x > y
          | Instr.Oge -> x >= y
        in
        seti frame dst (if r then 1L else 0L);
        loop (k + 1) steps cost brk
    | Alloca (dst, cells) ->
        if brk + cells >= Interp.mem_size then
          raise (Interp.Trap "out of memory");
        Bytes.fill mem.tags brk cells '\000';
        for i = brk to brk + cells - 1 do
          Bigarray.Array1.unsafe_set mem.bits i 0L
        done;
        set_t frame dst 2 (Int64.of_int brk);
        loop (k + 1) steps cost (brk + cells)
    | Load (dst, p) ->
        let addr = getp frame p in
        if addr < 0 || addr >= brk then
          raise (Interp.Trap (Printf.sprintf "load out of bounds: %d" addr));
        set_t frame dst
          (Char.code (Bytes.unsafe_get mem.tags addr))
          (Bigarray.Array1.unsafe_get mem.bits addr);
        loop (k + 1) steps cost brk
    | Store (v, p) ->
        (* value first, then pointer (right-to-left application order) *)
        let t = gtag frame v in
        let payload = graw frame v in
        let addr = getp frame p in
        if addr < 0 || addr >= brk then
          raise (Interp.Trap (Printf.sprintf "store out of bounds: %d" addr));
        Bytes.unsafe_set mem.tags addr (Char.unsafe_chr t);
        Bigarray.Array1.unsafe_set mem.bits addr payload;
        loop (k + 1) steps cost brk
    | Gep (dst, base, idxs, strides) ->
        (* indices convert before the base, as in the interpreter *)
        let off = ref 0 in
        for j = 0 to Array.length idxs - 1 do
          off :=
            !off
            + Int64.to_int (geti frame (Array.unsafe_get idxs j))
              * Array.unsafe_get strides j
        done;
        let b = getp frame base in
        set_t frame dst 2 (Int64.of_int (b + !off));
        loop (k + 1) steps cost brk
    | Select (dst, c, a, b) ->
        let o = if geti frame c <> 0L then a else b in
        let t = gtag frame o in
        set_t frame dst t (graw frame o);
        loop (k + 1) steps cost brk
    | Call_intr (dst, it, args) ->
        eval_intrinsic st frame dst it args;
        loop (k + 1) steps cost brk
    | Call_fn (dst, fix, args) ->
        let callee = Array.unsafe_get st.prog.p_funcs fix in
        let cframe =
          match st.pools.(fix) with
          | fr :: rest ->
              st.pools.(fix) <- rest;
              fr
          | [] -> make_bank callee.c_nslots
        in
        let ps = callee.c_param_slots in
        for j = 0 to Array.length args - 1 do
          let o = Array.unsafe_get args j in
          let t = gtag frame o in
          let payload = graw frame o in
          let s = Array.unsafe_get ps j in
          Bytes.unsafe_set cframe.tags s (Char.unsafe_chr t);
          Bigarray.Array1.unsafe_set cframe.bits s payload
        done;
        if callee.c_empty then
          invalid_arg ("Func.entry: function " ^ callee.c_name ^ " has no blocks");
        st.steps <- steps;
        st.cost <- cost;
        st.brk <- brk;
        exec st callee cframe;
        st.pools.(fix) <- cframe :: st.pools.(fix);
        set_t frame dst st.ret_tag (Bigarray.Array1.unsafe_get st.ret_bits 0);
        loop (k + 1) st.steps st.cost st.brk
    | Call_bad (args, msg) ->
        Array.iter (fun o -> ignore (gtag frame o)) args;
        raise (Interp.Trap msg)
    | Cast (dst, c, w, a) ->
        (* Interp.eval_cast, transcribed case by case *)
        (match c with
        | Instr.Trunc | Instr.ZExt | Instr.SExt ->
            seti frame dst (wrap w (geti frame a))
        | Instr.FPTrunc | Instr.FPExt -> setf frame dst (getf frame a)
        | Instr.FPToUI | Instr.FPToSI ->
            let x = getf frame a in
            if x <> x (* nan *) then seti frame dst 0L
            else seti frame dst (wrap w (Int64.of_float x))
        | Instr.UIToFP | Instr.SIToFP ->
            setf frame dst (Int64.to_float (geti frame a))
        | Instr.PtrToInt ->
            seti frame dst (Int64.of_int (getp frame a))
        | Instr.IntToPtr ->
            set_t frame dst 2 (Int64.of_int (Int64.to_int (geti frame a)))
        | Instr.Bitcast ->
            let t = gtag frame a in
            set_t frame dst t (graw frame a));
        loop (k + 1) steps cost brk
    | Freeze (dst, a) ->
        let t = gtag frame a in
        set_t frame dst t (graw frame a);
        loop (k + 1) steps cost brk
    | Ret v ->
        let t = gtag frame v in
        let payload = graw frame v in
        st.ret_tag <- t;
        Bigarray.Array1.unsafe_set st.ret_bits 0 payload;
        st.steps <- steps;
        st.cost <- cost;
        st.brk <- brk
    | Ret_void ->
        st.ret_tag <- 3;
        st.steps <- steps;
        st.cost <- cost;
        st.brk <- brk
    | Jmp e -> branch_to e steps cost brk
    | Cond_br (c, t, e) ->
        branch_to (if geti frame c <> 0L then t else e) steps cost brk
    | Switch (v, extra, cases, default) ->
        let cost = cost + extra in
        let x = geti frame v in
        let n = Array.length cases in
        let target = ref default in
        let j = ref 0 in
        let searching = ref true in
        while !searching && !j < n do
          let key, e = Array.unsafe_get cases !j in
          if key = x then (
            target := e;
            searching := false);
          incr j
        done;
        branch_to !target steps cost brk
    | Unreachable -> raise (Interp.Trap "executed unreachable")
  and branch_to (e : edge) (steps : int) (cost : int) (brk : int) : unit =
    if e.e_fast then loop e.e_target steps cost brk
    else begin
      st.steps <- steps;
      st.cost <- cost;
      let t = take_edge_slow st frame e in
      loop t st.steps st.cost brk
    end
  in
  if f.c_entry.e_fast then loop f.c_entry.e_target st.steps st.cost st.brk
  else begin
    let t = take_edge_slow st frame f.c_entry in
    loop t st.steps st.cost st.brk
  end

let run_compiled ?(fuel = 10_000_000) (p : program) (input : int64 list) :
    Interp.outcome =
  Arena.with_mem mem_arena @@ fun mem ->
  let st =
    {
      prog = p;
      mem;
      brk = 0;
      input;
      out_rev = [];
      fout_rev = [];
      steps = 0;
      cost = 0;
      fuel;
      scratch = make_bank (max 1 p.p_max_copy);
      pools = Array.make (Array.length p.p_funcs) [];
      ret_tag = 3;
      ret_bits = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 1;
    }
  in
  if p.p_globals_oom then raise (Interp.Trap "out of memory");
  Array.iter
    (fun (base, gtags, gbits) ->
      let len = Bigarray.Array1.dim gbits in
      Bytes.blit gtags 0 mem.tags base len;
      Bigarray.Array1.blit gbits (Bigarray.Array1.sub mem.bits base len))
    p.p_globals;
  st.brk <- p.p_brk0;
  if p.p_main < 0 then invalid_arg "Irmod.find_func: no function main";
  let main = p.p_funcs.(p.p_main) in
  let frame = make_bank main.c_nslots in
  Array.iteri
    (fun j ty ->
      let s = main.c_param_slots.(j) in
      Bytes.set frame.tags s
        (match ty with Types.F64 -> '\001' | _ -> '\000');
      frame.bits.{s} <- 0L)
    main.c_param_tys;
  if main.c_empty then
    invalid_arg ("Func.entry: function " ^ main.c_name ^ " has no blocks");
  exec st main frame;
  let exit_value =
    match st.ret_tag with
    | 0 -> Interp.RInt st.ret_bits.{0}
    | 1 -> Interp.RFloat (Int64.float_of_bits st.ret_bits.{0})
    | 2 -> Interp.RPtr (Int64.to_int st.ret_bits.{0})
    | _ -> Interp.RUnit
  in
  {
    Interp.output = List.rev st.out_rev;
    foutput = List.rev st.fout_rev;
    exit_value;
    steps = st.steps;
    cost = st.cost;
  }

let run ?fuel (m : Irmod.t) (input : int64 list) : Interp.outcome =
  run_compiled ?fuel (compile m) input
