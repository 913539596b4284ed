(** Bogus control flow, after O-LLVM's [-bcf] pass.

    Selected basic blocks are guarded by an opaque predicate over two module
    globals [__bcf_x] and [__bcf_y] (both 0 at runtime, but the optimizer
    cannot know their values): [x * (x - 1) % 2 == 0 || y < 10] is always
    true, so the "true" edge to the real block is always taken; the "false"
    edge leads to a never-executed bogus clone of the block.  Because the
    predicate reads memory, standard optimizations do not fold it away —
    which is why, in the paper, bcf resists [-O3] normalization (§4.4).

    Precondition: the function must be phi-free (the pass is meant for
    [-O0]-style code, like the original, which runs before SSA
    construction). *)

open Yali_ir
module Rng = Yali_util.Rng

let x_global = "__bcf_x"
let y_global = "__bcf_y"

(* A bogus clone of a block: pure instructions are duplicated with fresh ids
   (and binary opcodes perturbed), effectful ones dropped.  The clone is
   never executed, so its semantics are irrelevant; it exists to confuse
   static analyses and histogram-style embeddings. *)
let make_bogus ~(fresh : unit -> int) (rng : Rng.t) (b : Block.t)
    ~(target : string) ~(label : string) : Block.t =
  let remap = Hashtbl.create 8 in
  (* Effectful instructions are dropped from the clone, so a reference to
     one would point into the sibling ".real" block, which does not
     dominate the bogus block.  The clone is dead code: any well-formed
     placeholder of the right kind will do. *)
  let local_ty = Hashtbl.create 8 in
  List.iter
    (fun (i : Instr.t) ->
      if Instr.defines i then Hashtbl.replace local_ty i.id i.ty)
    b.instrs;
  let placeholder (ty : Types.t) =
    match ty with
    | Types.F64 -> Value.FConst 0.0
    | Types.Ptr _ -> Value.Global x_global
    | ty -> Value.IConst (ty, 7L)
  in
  let rewrite v =
    match v with
    | Value.Var id -> (
        match Hashtbl.find_opt remap id with
        | Some id' -> Value.Var id'
        | None -> (
            match Hashtbl.find_opt local_ty id with
            | Some ty -> placeholder ty
            | None -> v))
    | _ -> v
  in
  let perturb (op : Instr.ibin) : Instr.ibin =
    match op with
    | Instr.Add -> if Rng.bool rng then Instr.Sub else Instr.Xor
    | Instr.Sub -> if Rng.bool rng then Instr.Add else Instr.Or
    | Instr.Mul -> Instr.Add
    | other -> other
  in
  let instrs =
    List.filter_map
      (fun (i : Instr.t) ->
        if Instr.defines i && Instr.is_pure i then
          match i.kind with
          | Instr.Phi _ | Instr.Alloca _ -> None
          | Instr.Ibin (op, a, b') ->
              let id = fresh () in
              Hashtbl.replace remap i.id id;
              Some
                (Instr.mk ~id ~ty:i.ty
                   (Instr.Ibin (perturb op, rewrite a, rewrite b')))
          | _ ->
              let id = fresh () in
              Hashtbl.replace remap i.id id;
              Some { (Instr.map_operands rewrite i) with id }
        else None)
      b.instrs
  in
  Block.make ~label ~instrs ~term:(Instr.Br target)

(* The opaque predicate block: always evaluates to true at runtime. *)
let make_predicate ~(fresh : unit -> int) ~(label : string)
    ~(real : string) ~(bogus : string) : Block.t =
  let x = fresh () and xm1 = fresh () and prod = fresh () and rem = fresh () in
  let c1 = fresh () and y = fresh () and c2 = fresh () and c = fresh () in
  let i32 = Types.I32 in
  let instrs =
    [
      Instr.mk ~id:x ~ty:i32 (Instr.Load (Value.Global x_global));
      Instr.mk ~id:xm1 ~ty:i32
        (Instr.Ibin (Instr.Sub, Value.Var x, Value.i32 1));
      Instr.mk ~id:prod ~ty:i32
        (Instr.Ibin (Instr.Mul, Value.Var x, Value.Var xm1));
      Instr.mk ~id:rem ~ty:i32
        (Instr.Ibin (Instr.SRem, Value.Var prod, Value.i32 2));
      Instr.mk ~id:c1 ~ty:Types.I1
        (Instr.Icmp (Instr.Eq, Value.Var rem, Value.i32 0));
      Instr.mk ~id:y ~ty:i32 (Instr.Load (Value.Global y_global));
      Instr.mk ~id:c2 ~ty:Types.I1
        (Instr.Icmp (Instr.Slt, Value.Var y, Value.i32 10));
      Instr.mk ~id:c ~ty:Types.I1
        (Instr.Ibin (Instr.Or, Value.Var c1, Value.Var c2));
    ]
  in
  Block.make ~label ~instrs ~term:(Instr.CondBr (Value.Var c, real, bogus))

let run_func ?(probability = 0.5) (rng : Rng.t) (f : Func.t) : Func.t =
  if List.exists Block.has_phi f.blocks then f
  else
    let entry_label = (Func.entry f).label in
    let next = ref f.next_id in
    let fresh () =
      let id = !next in
      incr next;
      id
    in
    let next_label = ref f.next_label in
    let fresh_label hint =
      let l = Printf.sprintf "%s.%d" hint !next_label in
      incr next_label;
      l
    in
    let blocks =
      List.concat_map
        (fun (b : Block.t) ->
          if b.label = entry_label || not (Rng.bernoulli rng probability) then
            [ b ]
          else
            let real = fresh_label (b.label ^ ".real") in
            let bogus = fresh_label (b.label ^ ".bogus") in
            let pred = make_predicate ~fresh ~label:b.label ~real ~bogus in
            let real_block = { b with label = real } in
            let bogus_block = make_bogus ~fresh rng b ~target:real ~label:bogus in
            [ pred; real_block; bogus_block ])
        f.blocks
    in
    { f with blocks; next_id = !next; next_label = !next_label }

(** Ensure the opaque-predicate globals exist in the module. *)
let add_globals (m : Irmod.t) : Irmod.t =
  let have n = Irmod.find_global m n <> None in
  let globals =
    m.globals
    @ (if have x_global then []
       else [ { Irmod.gname = x_global; gty = Types.I32; ginit = [| 0L |] } ])
    @
    if have y_global then []
    else [ { Irmod.gname = y_global; gty = Types.I32; ginit = [| 0L |] } ]
  in
  { m with globals }

let run ?probability (rng : Rng.t) (m : Irmod.t) : Irmod.t =
  let m = add_globals m in
  Irmod.map_funcs (run_func ?probability rng) m
