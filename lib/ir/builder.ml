(** Imperative convenience layer for constructing functions.  Frontends and
    obfuscators create a builder, emit instructions into named blocks, and
    [finish] into an immutable {!Func.t}. *)

type block = string * Instr.t list ref * Instr.terminator option ref

type t = {
  name : string;
  params : (int * Types.t) list;
  ret : Types.t;
  mutable next_id : int;
  mutable next_label : int;
  mutable blocks_rev : block list;
  (* label -> block; a repeated label names its newest block *)
  by_label : (string, block) Hashtbl.t;
  mutable current : block option;
}

let create ~name ~param_tys ~ret =
  let params = List.mapi (fun i ty -> (i, ty)) param_tys in
  {
    name;
    params;
    ret;
    next_id = List.length param_tys;
    next_label = 0;
    blocks_rev = [];
    by_label = Hashtbl.create 16;
    current = None;
  }

let param (b : t) (i : int) : Value.t =
  if i < 0 || i >= List.length b.params then
    invalid_arg "Builder.param: index out of range";
  Value.Var (fst (List.nth b.params i))

let fresh_id (b : t) : int =
  let id = b.next_id in
  b.next_id <- id + 1;
  id

(** Create a new block label (without switching to it). *)
let new_block ?(hint = "bb") (b : t) : string =
  let l = hint ^ string_of_int b.next_label in
  b.next_label <- b.next_label + 1;
  let blk = (l, ref [], ref None) in
  b.blocks_rev <- blk :: b.blocks_rev;
  Hashtbl.replace b.by_label l blk;
  l

(** Position the builder at the end of block [label]. *)
let switch_to (b : t) (label : string) : unit =
  match Hashtbl.find_opt b.by_label label with
  | Some blk -> b.current <- Some blk
  | None -> invalid_arg ("Builder.switch_to: unknown block " ^ label)

let current_label (b : t) : string =
  match b.current with
  | Some (l, _, _) -> l
  | None -> invalid_arg "Builder.current_label: no current block"

let emit (b : t) ~(ty : Types.t) (kind : Instr.kind) : Value.t =
  match b.current with
  | None -> invalid_arg "Builder.emit: no current block"
  | Some (_, instrs, term) ->
      (match !term with
      | Some _ -> invalid_arg "Builder.emit: block already terminated"
      | None -> ());
      let id = match ty with Types.Void -> Instr.no_result | _ -> fresh_id b in
      instrs := Instr.mk ~id ~ty kind :: !instrs;
      if id = Instr.no_result then Value.Undef Types.Void else Value.Var id

let emit_void (b : t) (kind : Instr.kind) : unit =
  ignore (emit b ~ty:Types.Void kind)

let terminate (b : t) (term : Instr.terminator) : unit =
  match b.current with
  | None -> invalid_arg "Builder.terminate: no current block"
  | Some (_, _, t) ->
      (match !t with
      | Some _ -> invalid_arg "Builder.terminate: already terminated"
      | None -> t := Some term)

let is_terminated (b : t) : bool =
  match b.current with
  | None -> false
  | Some (_, _, t) -> Option.is_some !t

(* Typed emission helpers. *)

let ibin b op x y ~ty = emit b ~ty (Instr.Ibin (op, x, y))
let fbin b op x y = emit b ~ty:Types.F64 (Instr.Fbin (op, x, y))
let icmp b p x y = emit b ~ty:Types.I1 (Instr.Icmp (p, x, y))
let fcmp b p x y = emit b ~ty:Types.I1 (Instr.Fcmp (p, x, y))
let alloca b ty = emit b ~ty:(Types.Ptr ty) (Instr.Alloca ty)
let load b ~ty ptr = emit b ~ty (Instr.Load ptr)
let store b v ptr = emit_void b (Instr.Store (v, ptr))
let gep b ~ty base idxs = emit b ~ty (Instr.Gep (base, idxs))
let phi b ~ty incoming = emit b ~ty (Instr.Phi incoming)
let select b c x y ~ty = emit b ~ty (Instr.Select (c, x, y))
let call b ~ty callee args =
  match ty with
  | Types.Void ->
      emit_void b (Instr.Call (callee, args));
      Value.Undef Types.Void
  | _ -> emit b ~ty (Instr.Call (callee, args))
let cast b op v ~ty = emit b ~ty (Instr.Cast (op, v))

let ret b v = terminate b (Instr.Ret v)
let br b l = terminate b (Instr.Br l)
let condbr b c l1 l2 = terminate b (Instr.CondBr (c, l1, l2))
let switch b v ~default cases = terminate b (Instr.Switch (v, default, cases))

(** Assemble the builder into an immutable function.  Blocks appear in
    creation order; untermined blocks receive [unreachable]. *)
let finish (b : t) : Func.t =
  let blocks =
    List.rev_map
      (fun (label, instrs, term) ->
        let term = Option.value !term ~default:Instr.Unreachable in
        Block.make ~label ~instrs:(List.rev !instrs) ~term)
      b.blocks_rev
  in
  Func.make ~name:b.name ~params:b.params ~ret:b.ret ~blocks
