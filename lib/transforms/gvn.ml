(** Dominator-scoped common-subexpression elimination (a light GVN).

    Pure instructions with equal keys are unified when an earlier occurrence
    dominates the later one.  Commutative operations are keyed on sorted
    operands. *)

open Yali_ir

(* An operand's key has the classes of its printed form: an integer
   constant is its type and value, [undef] its type, a global its name.  A
   float is its bits, except that every NaN prints as [nan] or [-nan], so a
   NaN is its sign alone, under its own constructor so that it cannot share
   a key with a float's bits; floats themselves are never compared, since
   [compare] calls [0.0] and [-0.0] equal and all NaNs equal. *)
type vkey =
  | Kvar of int
  | Kint of Types.t * int64
  | Kfloat of int64
  | Knan of bool  (** negative *)
  | Kglobal of string
  | Kundef of Types.t

let vkey : Value.t -> vkey = function
  | Value.Var i -> Kvar i
  | Value.IConst (t, n) -> Kint (t, n)
  | Value.FConst x ->
      if Float.is_nan x then Knan (Float.sign_bit x)
      else Kfloat (Int64.bits_of_float x)
  | Value.Global g -> Kglobal g
  | Value.Undef t -> Kundef t

(* [Ibin] and [Cast] carry the result type; the other kinds do not *)
type key =
  | Kibin of Instr.ibin * Types.t * vkey * vkey
  | Kfbin of Instr.fbin * vkey * vkey
  | Kfneg of vkey
  | Kicmp of Instr.icmp * vkey * vkey
  | Kfcmp of Instr.fcmp * vkey * vkey
  | Kselect of vkey * vkey * vkey
  | Kcast of Instr.cast * Types.t * vkey
  | Kgep of vkey * vkey list

let key_of (i : Instr.t) : key option =
  match i.kind with
  | Instr.Ibin (op, a, b) ->
      let a, b =
        if Instr.is_commutative_ibin op && compare b a < 0 then (b, a)
        else (a, b)
      in
      Some (Kibin (op, i.ty, vkey a, vkey b))
  | Instr.Fbin (op, a, b) -> Some (Kfbin (op, vkey a, vkey b))
  | Instr.Fneg a -> Some (Kfneg (vkey a))
  | Instr.Icmp (p, a, b) -> Some (Kicmp (p, vkey a, vkey b))
  | Instr.Fcmp (p, a, b) -> Some (Kfcmp (p, vkey a, vkey b))
  | Instr.Select (c, a, b) -> Some (Kselect (vkey c, vkey a, vkey b))
  | Instr.Cast (c, a) -> Some (Kcast (c, i.ty, vkey a))
  | Instr.Gep (base, idxs) -> Some (Kgep (vkey base, List.map vkey idxs))
  (* loads, stores, calls, allocas, phis, freezes are not unified *)
  | _ -> None

let run_func (f : Func.t) : Func.t =
  let cfg = Cfg.of_func f in
  let dom = Dominance.compute cfg in
  let block_of = Array.make (Cfg.size cfg) None in
  List.iter (fun (b : Block.t) -> block_of.(Cfg.index cfg b.label) <- Some b) f.blocks;
  let s = Subst.create () in
  (* the keys available in the current block: a block's own keys are
     removed again once its dominator subtree is walked *)
  let available : (key, Value.t) Hashtbl.t = Hashtbl.create 64 in
  let rec walk bi =
    let b = Option.get block_of.(bi) in
    let added =
      List.fold_left
        (fun added (i : Instr.t) ->
          if not (Instr.defines i && Instr.is_pure i) then added
          else
            match key_of (Instr.map_operands (Subst.resolve s) i) with
            | None -> added
            | Some k -> (
                match Hashtbl.find_opt available k with
                | Some v ->
                    ignore (Subst.add s i.id v);
                    added
                | None ->
                    Hashtbl.add available k (Value.Var i.id);
                    k :: added))
        [] b.instrs
    in
    List.iter walk dom.children.(bi);
    List.iter (Hashtbl.remove available) added
  in
  walk cfg.entry;
  (* the walk never enters a block the entry does not reach: drop those,
     and the phi incomings they feed *)
  Subst.apply s (Subst.drop_dead cfg ~live:(Dominance.reachable dom) f)

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
