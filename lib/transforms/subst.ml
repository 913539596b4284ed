(** SSA value replacement shared by the passes, and the dead-block rule. *)

open Yali_ir

type t = (int, Value.t) Hashtbl.t

let create () : t = Hashtbl.create 16

(* compresses the path it walks, so long load-of-store chains (mem2reg)
   resolve in amortised constant time *)
let rec resolve (s : t) (v : Value.t) : Value.t =
  match v with
  | Value.Var id -> (
      match Hashtbl.find_opt s id with
      | Some v' ->
          let r = resolve s v' in
          if r != v' then Hashtbl.replace s id r;
          r
      | None -> v)
  | _ -> v

let add (s : t) id (v : Value.t) : bool =
  let closes = function Value.Var r -> r = id | _ -> false in
  if Hashtbl.mem s id || closes (resolve s v) then false
  else (
    Hashtbl.replace s id v;
    true)

let apply (s : t) (f : Func.t) : Func.t =
  if Hashtbl.length s = 0 then f
  else
    let r = resolve s in
    Func.map_blocks
      (fun b ->
        {
          b with
          instrs =
            List.filter_map
              (fun (i : Instr.t) ->
                if Hashtbl.mem s i.id then None
                else Some (Instr.map_operands r i))
              b.instrs;
          term = Instr.map_terminator_operands r b.term;
        })
      f

let drop_dead (cfg : Cfg.t) ~(live : int -> bool) (f : Func.t) : Func.t =
  let live l = match Cfg.find cfg l with Some i -> live i | None -> false in
  let prune (i : Instr.t) =
    match i.kind with
    | Instr.Phi incoming -> (
        match List.filter (fun (_, l) -> live l) incoming with
        | [] -> None
        | incoming -> Some { i with kind = Instr.Phi incoming })
    | _ -> Some i
  in
  {
    f with
    blocks =
      List.filter_map
        (fun (b : Block.t) ->
          if not (live b.label) then None
          else Some { b with instrs = List.filter_map prune b.instrs })
        f.blocks;
  }
