(** Dead-code elimination: iteratively remove pure instructions whose results
    are never used. *)

open Yali_ir
module IH = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let used_ids (f : Func.t) : unit IH.t =
  let used = IH.create 64 in
  let add (v : Value.t) =
    match v with Value.Var id -> IH.replace used id () | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) -> List.iter add (Instr.operands i))
        b.instrs;
      List.iter add (Instr.terminator_operands b.term))
    f.blocks;
  used

let run_func (f : Func.t) : Func.t =
  let f = ref f in
  let progress = ref true in
  while !progress do
    progress := false;
    let used = used_ids !f in
    f :=
      Func.map_blocks
        (fun b ->
          {
            b with
            instrs =
              List.filter
                (fun (i : Instr.t) ->
                  let keep =
                    (not (Instr.defines i))
                    || (not (Instr.is_pure i))
                    || IH.mem used i.id
                  in
                  if not keep then progress := true;
                  keep)
                b.instrs;
          })
        !f
  done;
  !f

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
