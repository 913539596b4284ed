(** Basic blocks: a label, a straight-line list of instructions, and a single
    terminator. *)

type t = { label : string; instrs : Instr.t list; term : Instr.terminator }

let make ~label ~instrs ~term = { label; instrs; term }

(** Phi instructions of the block (always a prefix of the instruction list in
    a well-formed block). *)
let phis (b : t) =
  List.filter (fun (i : Instr.t) -> match i.kind with Phi _ -> true | _ -> false)
    b.instrs

let non_phis (b : t) =
  List.filter
    (fun (i : Instr.t) -> match i.kind with Phi _ -> false | _ -> true)
    b.instrs

let successors (b : t) = Instr.successors b.term

(** All opcodes executed by the block, including the terminator. *)
let opcodes (b : t) =
  List.map Instr.opcode b.instrs @ [ Instr.opcode_of_terminator b.term ]

(** Rewrite incoming-phi predecessor labels: wherever a phi lists [old_pred],
    relabel it to [new_pred].  Used by CFG surgery. *)
let retarget_phis ~(old_pred : string) ~(new_pred : string) (b : t) : t =
  let instrs =
    List.map
      (fun (i : Instr.t) ->
        match i.kind with
        | Phi incoming ->
            let incoming =
              List.map
                (fun (v, l) -> if l = old_pred then (v, new_pred) else (v, l))
                incoming
            in
            { i with kind = Phi incoming }
        | _ -> i)
      b.instrs
  in
  { b with instrs }
