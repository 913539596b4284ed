(** Basic blocks: a label, a straight-line list of instructions, and a single
    terminator. *)

type t = { label : string; instrs : Instr.t list; term : Instr.terminator }

let make ~label ~instrs ~term = { label; instrs; term }

(** Phi instructions of the block (always a prefix of the instruction list in
    a well-formed block). *)
let phis (b : t) = List.filter Instr.is_phi b.instrs
let non_phis (b : t) = List.filter (fun i -> not (Instr.is_phi i)) b.instrs

(** [true] when any instruction is a phi, wherever it stands. *)
let has_phi (b : t) = List.exists Instr.is_phi b.instrs

let successors (b : t) = Instr.successors b.term

(** All opcodes executed by the block, including the terminator. *)
let opcodes (b : t) =
  List.map Instr.opcode b.instrs @ [ Instr.opcode_of_terminator b.term ]

(** Rewrite incoming-phi predecessor labels: every phi entry from [l] comes
    from [f l] instead.  A block without phis is returned as it is.  Used by
    CFG surgery. *)
let retarget_phis ~(f : string -> string) (b : t) : t =
  if not (has_phi b) then b
  else
    let retarget ((v, l) as inc) =
      let l' = f l in
      if l' == l then inc else (v, l')
    in
    let instrs =
      List.map
        (fun (i : Instr.t) ->
          match i.kind with
          | Phi incoming -> { i with kind = Phi (List.map retarget incoming) }
          | _ -> i)
        b.instrs
    in
    { b with instrs }
