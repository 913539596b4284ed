(** Structural well-formedness checks for functions and modules.  Any
    transform that breaks block structure, SSA dominance of definitions
    over uses (at block granularity), or phi-node/predecessor agreement is
    caught here.  The adaptive search runs it after every pass it applies,
    and translation validation after every stage, so it works on {!Cfg}
    block numbers and keeps its SSA-id bookkeeping in arrays. *)

module SSet = Set.Make (String)

type error = { where : string; what : string }

let pp_error fmt e = Fmt.pf fmt "[%s] %s" e.where e.what

(* Dense slots for the SSA ids a function defines (parameters included):
   [id - lo] when the ids span a range not much wider than their count,
   else a table (hand-written IR may use any ids).  -1 for any other id. *)
let slots (f : Func.t) : int * (int -> int) =
  let ids =
    List.fold_left
      (fun acc (b : Block.t) ->
        List.fold_left
          (fun acc (i : Instr.t) -> if Instr.defines i then i.id :: acc else acc)
          acc b.instrs)
      (List.map fst f.params) f.blocks
  in
  let lo = List.fold_left min max_int ids and hi = List.fold_left max min_int ids in
  let n = List.length ids in
  if n = 0 then (0, fun _ -> -1)
  else if hi - lo < (4 * n) + 64 then
    (hi - lo + 1, fun id -> if id >= lo && id <= hi then id - lo else -1)
  else
    let tbl = Hashtbl.create n in
    List.iter (fun id -> if not (Hashtbl.mem tbl id) then Hashtbl.add tbl id (Hashtbl.length tbl)) ids;
    (Hashtbl.length tbl, fun id -> Option.value (Hashtbl.find_opt tbl id) ~default:(-1))

let check_blocks ~known_funcs (f : Func.t) : error list =
  let errs = ref [] in
  let err where fmt_str =
    Printf.ksprintf (fun what -> errs := { where; what } :: !errs) fmt_str
  in
  let g = Cfg.of_func f in
  if List.length f.blocks <> g.n_blocks then err f.name "duplicate block labels";
  (* 1. all branch targets exist *)
  if Cfg.size g > g.n_blocks then
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun s ->
            if Cfg.index g s >= g.n_blocks then
              err b.label "branch to unknown block %s" s)
          (Block.successors b))
      f.blocks;
  (* 1b. nothing branches to the entry block (LLVM's rule): dominance
     frontiers take the entry to have no predecessors *)
  List.iter
    (fun p ->
      err (Cfg.label g p) "branch to the entry block %s" (Cfg.label g g.entry))
    (List.sort_uniq compare g.pred.(g.entry));
  (* 2. definitions are unique; [def_block] keeps each id's first defining
     block *)
  let n, slot = slots f in
  let is_param = Array.make n false and def_block = Array.make n (-1) in
  List.iter (fun (id, _) -> is_param.(slot id) <- true) f.params;
  let ix = List.map (fun (b : Block.t) -> (b, Cfg.index g b.label)) f.blocks in
  List.iter
    (fun ((b : Block.t), bi) ->
      List.iter
        (fun (i : Instr.t) ->
          if Instr.defines i then
            let s = slot i.id in
            if is_param.(s) || def_block.(s) >= 0 then
              err b.label "SSA id %%%d defined twice" i.id
            else def_block.(s) <- bi)
        b.instrs)
    ix;
  (* 3. every used variable is defined somewhere *)
  let check_val (b : Block.t) (v : Value.t) =
    match v with
    | Value.Var id ->
        let s = slot id in
        if s < 0 || not (is_param.(s) || def_block.(s) >= 0) then
          err b.label "use of undefined value %%%d" id
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) -> List.iter (check_val b) (Instr.operands i))
        b.instrs;
      List.iter (check_val b) (Instr.terminator_operands b.term))
    f.blocks;
  (* 3b. definitions dominate their uses.  Params count as entry
     definitions; within a block the definition must come first; a phi use
     only needs to be dominated at the incoming edge.  Restricted to
     reachable blocks — dominance is meaningless off the entry tree. *)
  let dom = Dominance.compute g in
  (* [seen.(s) = k]: defined earlier in the [k]th block *)
  let seen = Array.make n (-1) in
  let def_dominates v at =
    match v with
    | Value.Var id ->
        let s = slot id in
        s < 0 || is_param.(s) || def_block.(s) < 0
        || Dominance.dominates dom def_block.(s) at
    | _ -> true
  in
  List.iteri
    (fun k ((b : Block.t), bi) ->
      if Dominance.reachable dom bi then begin
        let dominated v =
          match v with
          | Value.Var id ->
              let s = slot id in
              if s >= 0 && def_block.(s) = bi && not is_param.(s) then seen.(s) = k
              else def_dominates v bi
          | _ -> true
        in
        List.iter
          (fun (i : Instr.t) ->
            (match i.kind with
            | Instr.Phi incoming ->
                List.iter
                  (fun (v, src) ->
                    match Cfg.find g src with
                    | Some si when Dominance.reachable dom si && not (def_dominates v si) ->
                        err b.label
                          "phi %%%d: incoming %s from %s is not dominated by \
                           its definition"
                          i.id (Value.to_string v) src
                    | _ -> ())
                  incoming
            | _ ->
                List.iter
                  (fun v ->
                    if not (dominated v) then
                      err b.label
                        "use of %s is not dominated by its definition"
                        (Value.to_string v))
                  (Instr.operands i));
            if Instr.defines i then seen.(slot i.id) <- k)
          b.instrs;
        List.iter
          (fun v ->
            if not (dominated v) then
              err b.label
                "terminator use of %s is not dominated by its definition"
                (Value.to_string v))
          (Instr.terminator_operands b.term)
      end)
    ix;
  (* 4. phis agree with predecessors, and appear only as a block prefix *)
  List.iter
    (fun ((b : Block.t), bi) ->
      let preds =
        lazy (List.sort_uniq compare (List.map (Cfg.label g) g.pred.(bi)))
      in
      let seen_non_phi = ref false in
      List.iter
        (fun (i : Instr.t) ->
          match i.kind with
          | Instr.Phi incoming ->
              if !seen_non_phi then
                err b.label "phi %%%d after non-phi instruction" i.id;
              let sources = List.map snd incoming in
              let ssources = List.sort_uniq compare sources in
              if List.compare_lengths sources ssources <> 0 then
                err b.label "phi %%%d has duplicate incoming labels" i.id;
              let preds = Lazy.force preds in
              if preds <> [] && ssources <> preds then
                err b.label
                  "phi %%%d incoming labels {%s} do not match predecessors {%s}"
                  i.id
                  (String.concat "," sources)
                  (String.concat "," preds)
          | _ -> seen_non_phi := true)
        b.instrs)
    ix;
  (* 5. known callees (when a module context is available) *)
  if not (SSet.is_empty known_funcs) then
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.kind with
            | Instr.Call (callee, _) ->
                if not (SSet.mem callee known_funcs) then
                  err b.label "call to unknown function @%s" callee
            | _ -> ())
          b.instrs)
      f.blocks;
  List.rev !errs

let check_func ?(known_funcs = SSet.empty) (f : Func.t) : error list =
  if f.blocks = [] then [ { where = f.name; what = "function has no blocks" } ]
  else check_blocks ~known_funcs f

(** Names treated as runtime intrinsics by the interpreter. *)
let intrinsics =
  [ "read_int"; "print_int"; "read_float"; "print_float"; "abs"; "min"; "max" ]

let check_module (m : Irmod.t) : error list =
  let known =
    List.fold_left
      (fun acc (f : Func.t) -> SSet.add f.Func.name acc)
      (SSet.of_list intrinsics) m.funcs
  in
  List.concat_map (check_func ~known_funcs:known) m.funcs

(** Raise [Invalid_argument] with a report when the module is ill-formed. *)
let assert_ok (m : Irmod.t) : unit =
  match check_module m with
  | [] -> ()
  | errs ->
      let msg =
        Fmt.str "IR verification failed for %s:@.%a" m.mname
          (Fmt.list ~sep:Fmt.cut pp_error)
          errs
      in
      invalid_arg msg
