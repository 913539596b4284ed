(** Promotion of alloca slots to SSA registers ("mem2reg").

    The classic algorithm: find promotable allocas (all uses are direct loads
    and stores), place phi nodes on the iterated dominance frontier of the
    stores, then rename along a dominator-tree walk.  This is the pass the
    paper singles out (Section 4.3): the SSA conversion alone reverts the
    effect of most source-level obfuscations. *)

open Yali_ir
module ISet = Set.Make (Int)

(* An alloca is promotable when every use is a Load's pointer or a Store's
   pointer (not its value operand, not a gep base, not a call argument). *)
let promotable_allocas (f : Func.t) : (int * Types.t) list =
  let allocas = Hashtbl.create 16 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.kind with
          | Instr.Alloca ty -> (
              (* only scalar slots are promotable *)
              match ty with
              | Types.Arr _ -> ()
              | _ -> Hashtbl.replace allocas i.id ty)
          | _ -> ())
        b.instrs)
    f.blocks;
  let disqualify (v : Value.t) =
    match v with
    | Value.Var id -> Hashtbl.remove allocas id
    | _ -> ()
  in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) ->
          match i.kind with
          | Instr.Load _ -> ()
          | Instr.Store (v, _) -> disqualify v
          | _ -> List.iter disqualify (Instr.operands i))
        b.instrs;
      List.iter disqualify (Instr.terminator_operands b.term))
    f.blocks;
  Hashtbl.fold (fun id ty acc -> (id, ty) :: acc) allocas []

let run_func (f : Func.t) : Func.t =
  (* dead blocks go first; the live ones keep their numbers and their
     dominance, so the CFG and tree built before serve the whole pass *)
  let cfg = Cfg.of_func f in
  let dom = Dominance.compute cfg in
  let f = Subst.drop_dead cfg ~live:(Dominance.reachable dom) f in
  let promo = promotable_allocas f in
  if promo = [] then f
  else
    let promo_set = ISet.of_list (List.map fst promo) in
    let ty_of = Hashtbl.create 16 in
    List.iter (fun (id, ty) -> Hashtbl.replace ty_of id ty) promo;
    let frontier = Dominance.frontiers cfg dom in
    let by_label a b = compare (Cfg.label cfg a) (Cfg.label cfg b) in
    (* blocks containing a store to each alloca *)
    let def_blocks : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (b : Block.t) ->
        List.iter
          (fun (i : Instr.t) ->
            match i.kind with
            | Instr.Store (_, Value.Var a) when ISet.mem a promo_set ->
                let cur = Option.value (Hashtbl.find_opt def_blocks a) ~default:[] in
                Hashtbl.replace def_blocks a (Cfg.index cfg b.label :: cur)
            | _ -> ())
          b.instrs)
      f.blocks;
    (* phi placement on the iterated dominance frontier *)
    let next_id = ref f.next_id in
    let fresh () =
      let id = !next_id in
      incr next_id;
      id
    in
    (* (block, phi id) -> alloca it stands for; plus per-block list *)
    let phi_for : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
    let phis_of_block = Array.make (Cfg.size cfg) [] in
    List.iter
      (fun (a, _ty) ->
        let placed = Array.make (Cfg.size cfg) false in
        let work = Queue.create () in
        (* def blocks in label order *)
        List.iter
          (fun l -> Queue.add l work)
          (List.sort_uniq by_label
             (Option.value (Hashtbl.find_opt def_blocks a) ~default:[]));
        while not (Queue.is_empty work) do
          let l = Queue.pop work in
          List.iter
            (fun df ->
              if not placed.(df) then (
                placed.(df) <- true;
                let id = fresh () in
                Hashtbl.replace phi_for (df, id) a;
                phis_of_block.(df) <- id :: phis_of_block.(df);
                (* the phi is itself a def *)
                Queue.add df work))
            frontier.(l)
        done)
      promo;
    (* rename along the dominator tree *)
    let sub = Subst.create () in
    let block_of = Array.make (Cfg.size cfg) None in
    List.iter (fun (b : Block.t) -> block_of.(Cfg.index cfg b.label) <- Some b) f.blocks;
    let renamed = Array.copy block_of in
    (* phi incoming accumulators: (block, phi id) -> (value, pred) list *)
    let phi_incoming : (int * int, (Value.t * string) list ref) Hashtbl.t =
      Hashtbl.create 32
    in
    Hashtbl.iter
      (fun key _ -> Hashtbl.replace phi_incoming key (ref []))
      phi_for;
    let rec walk (bi : int) (env : (int * Value.t) list) =
      let b = Option.get block_of.(bi) in
      let env = ref env in
      let lookup a =
        match List.assoc_opt a !env with
        | Some v -> v
        | None -> Value.Undef (Hashtbl.find ty_of a)
      in
      (* new phis of this block first *)
      let own_phis =
        List.rev_map
          (fun id ->
            let a = Hashtbl.find phi_for (bi, id) in
            env := (a, Value.Var id) :: !env;
            (id, a))
          phis_of_block.(bi)
      in
      let kept =
        List.filter_map
          (fun (i : Instr.t) ->
            match i.kind with
            | Instr.Alloca _ when ISet.mem i.id promo_set -> None
            | Instr.Store (v, Value.Var a) when ISet.mem a promo_set ->
                env := (a, v) :: !env;
                None
            | Instr.Load (Value.Var a) when ISet.mem a promo_set ->
                ignore (Subst.add sub i.id (lookup a));
                None
            | _ -> Some i)
          b.instrs
      in
      let phi_instrs =
        List.map
          (fun (id, a) ->
            Instr.mk ~id ~ty:(Hashtbl.find ty_of a) (Instr.Phi []))
          (List.rev own_phis)
      in
      renamed.(bi) <- Some { b with instrs = phi_instrs @ kept };
      (* feed successors' phis (dedupe: several edges may share a target) *)
      List.iter
        (fun s ->
          List.iter
            (fun id ->
              let a = Hashtbl.find phi_for (s, id) in
              let acc = Hashtbl.find phi_incoming (s, id) in
              if not (List.exists (fun (_, l) -> l = b.label) !acc) then
                acc := (lookup a, b.label) :: !acc)
            phis_of_block.(s))
        (List.sort_uniq compare cfg.succ.(bi));
      (* recurse into dominated blocks, in descending label order *)
      List.iter
        (fun c -> walk c !env)
        (List.sort (fun x y -> by_label y x) dom.children.(bi))
    in
    walk cfg.entry [];
    (* assemble, filling phi incoming lists, then resolve every use *)
    let blocks =
      List.map
        (fun (b : Block.t) ->
          let bi = Cfg.index cfg b.label in
          let b = Option.get renamed.(bi) in
          let fill (i : Instr.t) =
            match i.kind with
            | Instr.Phi [] when Hashtbl.mem phi_for (bi, i.id) ->
                let incoming = !(Hashtbl.find phi_incoming (bi, i.id)) in
                { i with kind = Instr.Phi incoming }
            | _ -> i
          in
          { b with instrs = List.map fill b.instrs })
        f.blocks
    in
    Subst.apply sub { f with blocks; next_id = !next_id }

let run : Irmod.t -> Irmod.t = Irmod.map_funcs run_func
