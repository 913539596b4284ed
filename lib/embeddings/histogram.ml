(** The HISTOGRAM embedding (Silva et al.): a vector of {!Yali_ir.Opcode.count}
    positions counting instruction opcodes.  The paper's central finding is
    that this 63-dimensional bag of opcodes classifies algorithms as well as
    far more elaborate representations. *)

open Yali_ir

let dim = Opcode.count

let bump (h : float array) (op : Opcode.t) =
  let k = Opcode.index op in
  h.(k) <- h.(k) +. 1.0

let of_opcodes (ops : Opcode.t list) : float array =
  let h = Array.make dim 0.0 in
  List.iter (bump h) ops;
  h

(* [of_module] walks the blocks and instructions once and allocates
   nothing but the vector.  The buckets hold small integer counts, so the
   order of the additions cannot matter: the vector equals [of_opcodes] of
   the opcode list bit for bit. *)
let rec count_instrs h = function
  | [] -> ()
  | (i : Instr.t) :: rest ->
      bump h (Instr.opcode i);
      count_instrs h rest

let rec count_blocks h = function
  | [] -> ()
  | (b : Block.t) :: rest ->
      count_instrs h b.instrs;
      bump h (Instr.opcode_of_terminator b.term);
      count_blocks h rest

let rec count_funcs h = function
  | [] -> ()
  | (f : Func.t) :: rest ->
      count_blocks h f.blocks;
      count_funcs h rest

let of_module (m : Irmod.t) : float array =
  let h = Array.make dim 0.0 in
  count_funcs h m.funcs;
  h

(** L1-normalised variant: opcode proportions rather than counts. *)
let normalized_of_module (m : Irmod.t) : float array =
  let h = of_module m in
  let total = Array.fold_left ( +. ) 0.0 h in
  if total > 0.0 then Array.map (fun x -> x /. total) h else h

let euclidean (a : float array) (b : float array) : float =
  if Array.length a <> Array.length b then
    invalid_arg "Histogram.euclidean: dimension mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let d = x -. b.(i) in
      acc := !acc +. (d *. d))
    a;
  sqrt !acc
