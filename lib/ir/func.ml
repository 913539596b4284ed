(** Functions: parameters, a return type, and an ordered list of basic
    blocks.  The first block is the entry block.  [next_id] is a high-water
    mark for SSA identifiers, letting passes mint fresh names; [next_label]
    plays the same role for block labels. *)

type t = {
  name : string;
  params : (int * Types.t) list;  (** SSA id and type of each parameter *)
  ret : Types.t;
  blocks : Block.t list;
  next_id : int;
  next_label : int;
}

let make ~name ~params ~ret ~blocks =
  let max_id =
    List.fold_left
      (fun acc (b : Block.t) ->
        List.fold_left
          (fun acc (i : Instr.t) -> max acc i.id)
          acc b.instrs)
      (List.fold_left (fun acc (id, _) -> max acc id) (-1) params)
      blocks
  in
  (* a label names a number when it parses as one with every [L] removed;
     one whose first non-[L] character is no digit or sign cannot *)
  let may_parse l =
    let n = String.length l in
    let rec first k = if k < n && l.[k] = 'L' then first (k + 1) else k in
    let k = first 0 in
    k < n && match l.[k] with '0' .. '9' | '-' | '+' -> true | _ -> false
  in
  let max_label =
    List.fold_left
      (fun acc (b : Block.t) ->
        if not (may_parse b.label) then acc
        else
          match
            int_of_string_opt
              (String.concat "" (String.split_on_char 'L' b.label))
          with
          | Some n -> max acc n
          | None -> acc)
      (-1) blocks
  in
  { name; params; ret; blocks; next_id = max_id + 1; next_label = max_label + 1 }

let entry (f : t) =
  match f.blocks with
  | [] -> invalid_arg ("Func.entry: function " ^ f.name ^ " has no blocks")
  | b :: _ -> b

let find_block (f : t) (label : string) : Block.t option =
  List.find_opt (fun (b : Block.t) -> b.label = label) f.blocks

let find_block_exn (f : t) (label : string) : Block.t =
  match find_block f label with
  | Some b -> b
  | None -> invalid_arg (Printf.sprintf "Func.find_block: %s has no block %s" f.name label)

(** Replace a block (matched by label) with a rebuilt version. *)
let update_block (f : t) (b : Block.t) : t =
  {
    f with
    blocks =
      List.map (fun (b' : Block.t) -> if b'.label = b.Block.label then b else b') f.blocks;
  }

let map_blocks (g : Block.t -> Block.t) (f : t) : t =
  { f with blocks = List.map g f.blocks }

(** Allocate [n] fresh SSA identifiers; returns the first one and the updated
    function. *)
let fresh_ids (f : t) (n : int) : int * t =
  (f.next_id, { f with next_id = f.next_id + n })

let fresh_label (f : t) (hint : string) : string * t =
  ( Printf.sprintf "%s.%d" hint f.next_label,
    { f with next_label = f.next_label + 1 } )

(** All instructions of the function, in block order. *)
let instrs (f : t) : Instr.t list =
  List.concat_map (fun (b : Block.t) -> b.Block.instrs) f.blocks

(** All opcodes executed by the function, terminators included. *)
let opcodes (f : t) : Opcode.t list =
  List.concat_map Block.opcodes f.blocks

let instr_count (f : t) =
  List.fold_left
    (fun acc (b : Block.t) -> acc + List.length b.instrs + 1)
    0 f.blocks

(** Map from SSA id to defining instruction. *)
let definitions (f : t) : (int, Instr.t) Hashtbl.t =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (b : Block.t) ->
      List.iter
        (fun (i : Instr.t) -> if Instr.defines i then Hashtbl.replace tbl i.id i)
        b.instrs)
    f.blocks;
  tbl

(** Rename every operand according to [f] throughout the function. *)
let map_values (g : Value.t -> Value.t) (f : t) : t =
  map_blocks
    (fun b ->
      {
        b with
        instrs = List.map (Instr.map_operands g) b.instrs;
        term = Instr.map_terminator_operands g b.term;
      })
    f
