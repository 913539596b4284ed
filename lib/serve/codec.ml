(** See codec.mli.  Layout, all little-endian:

    {v
    "YALI"  u16 version  u8 nsections
    per section: u8 tag  u32 length  payload
      tag 1: string table   u32 count, then per string u32 len + bytes
      tag 2: module body    encoded against the string table
    v}

    The encoder interns strings while serialising the body, then emits the
    table first; the decoder reads the table, then resolves indices while
    deserialising the body.  Every name is a u32 index, every enum a u8
    tag, every float an IEEE-754 bit pattern — the round trip is exact. *)

module Bin = Yali_util.Bin
module Ir = Yali_ir
module Instr = Ir.Instr
module Types = Ir.Types
module Value = Ir.Value

let magic = "YALI"
let version = 1

(* -- enum tags ------------------------------------------------------------- *)

let ibin_tags : Instr.ibin array =
  [|
    Add; Sub; Mul; SDiv; UDiv; SRem; URem; Shl; LShr; AShr; And; Or; Xor;
  |]

let fbin_tags : Instr.fbin array = [| FAdd; FSub; FMul; FDiv; FRem |]

let icmp_tags : Instr.icmp array =
  [| Eq; Ne; Slt; Sle; Sgt; Sge; Ult; Ule; Ugt; Uge |]

let fcmp_tags : Instr.fcmp array = [| Oeq; One; Olt; Ole; Ogt; Oge |]

let cast_tags : Instr.cast array =
  [|
    Trunc; ZExt; SExt; FPTrunc; FPExt; FPToUI; FPToSI; UIToFP; SIToFP;
    PtrToInt; IntToPtr; Bitcast;
  |]

let tag_of (tags : 'a array) (x : 'a) : int =
  let rec go i = if tags.(i) = x then i else go (i + 1) in
  go 0

let of_tag (what : string) (tags : 'a array) (r : Bin.r) : 'a =
  let t = Bin.r_u8 r in
  if t >= Array.length tags then
    Bin.fail r (Printf.sprintf "bad %s tag %d" what t);
  tags.(t)

(* -- types ----------------------------------------------------------------- *)

let rec w_type b (t : Types.t) =
  match t with
  | Void -> Bin.w_u8 b 0
  | I1 -> Bin.w_u8 b 1
  | I8 -> Bin.w_u8 b 2
  | I32 -> Bin.w_u8 b 3
  | I64 -> Bin.w_u8 b 4
  | F64 -> Bin.w_u8 b 5
  | Ptr t' ->
      Bin.w_u8 b 6;
      w_type b t'
  | Arr (t', n) ->
      Bin.w_u8 b 7;
      w_type b t';
      Bin.w_u32 b n

let rec r_type ?(depth = 0) r : Types.t =
  if depth > 64 then Bin.fail r "type nested deeper than 64";
  match Bin.r_u8 r with
  | 0 -> Void
  | 1 -> I1
  | 2 -> I8
  | 3 -> I32
  | 4 -> I64
  | 5 -> F64
  | 6 -> Ptr (r_type ~depth:(depth + 1) r)
  | 7 ->
      let t = r_type ~depth:(depth + 1) r in
      Arr (t, Bin.r_u32 r)
  | n -> Bin.fail r (Printf.sprintf "bad type tag %d" n)

(* -- the string table ------------------------------------------------------ *)

type interner = { tbl : (string, int) Hashtbl.t; mutable order : string list }

let intern (it : interner) (s : string) : int =
  match Hashtbl.find_opt it.tbl s with
  | Some ix -> ix
  | None ->
      let ix = Hashtbl.length it.tbl in
      Hashtbl.add it.tbl s ix;
      it.order <- s :: it.order;
      ix

let w_name it b s = Bin.w_u32 b (intern it s)

let r_name (strings : string array) r : string =
  let ix = Bin.r_u32 r in
  if ix >= Array.length strings then
    Bin.fail r (Printf.sprintf "string index %d out of %d" ix
                  (Array.length strings));
  strings.(ix)

(* -- values ---------------------------------------------------------------- *)

let w_value it b (v : Value.t) =
  match v with
  | Var id ->
      Bin.w_u8 b 0;
      Bin.w_int b id
  | IConst (ty, x) ->
      Bin.w_u8 b 1;
      w_type b ty;
      Bin.w_i64 b x
  | FConst x ->
      Bin.w_u8 b 2;
      Bin.w_f64 b x
  | Global g ->
      Bin.w_u8 b 3;
      w_name it b g
  | Undef ty ->
      Bin.w_u8 b 4;
      w_type b ty

let r_value strings r : Value.t =
  match Bin.r_u8 r with
  | 0 -> Var (Bin.r_int r)
  | 1 ->
      let ty = r_type r in
      IConst (ty, Bin.r_i64 r)
  | 2 -> FConst (Bin.r_f64 r)
  | 3 -> Global (r_name strings r)
  | 4 -> Undef (r_type r)
  | n -> Bin.fail r (Printf.sprintf "bad value tag %d" n)

(* -- instructions ---------------------------------------------------------- *)

let w_kind it b (k : Instr.kind) =
  let v = w_value it b in
  match k with
  | Ibin (op, a, c) ->
      Bin.w_u8 b 0;
      Bin.w_u8 b (tag_of ibin_tags op);
      v a;
      v c
  | Fbin (op, a, c) ->
      Bin.w_u8 b 1;
      Bin.w_u8 b (tag_of fbin_tags op);
      v a;
      v c
  | Fneg a ->
      Bin.w_u8 b 2;
      v a
  | Icmp (p, a, c) ->
      Bin.w_u8 b 3;
      Bin.w_u8 b (tag_of icmp_tags p);
      v a;
      v c
  | Fcmp (p, a, c) ->
      Bin.w_u8 b 4;
      Bin.w_u8 b (tag_of fcmp_tags p);
      v a;
      v c
  | Alloca ty ->
      Bin.w_u8 b 5;
      w_type b ty
  | Load a ->
      Bin.w_u8 b 6;
      v a
  | Store (a, p) ->
      Bin.w_u8 b 7;
      v a;
      v p
  | Gep (base, ixs) ->
      Bin.w_u8 b 8;
      v base;
      Bin.w_seq b (w_value it) ixs
  | Phi entries ->
      Bin.w_u8 b 9;
      Bin.w_seq b
        (fun b (value, pred) ->
          w_value it b value;
          w_name it b pred)
        entries
  | Select (c, a, d) ->
      Bin.w_u8 b 10;
      v c;
      v a;
      v d
  | Call (f, args) ->
      Bin.w_u8 b 11;
      w_name it b f;
      Bin.w_seq b (w_value it) args
  | Cast (op, a) ->
      Bin.w_u8 b 12;
      Bin.w_u8 b (tag_of cast_tags op);
      v a
  | Freeze a ->
      Bin.w_u8 b 13;
      v a

let r_kind strings r : Instr.kind =
  let v () = r_value strings r in
  match Bin.r_u8 r with
  | 0 ->
      let op = of_tag "ibin" ibin_tags r in
      let a = v () in
      Ibin (op, a, v ())
  | 1 ->
      let op = of_tag "fbin" fbin_tags r in
      let a = v () in
      Fbin (op, a, v ())
  | 2 -> Fneg (v ())
  | 3 ->
      let p = of_tag "icmp" icmp_tags r in
      let a = v () in
      Icmp (p, a, v ())
  | 4 ->
      let p = of_tag "fcmp" fcmp_tags r in
      let a = v () in
      Fcmp (p, a, v ())
  | 5 -> Alloca (r_type r)
  | 6 -> Load (v ())
  | 7 ->
      let a = v () in
      Store (a, v ())
  | 8 ->
      let base = v () in
      Gep (base, Bin.r_seq r (r_value strings))
  | 9 ->
      Phi
        (Bin.r_seq r (fun r ->
             let value = r_value strings r in
             (value, r_name strings r)))
  | 10 ->
      let c = v () in
      let a = v () in
      Select (c, a, v ())
  | 11 ->
      let f = r_name strings r in
      Call (f, Bin.r_seq r (r_value strings))
  | 12 ->
      let op = of_tag "cast" cast_tags r in
      Cast (op, v ())
  | 13 -> Freeze (v ())
  | n -> Bin.fail r (Printf.sprintf "bad instruction tag %d" n)

let w_instr it b (i : Instr.t) =
  Bin.w_int b i.id;
  w_type b i.ty;
  w_kind it b i.kind

let r_instr strings r : Instr.t =
  let id = Bin.r_int r in
  let ty = r_type r in
  { id; ty; kind = r_kind strings r }

let w_terminator it b (t : Instr.terminator) =
  match t with
  | Ret None -> Bin.w_u8 b 0
  | Ret (Some v) ->
      Bin.w_u8 b 1;
      w_value it b v
  | Br l ->
      Bin.w_u8 b 2;
      w_name it b l
  | CondBr (c, l1, l2) ->
      Bin.w_u8 b 3;
      w_value it b c;
      w_name it b l1;
      w_name it b l2
  | Switch (s, dflt, cases) ->
      Bin.w_u8 b 4;
      w_value it b s;
      w_name it b dflt;
      Bin.w_seq b
        (fun b (x, l) ->
          Bin.w_i64 b x;
          w_name it b l)
        cases
  | Unreachable -> Bin.w_u8 b 5

let r_terminator strings r : Instr.terminator =
  match Bin.r_u8 r with
  | 0 -> Ret None
  | 1 -> Ret (Some (r_value strings r))
  | 2 -> Br (r_name strings r)
  | 3 ->
      let c = r_value strings r in
      let l1 = r_name strings r in
      CondBr (c, l1, r_name strings r)
  | 4 ->
      let s = r_value strings r in
      let dflt = r_name strings r in
      Switch
        ( s,
          dflt,
          Bin.r_seq r (fun r ->
              let x = Bin.r_i64 r in
              (x, r_name strings r)) )
  | 5 -> Unreachable
  | n -> Bin.fail r (Printf.sprintf "bad terminator tag %d" n)

(* -- blocks, functions, globals, the module -------------------------------- *)

let w_block it b (blk : Ir.Block.t) =
  w_name it b blk.label;
  Bin.w_seq b (w_instr it) blk.instrs;
  w_terminator it b blk.term

let r_block strings r : Ir.Block.t =
  let label = r_name strings r in
  let instrs = Bin.r_seq r (r_instr strings) in
  { label; instrs; term = r_terminator strings r }

(* high-water marks travel explicitly: [Func.make] would re-derive them
   from the contents, losing headroom a pass had already minted — and the
   round trip must be structural identity, not just printed identity *)
let w_func it b (f : Ir.Func.t) =
  w_name it b f.name;
  Bin.w_seq b
    (fun b (id, ty) ->
      Bin.w_int b id;
      w_type b ty)
    f.params;
  w_type b f.ret;
  Bin.w_u32 b f.next_id;
  Bin.w_u32 b f.next_label;
  Bin.w_seq b (w_block it) f.blocks

let r_func strings r : Ir.Func.t =
  let name = r_name strings r in
  let params =
    Bin.r_seq r (fun r ->
        let id = Bin.r_int r in
        (id, r_type r))
  in
  let ret = r_type r in
  let next_id = Bin.r_u32 r in
  let next_label = Bin.r_u32 r in
  let blocks = Bin.r_seq r (r_block strings) in
  { name; params; ret; blocks; next_id; next_label }

let w_global it b (g : Ir.Irmod.global) =
  w_name it b g.gname;
  w_type b g.gty;
  Bin.w_arr b Bin.w_i64 g.ginit

let r_global strings r : Ir.Irmod.global =
  let gname = r_name strings r in
  let gty = r_type r in
  { gname; gty; ginit = Bin.r_arr r Bin.r_i64 }

let encode_module (m : Ir.Irmod.t) : string =
  let it = { tbl = Hashtbl.create 64; order = [] } in
  let body = Buffer.create 4096 in
  w_name it body m.mname;
  Bin.w_seq body (w_global it) m.globals;
  Bin.w_seq body (w_func it) m.funcs;
  let strtab = Buffer.create 1024 in
  let strings = List.rev it.order in
  Bin.w_u32 strtab (List.length strings);
  List.iter (Bin.w_str strtab) strings;
  let out = Buffer.create (Buffer.length body + Buffer.length strtab + 32) in
  Buffer.add_string out magic;
  Bin.w_u16 out version;
  Bin.w_u8 out 2;
  Bin.w_u8 out 1;
  Bin.w_u32 out (Buffer.length strtab);
  Buffer.add_buffer out strtab;
  Bin.w_u8 out 2;
  Bin.w_u32 out (Buffer.length body);
  Buffer.add_buffer out body;
  Buffer.contents out

let decode_module (blob : string) : Ir.Irmod.t =
  let r = Bin.reader blob in
  let m = Bin.r_raw r 4 in
  if m <> magic then Bin.fail r (Printf.sprintf "bad magic %S" m);
  let v = Bin.r_u16 r in
  if v <> version then
    Bin.fail r (Printf.sprintf "version skew: got %d, expected %d" v version);
  let nsections = Bin.r_u8 r in
  let sections =
    List.init nsections (fun _ ->
        let tag = Bin.r_u8 r in
        let payload = Bin.r_str r in
        (tag, payload))
  in
  Bin.expect_end r;
  let section tag what =
    match List.assoc_opt tag sections with
    | Some p -> Bin.reader p
    | None -> Bin.fail r (Printf.sprintf "missing %s section" what)
  in
  List.iter
    (fun (tag, _) ->
      if tag <> 1 && tag <> 2 then
        Bin.fail r (Printf.sprintf "unknown section tag %d" tag))
    sections;
  let st = section 1 "string-table" in
  let strings = Array.init (Bin.r_count st "string") (fun _ -> Bin.r_str st) in
  Bin.expect_end st;
  let body = section 2 "module" in
  let mname = r_name strings body in
  let globals = Bin.r_seq body (r_global strings) in
  let funcs = Bin.r_seq body (r_func strings) in
  Bin.expect_end body;
  { mname; globals; funcs }

let decode_result blob =
  match decode_module blob with
  | m -> Ok m
  | exception Bin.Corrupt msg -> Error msg

let write_file path m =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode_module m))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> decode_module (really_input_string ic (in_channel_length ic)))
