(** See bin.mli.  All multi-byte quantities are little-endian. *)

exception Corrupt of string

type r = { src : string; mutable pos : int }

let reader src = { src; pos = 0 }
let pos r = r.pos
let remaining r = String.length r.src - r.pos

let fail r what =
  raise (Corrupt (Printf.sprintf "%s at byte %d of %d" what r.pos
                    (String.length r.src)))

let expect_end r =
  if remaining r <> 0 then
    fail r (Printf.sprintf "%d trailing bytes" (remaining r))

(* -- writers --------------------------------------------------------------- *)

let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
let w_u16 b v = Buffer.add_uint16_le b (v land 0xffff)

let w_u32 b v =
  if v < 0 || v > 0xffff_ffff then
    invalid_arg (Printf.sprintf "Bin.w_u32: %d out of range" v);
  Buffer.add_int32_le b (Int32.of_int v)

let w_i64 b v = Buffer.add_int64_le b v
let w_int b v = w_i64 b (Int64.of_int v)
let w_f64 b v = w_i64 b (Int64.bits_of_float v)

let w_str b s =
  w_u32 b (String.length s);
  Buffer.add_string b s

let w_seq b f xs =
  w_u32 b (List.length xs);
  List.iter (f b) xs

let w_arr b f xs =
  w_u32 b (Array.length xs);
  Array.iter (f b) xs

let w_floats b xs = w_arr b w_f64 xs
let w_ints b xs = w_arr b w_int xs

(* -- readers --------------------------------------------------------------- *)

let need r n what = if n < 0 || remaining r < n then fail r ("truncated " ^ what)

let r_u8 r =
  need r 1 "u8";
  let v = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_u16 r =
  need r 2 "u16";
  let v = String.get_uint16_le r.src r.pos in
  r.pos <- r.pos + 2;
  v

let r_u32 r =
  need r 4 "u32";
  let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xffff_ffff in
  r.pos <- r.pos + 4;
  v

let r_i64 r =
  need r 8 "i64";
  let v = String.get_int64_le r.src r.pos in
  r.pos <- r.pos + 8;
  v

(* a round trip of [w_int] always fits: the value came from an OCaml int *)
let r_int r = Int64.to_int (r_i64 r)

let r_f64 r = Int64.float_of_bits (r_i64 r)

let r_raw r n =
  need r n "bytes";
  let s = String.sub r.src r.pos n in
  r.pos <- r.pos + n;
  s

let r_str r =
  let n = r_u32 r in
  r_raw r n

let r_count r what =
  let n = r_u32 r in
  (* every element takes at least one byte, so a count beyond the remaining
     input is corrupt — this bounds allocation on hostile lengths *)
  if n > remaining r then fail r (Printf.sprintf "overlong %s count %d" what n);
  n

let r_seq r f = List.init (r_count r "seq") (fun _ -> f r)
let r_arr r f = Array.init (r_count r "array") (fun _ -> f r)
let r_floats r = r_arr r r_f64
let r_ints r = r_arr r r_int
