(** See fblock.mli. *)

module Bin = Yali_util.Bin

let magic = "YFMB"
let version = 1
let header_bytes = 4 + 2 + 4 + 4
let default_block_rows = 8192

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bin.Corrupt m)) fmt

let encode_header ~n ~d : string =
  let b = Buffer.create header_bytes in
  Buffer.add_string b magic;
  Bin.w_u16 b version;
  Bin.w_u32 b n;
  Bin.w_u32 b d;
  Buffer.contents b

let decode_header (s : string) : int * int =
  let r = Bin.reader s in
  let m = Bin.r_raw r 4 in
  if m <> magic then corrupt "bad feature-file magic %S" m;
  let v = Bin.r_u16 r in
  if v <> version then
    corrupt "feature-file version skew: got %d, expected %d" v version;
  let n = Bin.r_u32 r in
  let d = Bin.r_u32 r in
  (n, d)

(* -- low-level row IO (bit patterns, LE — same as Bin.w_f64) ---------------- *)

let put_row (buf : Bytes.t) (off : int) (row : float array) : unit =
  Array.iteri
    (fun j v ->
      Bytes.set_int64_le buf (off + (8 * j)) (Int64.bits_of_float v))
    row

let row_offset ~d i = header_bytes + (8 * d * i)

(* -- writer ----------------------------------------------------------------- *)

(* [create_sized] + [Pwrite]: the file is pre-sized, then each task opens
   its own descriptor and writes only its own rows, so content is
   deterministic at any [jobs]. *)

let create_sized (path : string) ~(n : int) ~(d : int) : unit =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (encode_header ~n ~d);
      if n * d > 0 then begin
        seek_out oc (row_offset ~d n - 1);
        output_char oc '\000'
      end)

module Pwrite = struct
  type t = { fd : Unix.file_descr; d : int; buf : Bytes.t }

  let open_ (path : string) ~(d : int) : t =
    { fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644; d; buf = Bytes.create (8 * d) }

  let write_row (w : t) (i : int) (row : float array) : unit =
    if Array.length row <> w.d then
      invalid_arg "Fblock.Pwrite.write_row: width mismatch";
    ignore (Unix.lseek w.fd (row_offset ~d:w.d i) Unix.SEEK_SET);
    put_row w.buf 0 row;
    let k = Unix.write w.fd w.buf 0 (Bytes.length w.buf) in
    if k <> Bytes.length w.buf then failwith "Fblock: short write"

  let close (w : t) : unit = Unix.close w.fd
end

(* -- reader ----------------------------------------------------------------- *)

type reader = { path : string; n : int; d : int; ic : in_channel }

let open_reader (path : string) : reader =
  let ic = open_in_bin path in
  match
    let len = in_channel_length ic in
    if len < header_bytes then corrupt "feature file truncated at %d bytes" len;
    let n, d = decode_header (really_input_string ic header_bytes) in
    (* divide before multiplying: two u32 fields can overflow [8 * d * n] *)
    if d > 0 && n > (len - header_bytes) / (8 * d) then
      corrupt "feature file %dx%d overruns its %d bytes" n d len;
    let expected = row_offset ~d n in
    if len <> expected then
      corrupt "feature file %dx%d: %d bytes on disk, expected %d" n d len
        expected;
    { path; n; d; ic }
  with
  | r -> r
  | exception e ->
      close_in_noerr ic;
      raise e

let close_reader (r : reader) : unit = close_in_noerr r.ic

let read_block (r : reader) ~(lo : int) ~(rows : int) : Fmat.t =
  let m = Fmat.create rows r.d in
  seek_in r.ic (row_offset ~d:r.d lo);
  let bytes = 8 * r.d * rows in
  let buf = Bytes.create bytes in
  really_input r.ic buf 0 bytes;
  for k = 0 to (rows * r.d) - 1 do
    m.Fmat.data.(k) <- Int64.float_of_bits (Bytes.get_int64_le buf (8 * k))
  done;
  m

(* -- sources ---------------------------------------------------------------- *)

type source = Mem of Fmat.t | Disk of reader

let rows = function Mem m -> m.Fmat.n | Disk r -> r.n
let dim = function Mem m -> m.Fmat.d | Disk r -> r.d

(* The one place block layout is decided: an explicit [block_rows] wins; a
   [Mem] source is otherwise one block at any size (it is resident
   already), a [Disk] source [default_block_rows] per block. *)
let block_rows_of ?block_rows (src : source) : int =
  match (block_rows, src) with
  | Some b, _ ->
      if b < 1 then invalid_arg "Fblock: block_rows < 1";
      b
  | None, Mem m -> max 1 m.Fmat.n
  | None, Disk _ -> default_block_rows

(* rows [lo, lo + rows) as a fresh matrix: callees may scale it in place *)
let fresh_block (src : source) ~(lo : int) ~(rows : int) : Fmat.t =
  match src with
  | Disk r -> read_block r ~lo ~rows
  | Mem m ->
      let d = m.Fmat.d in
      let b = Fmat.create rows d in
      Array.blit m.Fmat.data (lo * d) b.Fmat.data 0 (rows * d);
      b

let block_sizes ?block_rows (src : source) : int array =
  let b = block_rows_of ?block_rows src and n = rows src in
  Array.init ((n + b - 1) / b) (fun k -> min b (n - (k * b)))

let n_blocks ?block_rows (src : source) : int =
  Array.length (block_sizes ?block_rows src)

let iter_blocks ?block_rows (src : source) (f : int -> Fmat.t -> unit) : unit =
  let lo = ref 0 in
  Array.iter
    (fun bn ->
      f !lo (fresh_block src ~lo:!lo ~rows:bn);
      lo := !lo + bn)
    (block_sizes ?block_rows src)

let prepared ?block_rows (src : source) (prepare : Fmat.t -> Fmat.t) :
    (int -> int -> Fmat.t -> unit) -> unit =
  if n_blocks ?block_rows src = 1 then begin
    let block = prepare (fresh_block src ~lo:0 ~rows:(rows src)) in
    fun f -> f 0 0 block
  end
  else fun f ->
    let k = ref 0 in
    iter_blocks ?block_rows src (fun lo b ->
        f !k lo (prepare b);
        incr k)

let materialize (src : source) : Fmat.t =
  match src with
  | Mem m -> m
  | Disk r -> if r.n = 0 then Fmat.create 0 r.d else read_block r ~lo:0 ~rows:r.n

let to_file (path : string) (m : Fmat.t) : unit =
  create_sized path ~n:m.Fmat.n ~d:m.Fmat.d;
  let w = Pwrite.open_ path ~d:m.Fmat.d in
  Fun.protect
    ~finally:(fun () -> Pwrite.close w)
    (fun () ->
      let row = Array.make m.Fmat.d 0.0 in
      for i = 0 to m.Fmat.n - 1 do
        Fmat.row_into m i row;
        Pwrite.write_row w i row
      done)
