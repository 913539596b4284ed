(** See store.mli. *)

module Bin = Yali_util.Bin
module Codec = Yali_serve.Codec

let index_magic = "YCIX"
let shard_magic = "YSHD"
let version = 1
let shard_header_bytes = 4 + 2 + 2

let corrupt fmt = Printf.ksprintf (fun m -> raise (Bin.Corrupt m)) fmt

let index_file dir = Filename.concat dir "corpus.ycix"
let shard_file dir s = Filename.concat dir (Printf.sprintf "shard-%04d.yshd" s)
let features_file dir embedding =
  Filename.concat dir ("features-" ^ embedding ^ ".yfmb")

let remove_features dir =
  Array.iter
    (fun f ->
      if
        String.starts_with ~prefix:"features-" f
        && Filename.check_suffix f ".yfmb"
      then Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

type entry = { e_shard : int; e_off : int; e_len : int; e_label : int }

(* -- shard writer ------------------------------------------------------------ *)

module Shard = struct
  type t = {
    id : int;
    oc : out_channel;
    mutable entries : entry list;  (* reversed *)
    mutable count : int;
  }

  let create ~dir (id : int) : t =
    let oc = open_out_bin (shard_file dir id) in
    let b = Buffer.create shard_header_bytes in
    Buffer.add_string b shard_magic;
    Bin.w_u16 b version;
    Bin.w_u16 b id;
    output_string oc (Buffer.contents b);
    { id; oc; entries = []; count = 0 }

  let append (t : t) ~(label : int) (m : Yali_ir.Irmod.t) : unit =
    let blob = Codec.encode_module m in
    let payload = Buffer.create (2 + String.length blob) in
    Bin.w_u16 payload label;
    Buffer.add_string payload blob;
    let len = Buffer.length payload in
    let off = pos_out t.oc in
    let frame = Buffer.create 4 in
    Bin.w_u32 frame len;
    output_string t.oc (Buffer.contents frame);
    Buffer.output_buffer t.oc payload;
    t.entries <-
      { e_shard = t.id; e_off = off; e_len = len; e_label = label } :: t.entries;
    t.count <- t.count + 1

  let finish (t : t) : entry array * int =
    let bytes = pos_out t.oc in
    close_out t.oc;
    let arr = Array.make t.count { e_shard = 0; e_off = 0; e_len = 0; e_label = 0 } in
    List.iteri (fun k e -> arr.(t.count - 1 - k) <- e) t.entries;
    (arr, bytes)
end

(* -- index ------------------------------------------------------------------- *)

let write_index ~dir ~(meta : string) ~(n_classes : int)
    (shards : (entry array * int) array) : unit =
  let b = Buffer.create 4096 in
  Buffer.add_string b index_magic;
  Bin.w_u16 b version;
  Bin.w_str b meta;
  Bin.w_u32 b n_classes;
  Bin.w_u32 b (Array.length shards);
  Array.iter
    (fun (entries, bytes) ->
      Bin.w_u32 b (Array.length entries);
      Bin.w_int b bytes)
    shards;
  let n = Array.fold_left (fun a (es, _) -> a + Array.length es) 0 shards in
  Bin.w_u32 b n;
  Array.iter
    (fun (entries, _) ->
      Array.iter
        (fun e ->
          Bin.w_u16 b e.e_shard;
          Bin.w_int b e.e_off;
          Bin.w_u32 b e.e_len;
          Bin.w_u16 b e.e_label)
        entries)
    shards;
  let tmp = index_file dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b));
  Sys.rename tmp (index_file dir)

(* -- reader ------------------------------------------------------------------ *)

type reader = {
  dir : string;
  r_meta : string;
  r_classes : int;
  entries : entry array;
  shard_bytes : int array;
  chans : in_channel option array;  (* lazily opened, sequential use only *)
}

(* Validate one shard file against the index: existence, exact size, header. *)
let check_shard dir s ~(bytes : int) : unit =
  let path = shard_file dir s in
  let ic =
    try open_in_bin path
    with Sys_error _ -> corrupt "corpus shard %d missing (%s)" s path
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if len <> bytes then
        corrupt "corpus shard %d: %d bytes on disk, index says %d (truncated or stale)"
          s len bytes;
      if len < shard_header_bytes then
        corrupt "corpus shard %d truncated at %d bytes" s len;
      let r = Bin.reader (really_input_string ic shard_header_bytes) in
      let m = Bin.r_raw r 4 in
      if m <> shard_magic then corrupt "bad shard magic %S in shard %d" m s;
      let v = Bin.r_u16 r in
      if v <> version then
        corrupt "shard version skew: got %d, expected %d" v version;
      let id = Bin.r_u16 r in
      if id <> s then corrupt "shard file %d says it is shard %d" s id)

let open_ (dir : string) : reader =
  let r = Bin.reader (Yali_util.Fs.read_file (index_file dir)) in
  let m = Bin.r_raw r 4 in
  if m <> index_magic then corrupt "bad corpus index magic %S" m;
  let v = Bin.r_u16 r in
  if v <> version then
    corrupt "corpus index version skew: got %d, expected %d" v version;
  let meta = Bin.r_str r in
  let n_classes = Bin.r_u32 r in
  let n_shards = Bin.r_count r "shard" in
  let shard_counts = Array.make n_shards 0 in
  let shard_bytes = Array.make n_shards 0 in
  for s = 0 to n_shards - 1 do
    shard_counts.(s) <- Bin.r_u32 r;
    shard_bytes.(s) <- Bin.r_int r
  done;
  let n = Bin.r_count r "record" in
  if n <> Array.fold_left ( + ) 0 shard_counts then
    corrupt "corpus index: %d records but shard table sums to %d" n
      (Array.fold_left ( + ) 0 shard_counts);
  let entries =
    Array.init n (fun _ ->
        let e_shard = Bin.r_u16 r in
        let e_off = Bin.r_int r in
        let e_len = Bin.r_u32 r in
        let e_label = Bin.r_u16 r in
        { e_shard; e_off; e_len; e_label })
  in
  Bin.expect_end r;
  Array.iter
    (fun e ->
      if e.e_shard >= n_shards then
        corrupt "corpus index: record points at shard %d of %d" e.e_shard
          n_shards)
    entries;
  for s = 0 to n_shards - 1 do
    check_shard dir s ~bytes:shard_bytes.(s)
  done;
  {
    dir;
    r_meta = meta;
    r_classes = n_classes;
    entries;
    shard_bytes;
    chans = Array.make (max 1 n_shards) None;
  }

let close (r : reader) : unit =
  Array.iteri
    (fun i c ->
      Option.iter close_in_noerr c;
      r.chans.(i) <- None)
    r.chans

let meta r = r.r_meta
let n_classes r = r.r_classes
let length r = Array.length r.entries
let shard_count r = Array.length r.shard_bytes
let total_bytes r = Array.fold_left ( + ) 0 r.shard_bytes
let label r i = r.entries.(i).e_label
let labels r = Array.map (fun e -> e.e_label) r.entries

(* Read the record behind entry [e] through channel [ic], re-checking the
   frame against the index. *)
let read_entry (ic : in_channel) (e : entry) : int * Yali_ir.Irmod.t =
  seek_in ic e.e_off;
  let frame =
    try really_input_string ic 4
    with End_of_file -> corrupt "corpus shard %d truncated mid-frame" e.e_shard
  in
  let len = Bin.r_u32 (Bin.reader frame) in
  if len <> e.e_len then
    corrupt "corpus shard %d: frame of %d bytes where the index says %d"
      e.e_shard len e.e_len;
  let payload =
    try really_input_string ic e.e_len
    with End_of_file -> corrupt "corpus shard %d truncated mid-record" e.e_shard
  in
  let pr = Bin.reader payload in
  let lbl = Bin.r_u16 pr in
  if lbl <> e.e_label then
    corrupt "corpus shard %d: record label %d where the index says %d"
      e.e_shard lbl e.e_label;
  let m = Codec.decode_module (Bin.r_raw pr (String.length payload - 2)) in
  Bin.expect_end pr;
  (lbl, m)

let chan (r : reader) (s : int) : in_channel =
  match r.chans.(s) with
  | Some ic -> ic
  | None ->
      let ic = open_in_bin (shard_file r.dir s) in
      r.chans.(s) <- Some ic;
      ic

let get (r : reader) (i : int) : int * Yali_ir.Irmod.t =
  let e = r.entries.(i) in
  read_entry (chan r e.e_shard) e

let iter (r : reader) (f : int -> label:int -> Yali_ir.Irmod.t -> unit) : unit =
  Array.iteri
    (fun i e ->
      let lbl, m = read_entry (chan r e.e_shard) e in
      f i ~label:lbl m)
    r.entries

let fold_shard (r : reader) (s : int) ~(init : 'a)
    (f : 'a -> int -> label:int -> Yali_ir.Irmod.t -> 'a) : 'a =
  (* private channel: distinct shards may be folded on distinct domains *)
  let ic = open_in_bin (shard_file r.dir s) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let mine = ref [] in
      Array.iteri
        (fun i e -> if e.e_shard = s then mine := (i, e) :: !mine)
        r.entries;
      let mine =
        List.sort (fun (_, a) (_, b) -> compare a.e_off b.e_off) !mine
      in
      List.fold_left
        (fun acc (i, e) ->
          let lbl, m = read_entry ic e in
          f acc i ~label:lbl m)
        init mine)
