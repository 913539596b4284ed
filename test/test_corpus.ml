(** Tests for the streaming corpus layer (lib/corpus): sharded store
    round-trips against the in-memory reference path, corruption rejection
    (truncated shards, stale indexes), the on-disk feature-file format,
    one trainer's equivalence across on-disk and in-memory sources, every
    trainer's pinned output across blocks (DESIGN.md §12), output
    directories created with their parents, and files read to their end
    when they have no length. *)

module Rng = Yali.Rng
module Gen = Yali.Corpus.Gen
module Store = Yali.Corpus.Store
module Embed = Yali.Corpus.Embed
module Ctrain = Yali.Corpus.Train
module Fmat = Yali.Ml.Fmat
module Fblock = Yali.Ml.Fblock
module Logreg = Yali.Ml.Logreg
module Model = Yali.Ml.Model
module Embedding = Yali.Embeddings.Embedding

let with_temp_dir f = Yali.Util.Fs.with_temp_dir "corpus-test" f

let small_spec seed =
  { Gen.dataset = "poj"; seed; n_classes = 4; per_class = 3 }

(* -- spec strings ----------------------------------------------------------- *)

let test_spec_string_roundtrip () =
  List.iter
    (fun spec ->
      let s = Gen.spec_to_string spec in
      match Gen.spec_of_string s with
      | Ok spec' ->
          Alcotest.(check bool) (s ^ " round-trips") true (spec = spec')
      | Error e -> Alcotest.failf "%s did not parse back: %s" s e)
    [
      small_spec 1;
      { Gen.dataset = "genprog2"; seed = 7; n_classes = 16; per_class = 2 };
      { Gen.dataset = "poj"; seed = 0; n_classes = 104; per_class = 500 };
    ];
  List.iter
    (fun s ->
      match Gen.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed as a corpus spec" s)
    [ ""; "poj"; "poj:seed=1:classes=2"; "poj:seed=x:classes=2:per=3" ]

(* -- store round-trip -------------------------------------------------------- *)

(* Sharded write -> reopen -> stream reads must equal the in-memory list:
   same modules structurally, same labels, same order. *)
let test_store_roundtrip () =
  List.iter
    (fun seed ->
      with_temp_dir (fun dir ->
          let spec = small_spec seed in
          Gen.generate ~dir ~records_per_shard:5 spec;
          let reference = Gen.materialize spec in
          let r = Store.open_ dir in
          Fun.protect
            ~finally:(fun () -> Store.close r)
            (fun () ->
              Alcotest.(check int) "record count" (Array.length reference)
                (Store.length r);
              Alcotest.(check string) "meta string" (Gen.spec_to_string spec)
                (Store.meta r);
              Alcotest.(check int) "class count" spec.Gen.n_classes
                (Store.n_classes r);
              Alcotest.(check bool) "more than one shard" true
                (Store.shard_count r > 1);
              let seen = ref 0 in
              Store.iter r (fun i ~label m ->
                  incr seen;
                  let m_ref, l_ref = reference.(i) in
                  Alcotest.(check int)
                    (Printf.sprintf "label of record %d" i)
                    l_ref label;
                  Alcotest.(check bool)
                    (Printf.sprintf "module %d structurally equal" i)
                    true
                    (Stdlib.compare m m_ref = 0));
              Alcotest.(check int) "iter visits every record"
                (Array.length reference) !seen)))
    [ 1; 2; 42 ]

(* Shard-parallel generation is scheduling-independent: the bytes on disk
   at --jobs 1 and --jobs 4 are identical, index included. *)
let test_generation_jobs_invariant () =
  let read_all dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.map (fun f ->
           let ic = open_in_bin (Filename.concat dir f) in
           Fun.protect
             ~finally:(fun () -> close_in_noerr ic)
             (fun () -> (f, really_input_string ic (in_channel_length ic))))
  in
  let spec = small_spec 3 in
  with_temp_dir (fun d1 ->
      with_temp_dir (fun d2 ->
          Yali.Exec.Pool.with_jobs 1 (fun () ->
              Gen.generate ~dir:d1 ~records_per_shard:4 spec);
          Yali.Exec.Pool.with_jobs 4 (fun () ->
              Gen.generate ~dir:d2 ~records_per_shard:4 spec);
          Alcotest.(check bool) "same files, same bytes" true
            (read_all d1 = read_all d2)))

(* -- corruption rejection ---------------------------------------------------- *)

let expect_corrupt name dir =
  match Store.open_ dir with
  | exception Yali.Util.Bin.Corrupt _ -> ()
  | exception e ->
      Alcotest.failf "%s: expected Corrupt, got %s" name (Printexc.to_string e)
  | r ->
      Store.close r;
      Alcotest.failf "%s: reader accepted a corrupt corpus" name

let clip path bytes =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = really_input_string ic (len - bytes) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc keep;
  close_out oc

let test_rejects_truncated_shard () =
  with_temp_dir (fun dir ->
      Gen.generate ~dir ~records_per_shard:5 (small_spec 1);
      clip (Store.shard_file dir 0) 7;
      expect_corrupt "truncated shard" dir)

let test_rejects_stale_index () =
  with_temp_dir (fun dir ->
      (* generate, then regenerate a *different* corpus but keep the first
         index: every index points at shards it does not describe *)
      Gen.generate ~dir ~records_per_shard:5 (small_spec 1);
      let stale = Store.index_file dir ^ ".stale" in
      Sys.rename (Store.index_file dir) stale;
      Gen.generate ~dir ~records_per_shard:5
        { (small_spec 1) with Gen.per_class = 5 };
      Sys.rename stale (Store.index_file dir);
      expect_corrupt "stale index" dir)

let test_rejects_missing_shard () =
  with_temp_dir (fun dir ->
      Gen.generate ~dir ~records_per_shard:5 (small_spec 2);
      Sys.remove (Store.shard_file dir 1);
      expect_corrupt "missing shard" dir)

let test_rejects_bad_index_magic () =
  with_temp_dir (fun dir ->
      Gen.generate ~dir ~records_per_shard:5 (small_spec 2);
      let path = Store.index_file dir in
      let ic = open_in_bin path in
      let blob = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let bad = Bytes.of_string blob in
      Bytes.set bad 0 'X';
      let oc = open_out_bin path in
      output_bytes oc bad;
      close_out oc;
      expect_corrupt "bad index magic" dir)

(* Counts are bounded by the bytes left before anything is allocated: a
   hostile index asking for 2^32 shards or records must be rejected, not
   sized. *)
let test_rejects_hostile_index_counts () =
  let module Bin = Yali.Util.Bin in
  let index ~n_shards ~shards ~n =
    let b = Buffer.create 64 in
    Buffer.add_string b Store.index_magic;
    Bin.w_u16 b Store.version;
    Bin.w_str b "";
    Bin.w_u32 b 4;
    Bin.w_u32 b n_shards;
    List.iter
      (fun count ->
        Bin.w_u32 b count;
        Bin.w_int b 0)
      shards;
    Bin.w_u32 b n;
    Buffer.contents b
  in
  List.iter
    (fun (name, blob) ->
      with_temp_dir (fun dir ->
          let oc = open_out_bin (Store.index_file dir) in
          output_string oc blob;
          close_out oc;
          expect_corrupt name dir))
    [
      ("2^32-1 shards", index ~n_shards:0xFFFF_FFFF ~shards:[] ~n:0);
      ( "one shard of 2^32-1 records",
        index ~n_shards:1 ~shards:[ 0xFFFF_FFFF ] ~n:0xFFFF_FFFF );
    ]

(* -- feature files ----------------------------------------------------------- *)

let test_fblock_roundtrip_bitexact () =
  with_temp_dir (fun dir ->
      let x =
        Fmat.of_rows
          (Array.init 17 (fun i ->
               Array.init 9 (fun j ->
                   (float_of_int (((i * 31) + (j * 17)) mod 23) /. 7.0) -. 1.5)))
      in
      let path = Filename.concat dir "m.yfmb" in
      Fblock.to_file path x;
      let fr = Fblock.open_reader path in
      Fun.protect
        ~finally:(fun () -> Fblock.close_reader fr)
        (fun () ->
          let back = Fblock.materialize (Fblock.Disk fr) in
          Alcotest.(check bool) "doubles round-trip bit-exactly" true
            (back.Fmat.data = x.Fmat.data));
      clip path 3;
      match Fblock.open_reader path with
      | exception Yali.Util.Bin.Corrupt _ -> ()
      | fr ->
          Fblock.close_reader fr;
          Alcotest.fail "truncated feature file accepted")

(* A header whose rows x cols x 8 wraps to 0 in a 63-bit int must not pass
   the exact-length check of a 14-byte file. *)
let test_fblock_rejects_overflowing_header () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "big.yfmb" in
      let b = Buffer.create 14 in
      Buffer.add_string b Fblock.magic;
      Yali.Util.Bin.w_u16 b Fblock.version;
      Yali.Util.Bin.w_u32 b (1 lsl 31);
      Yali.Util.Bin.w_u32 b (1 lsl 31);
      let oc = open_out_bin path in
      Buffer.output_buffer oc b;
      close_out oc;
      match Fblock.open_reader path with
      | exception Yali.Util.Bin.Corrupt _ -> ()
      | fr ->
          let rows = Fblock.rows (Fblock.Disk fr) in
          Fblock.close_reader fr;
          Alcotest.failf "2^31 x 2^31 feature file accepted with %d rows" rows)

(* -- out-of-core training ----------------------------------------------------- *)

(* One epoch, one trainer, two one-block sources: logreg streamed from the
   feature file must reproduce the weights it fits in memory, bit for
   bit. *)
let test_stream_logreg_one_epoch () =
  with_temp_dir (fun dir ->
      let spec = small_spec 42 in
      Gen.generate ~dir ~records_per_shard:5 spec;
      let r = Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Store.close r)
        (fun () ->
          let embedding = Embedding.histogram in
          let x, ys = Embed.to_fmat ~embedding r in
          let path = Filename.concat dir "features.yfmb" in
          let d = Embed.to_file ~embedding r ~out:path in
          Alcotest.(check int) "embed dims agree" x.Fmat.d d;
          let fr = Fblock.open_reader path in
          Fun.protect
            ~finally:(fun () -> Fblock.close_reader fr)
            (fun () ->
              let params = { Logreg.default_params with epochs = 1 } in
              let inmem =
                Logreg.train ~params (Rng.make 7)
                  ~n_classes:spec.Gen.n_classes (Fblock.Mem x) ys
              in
              let streamed =
                Logreg.train ~params ~block_rows:x.Fmat.n (Rng.make 7)
                  ~n_classes:spec.Gen.n_classes (Fblock.Disk fr) ys
              in
              let wa = (Logreg.weights inmem).Fmat.data in
              let wb = (Logreg.weights streamed).Fmat.data in
              Alcotest.(check int) "same weight count" (Array.length wa)
                (Array.length wb);
              Array.iteri
                (fun i a ->
                  if Int64.bits_of_float a <> Int64.bits_of_float wb.(i) then
                    Alcotest.failf "weight %d drifted: %.17g vs %.17g" i a
                      wb.(i))
                wa)))

(* A [Mem] source given no [block_rows] is one block at any size, even past
   [Fblock.default_block_rows]: the trainer then sees exactly what an
   explicit one-block layout gives it. *)
let test_mem_source_is_one_block () =
  let n = Fblock.default_block_rows + 1 and d = 3 in
  let rng = Rng.make 5 in
  let x = Fmat.init n d (fun i j -> float_of_int ((i * (j + 3)) mod 17)) in
  let ys = Array.init n (fun _ -> Rng.int rng 2) in
  let src = Fblock.Mem x in
  Alcotest.(check int) "one block" 1 (Fblock.n_blocks src);
  let params = { Logreg.default_params with epochs = 1 } in
  let fit ?block_rows () =
    Logreg.weights
      (Logreg.train ~params ?block_rows (Rng.make 2) ~n_classes:2 src ys)
  in
  Alcotest.(check bool) "no block_rows = ~block_rows:n" true
    ((fit ()).Fmat.data = (fit ~block_rows:n ()).Fmat.data)

(* Multi-block streaming is a different (still deterministic) SGD order; it
   must stay deterministic and classify the easy synthetic corpus well. *)
let test_stream_multiblock_deterministic () =
  with_temp_dir (fun dir ->
      let spec = small_spec 11 in
      Gen.generate ~dir ~records_per_shard:3 spec;
      let r = Store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Store.close r)
        (fun () ->
          let embedding = Embedding.histogram in
          let path = Filename.concat dir "features.yfmb" in
          ignore (Embed.to_file ~embedding r ~out:path);
          let ys = Store.labels r in
          let train () =
            let fr = Fblock.open_reader path in
            Fun.protect
              ~finally:(fun () -> Fblock.close_reader fr)
              (fun () ->
                Option.get
                  (Model.train_snapshot ~block_rows:4 "lr" (Rng.make 3)
                     ~n_classes:spec.Gen.n_classes (Fblock.Disk fr) ys))
          in
          Alcotest.(check bool) "two runs, same blob" true
            (Model.save (train ()) = Model.save (train ()))))

(* What every trainer writes, pinned: a seeded 48 x 63 feature matrix,
   trained from disk in three blocks of 16 rows and from memory in one,
   must give these snapshot digests.  The streamed SGD trainers' per-block
   orders, shuffles and standardisation are otherwise checked only against
   themselves. *)
let pinned_digests =
  [
    (* kind, from disk in 3 blocks, from memory in 1 *)
    ("rf", "13a4717353845268f956600245191a65",
     "13a4717353845268f956600245191a65");
    ("svm", "5e7478d085116ad141887e5413c1cc75",
     "c48e3605ce6bbdeb6e32589b03c72181");
    ("knn", "525a715f653e5ba2d628edd7045a549d",
     "525a715f653e5ba2d628edd7045a549d");
    ("lr", "f8d313f09faf3e07e6e9753013a23b6f",
     "7d6e51d9440f51bfece92ca0e941104c");
    ("mlp", "0fdadccb78c8db09f7c16316b174c5c1",
     "dd4d8b91fe4759500aa51ff513e15b55");
    ("cnn", "0585ab5b4c7d9db27f3d7edd4a89c6dc",
     "24b845b07ea42ba52013069943e9951b");
  ]

let test_trainers_pinned () =
  with_temp_dir (fun dir ->
      let n = 48 and d = 63 and n_classes = 4 in
      let rng = Rng.make 19 in
      let ys = Array.init n (fun i -> i mod n_classes) in
      let x =
        Fmat.init n d (fun i j ->
            float_of_int (Rng.int rng 5)
            +. if j mod n_classes = ys.(i) then 3.0 else 0.0)
      in
      let path = Filename.concat dir "features.yfmb" in
      Fblock.to_file path x;
      let digest ?block_rows kind src =
        Digest.to_hex
          (Digest.string
             (Model.save
                (Option.get
                   (Model.train_snapshot ?block_rows kind (Rng.make 23)
                      ~n_classes src ys))))
      in
      List.iter
        (fun (kind, disk, mem) ->
          let fr = Fblock.open_reader path in
          let got_disk =
            Fun.protect
              ~finally:(fun () -> Fblock.close_reader fr)
              (fun () -> digest ~block_rows:16 kind (Fblock.Disk fr))
          in
          Alcotest.(check string) (kind ^ " from disk, 3 blocks") disk got_disk;
          Alcotest.(check string)
            (kind ^ " from memory") mem
            (digest kind (Fblock.Mem x)))
        pinned_digests)

(* Train-from-corpus end to end: the registry entry records the corpus spec
   as provenance and survives encode/decode.  A corpus regenerated in place
   at another seed, with the same shape, trains exactly as the same spec in
   a fresh directory: the old feature file must not be reused. *)
let test_train_records_provenance () =
  let train dir =
    match
      Ctrain.train ~dir ~embedding:Embedding.histogram ~kind:"lr" ~seed:9 ()
    with
    | Error e -> Alcotest.failf "corpus train failed: %s" e
    | Ok entry -> entry
  in
  with_temp_dir (fun dir ->
      let spec = small_spec 8 in
      Gen.generate ~dir ~records_per_shard:5 spec;
      let entry = train dir in
      let open Yali.Serve in
      Alcotest.(check string) "provenance is the corpus spec"
        (Gen.spec_to_string spec) entry.Registry.meta.source;
      Alcotest.(check int) "rows recorded" (Gen.size spec)
        entry.Registry.meta.n_train;
      let back = Registry.decode_entry (Registry.encode_entry entry) in
      Alcotest.(check string) "provenance survives the registry codec"
        entry.Registry.meta.source back.Registry.meta.source;
      let spec' = small_spec 9 in
      Gen.generate ~dir ~records_per_shard:5 spec';
      let bytes dir =
        Digest.to_hex (Digest.string (Model.save (train dir).Registry.snapshot))
      in
      with_temp_dir (fun fresh ->
          Gen.generate ~dir:fresh ~records_per_shard:5 spec';
          Alcotest.(check string) "regenerated corpus trains as a fresh one"
            (bytes fresh) (bytes dir)))

(* Output directories are created with their missing parents: a corpus and
   a registry two levels below an existing directory.  A parent that is a
   regular file is a [Sys_error] naming the path. *)
let test_output_dirs_created () =
  with_temp_dir (fun dir ->
      let corpus = Filename.concat dir "a/b/corpus" in
      Gen.generate ~dir:corpus ~records_per_shard:5 (small_spec 8);
      match
        Ctrain.train ~dir:corpus ~embedding:Embedding.histogram ~kind:"knn"
          ~seed:9 ()
      with
      | Error e -> Alcotest.failf "corpus train failed: %s" e
      | Ok entry ->
          let open Yali.Serve in
          let reg = Filename.concat dir "c/d/models" in
          let v, _ =
            Registry.publish ~dir:reg ~meta:entry.Registry.meta
              entry.Registry.snapshot
          in
          Alcotest.(check bool) "published model loads back" true
            (Result.is_ok (Registry.load ~dir:reg (Printf.sprintf "knn@%d" v)));
          let file = Filename.concat dir "file" in
          Yali.Util.Fs.touch file;
          match Yali.Util.Fs.mkdir_p (Filename.concat file "sub") with
          | () -> Alcotest.fail "mkdir_p below a regular file succeeded"
          | exception Sys_error msg ->
              Alcotest.(check bool) ("names the path: " ^ msg) true
                (Helpers.contains_substring msg file))

(* A block size below one is a usage error, not a crash. *)
let test_train_rejects_zero_block_rows () =
  with_temp_dir (fun dir ->
      Gen.generate ~dir ~records_per_shard:5 (small_spec 8);
      match
        Ctrain.train ~dir ~embedding:Embedding.histogram ~kind:"lr" ~seed:9
          ~block_rows:0 ()
      with
      | Ok _ -> Alcotest.fail "block_rows = 0 accepted"
      | Error msg ->
          Alcotest.(check bool) ("names block rows: " ^ msg) true
            (Helpers.contains_substring msg "block rows"))

(* A per-class count below one names the flag and fails before the
   corpus directory is created. *)
let test_generate_rejects_empty_classes () =
  with_temp_dir (fun dir ->
      let out = Filename.concat dir "corpus" in
      List.iter
        (fun per_class ->
          match Gen.generate ~dir:out { (small_spec 1) with per_class } with
          | () -> Alcotest.failf "per_class %d accepted" per_class
          | exception Invalid_argument msg ->
              Alcotest.(check bool) ("names --per-class: " ^ msg) true
                (Helpers.contains_substring msg "--per-class");
              Alcotest.(check bool) "no directory" false (Sys.file_exists out))
        [ 0; -1 ])

(* A corpus with no records (what generation at zero per class wrote)
   trains no model, rather than one of dimension 0 that rejects every
   query. *)
let test_train_rejects_empty_corpus () =
  with_temp_dir (fun dir ->
      let w = Store.Shard.create ~dir 0 in
      Store.write_index ~dir ~meta:"empty" ~n_classes:4
        [| Store.Shard.finish w |];
      List.iter
        (fun kind ->
          match
            Ctrain.train ~dir ~embedding:Embedding.histogram ~kind ~seed:9 ()
          with
          | Ok _ -> Alcotest.failf "%s trained on an empty corpus" kind
          | Error msg ->
              Alcotest.(check bool) ("names the empty corpus: " ^ msg) true
                (Helpers.contains_substring msg "no records"))
        [ "rf"; "svm"; "knn"; "lr"; "mlp"; "cnn" ])

(* A FIFO has no length: [read_file] reads it to end of file, as it does
   [/dev/stdin] under [cat prog.c | yali run /dev/stdin].  SIGPIPE is
   ignored so that a reader that gives up early fails the test instead of
   killing the binary. *)
let test_read_file_fifo () =
  with_temp_dir (fun dir ->
      let fifo = Filename.concat dir "fifo" in
      Unix.mkfifo fifo 0o600;
      let text = String.init 100_000 (fun i -> Char.chr (32 + (i mod 95))) in
      let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      Fun.protect
        ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev)
        (fun () ->
          let writer =
            Domain.spawn (fun () ->
                try
                  Out_channel.with_open_bin fifo (fun oc ->
                      Out_channel.output_string oc text)
                with Sys_error _ -> ())
          in
          let got =
            Fun.protect
              ~finally:(fun () -> Domain.join writer)
              (fun () -> Yali.Util.Fs.read_file fifo)
          in
          Alcotest.(check int) "every byte read" (String.length text)
            (String.length got);
          Alcotest.(check bool) "contents" true (String.equal text got)))

let suite =
  [
    Alcotest.test_case "spec strings round-trip" `Quick
      test_spec_string_roundtrip;
    Alcotest.test_case "store round-trips vs materialize (seeds 1,2,42)"
      `Quick test_store_roundtrip;
    Alcotest.test_case "generation is jobs-invariant" `Quick
      test_generation_jobs_invariant;
    Alcotest.test_case "truncated shard rejected" `Quick
      test_rejects_truncated_shard;
    Alcotest.test_case "stale index rejected" `Quick test_rejects_stale_index;
    Alcotest.test_case "missing shard rejected" `Quick
      test_rejects_missing_shard;
    Alcotest.test_case "bad index magic rejected" `Quick
      test_rejects_bad_index_magic;
    Alcotest.test_case "feature file round-trips bit-exactly" `Quick
      test_fblock_roundtrip_bitexact;
    Alcotest.test_case "streamed logreg = in-memory after one epoch" `Quick
      test_stream_logreg_one_epoch;
    Alcotest.test_case "Mem source is one block at any size" `Quick
      test_mem_source_is_one_block;
    Alcotest.test_case "multi-block streaming is deterministic" `Quick
      test_stream_multiblock_deterministic;
    Alcotest.test_case "six trainers pinned, 3 blocks and 1" `Quick
      test_trainers_pinned;
    Alcotest.test_case "corpus training records provenance" `Quick
      test_train_records_provenance;
    Alcotest.test_case "corpus training rejects block_rows 0" `Quick
      test_train_rejects_zero_block_rows;
    Alcotest.test_case "generation rejects per_class below 1" `Quick
      test_generate_rejects_empty_classes;
    Alcotest.test_case "corpus training rejects an empty corpus" `Quick
      test_train_rejects_empty_corpus;
    Alcotest.test_case "output dirs created two levels deep" `Quick
      test_output_dirs_created;
    Alcotest.test_case "read_file reads a FIFO to its end" `Quick
      test_read_file_fifo;
    Alcotest.test_case "hostile index counts rejected" `Quick
      test_rejects_hostile_index_counts;
    Alcotest.test_case "overflowing feature-file header rejected" `Quick
      test_fblock_rejects_overflowing_header;
  ]
