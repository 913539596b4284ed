(** Tests for the serving layer (lib/serve): codec round-trips and
    corrupt-input rejection, wire framing, model snapshot save/load
    bit-identity, registry versioning, and end-to-end daemon runs through
    the shared launcher, one of them under concurrent load. *)

open Helpers
module Serve = Yali.Serve
module Codec = Serve.Codec
module Wire = Serve.Wire
module Registry = Serve.Registry
module Server = Serve.Server
module Client = Serve.Client
module Model = Yali.Ml.Model
module Fmat = Yali.Ml.Fmat
module Fblock = Yali.Ml.Fblock
module Rng = Yali.Rng
module Pipeline = Yali.Transforms.Pipeline

(* -- codec ------------------------------------------------------------------ *)

let roundtrips (m : Yali.Ir.Irmod.t) =
  let blob = Codec.encode_module m in
  let m' = Codec.decode_module blob in
  Stdlib.compare m' m = 0
  && String.equal (Yali.Ir.Pp.module_to_string m') (Yali.Ir.Pp.module_to_string m)
  && String.equal (Codec.encode_module m') blob

let test_codec_roundtrip_corpus () =
  List.iter
    (fun seed ->
      let m0 = lower (dataset_program seed) in
      List.iter
        (fun level ->
          let m = Pipeline.optimize level m0 in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d survives encode/decode" seed)
            true (roundtrips m))
        [ Pipeline.O0; Pipeline.O1; Pipeline.O2; Pipeline.O3 ])
    [ 1; 5; 12; 33; 77 ]

let expect_corrupt name blob =
  match Codec.decode_result blob with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: decoder accepted corrupt input" name

let test_codec_rejects_corruption () =
  let m = lower (dataset_program 9) in
  let blob = Codec.encode_module m in
  (* sanity: the pristine blob decodes *)
  Alcotest.(check bool) "pristine blob decodes" true
    (Result.is_ok (Codec.decode_result blob));
  expect_corrupt "empty input" "";
  expect_corrupt "truncated header" (String.sub blob 0 3);
  expect_corrupt "header only" (String.sub blob 0 7);
  expect_corrupt "truncated mid-body" (String.sub blob 0 (String.length blob - 5));
  expect_corrupt "trailing garbage" (blob ^ "\x00");
  (let bad = Bytes.of_string blob in
   Bytes.set bad 0 'X';
   expect_corrupt "bad magic" (Bytes.to_string bad));
  (let skew = Bytes.of_string blob in
   (* u16 LE version field sits right after the 4-byte magic *)
   Bytes.set skew 4 '\x63';
   Bytes.set skew 5 '\x00';
   match Codec.decode_result (Bytes.to_string skew) with
   | Error msg ->
       Alcotest.(check bool) "version skew names the versions" true
         (contains_substring msg "version skew")
   | Ok _ -> Alcotest.fail "decoder accepted a future format version");
  (let badsec = Bytes.of_string blob in
   (* first section tag byte follows the 7-byte header *)
   Bytes.set badsec 7 '\xee';
   expect_corrupt "unknown section tag" (Bytes.to_string badsec));
  (* a string table claiming 2^20 entries in a 26-byte blob is rejected
     before the table is allocated (8 MB of pointers) *)
  let module Bin = Yali.Util.Bin in
  let st = Buffer.create 16 in
  Bin.w_u32 st (1 lsl 20);
  Bin.w_str st "a";
  let b = Buffer.create 32 in
  Buffer.add_string b Codec.magic;
  Bin.w_u16 b Codec.version;
  Bin.w_u8 b 2;
  Bin.w_u8 b 1;
  Bin.w_str b (Buffer.contents st);
  Bin.w_u8 b 2;
  Bin.w_str b "";
  let a0 = Gc.allocated_bytes () in
  expect_corrupt "overlong string-table count" (Buffer.contents b);
  Alcotest.(check bool) "string-table count bounded before allocating" true
    (Gc.allocated_bytes () -. a0 < 1e6)

let test_codec_file_io () =
  let m = Pipeline.optimize Pipeline.O2 (lower (dataset_program 4)) in
  let path = Filename.temp_file "yali-codec" ".yir" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Codec.write_file path m;
      let m' = Codec.read_file path in
      Alcotest.(check bool) "file round-trip is structural identity" true
        (Stdlib.compare m' m = 0))

(* -- wire ------------------------------------------------------------------- *)

let test_wire_roundtrip () =
  let reqs =
    [
      Wire.Ping;
      Wire.Stats;
      Wire.Shutdown;
      Wire.Classify { fmt = Wire.Binary; blob = "\x00\xffraw" };
      Wire.Classify { fmt = Wire.Minic; blob = "int main() { return 0; }" };
      Wire.Classify { fmt = Wire.Textual; blob = "" };
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "request round-trips" true
        (Wire.decode_request (Wire.encode_request r) = r))
    reqs;
  let resps =
    [
      Wire.Class { cls = 7; queue_us = 1234; batch = 16 };
      Wire.Error "no such model";
      Wire.Busy;
      Wire.Pong;
      Wire.Stats_json "{}";
      Wire.Bye;
    ]
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "response round-trips" true
        (Wire.decode_response (Wire.encode_response r) = r))
    resps;
  let rejects f s =
    match f s with
    | (_ : Wire.request) -> false
    | exception Yali.Util.Bin.Corrupt _ -> true
  in
  Alcotest.(check bool) "empty request payload rejected" true
    (rejects Wire.decode_request "");
  Alcotest.(check bool) "unknown opcode rejected" true
    (rejects Wire.decode_request "\xfe");
  Alcotest.(check bool) "trailing bytes rejected" true
    (rejects Wire.decode_request (Wire.encode_request Wire.Ping ^ "x"))

let test_wire_dechunk () =
  let payloads = [ "alpha"; ""; String.make 300 'z' ] in
  let frame p =
    let b = Buffer.create (String.length p + 4) in
    let len = String.length p in
    Buffer.add_char b (Char.chr (len land 0xff));
    Buffer.add_char b (Char.chr ((len lsr 8) land 0xff));
    Buffer.add_char b (Char.chr ((len lsr 16) land 0xff));
    Buffer.add_char b (Char.chr ((len lsr 24) land 0xff));
    Buffer.add_string b p;
    Buffer.contents b
  in
  let stream = String.concat "" (List.map frame payloads) in
  (* feed the byte stream one byte at a time: framing must not depend on
     read boundaries *)
  let got = ref [] in
  let d = Wire.Dechunk.create () in
  String.iter
    (fun c ->
      let frames = Wire.Dechunk.feed d (Bytes.make 1 c) 1 in
      got := !got @ frames)
    stream;
  Alcotest.(check (list string)) "byte-at-a-time framing" payloads !got;
  (* one 16 MB frame in the daemon's 64 KB reads, through one reused read
     buffer: reassembly must take time linear in the frame's length *)
  let big =
    frame (String.init (16 * 1024 * 1024) (fun i -> Char.chr (i * 7919 land 0xff)))
  in
  let d = Wire.Dechunk.create () and piece = Bytes.create 65536 in
  let t0 = Unix.gettimeofday () in
  let rec go pos acc =
    if pos >= String.length big then acc
    else begin
      let k = min (Bytes.length piece) (String.length big - pos) in
      Bytes.blit_string big pos piece 0 k;
      go (pos + k) (acc @ Wire.Dechunk.feed d piece k)
    end
  in
  let got = go 0 [] in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "16 MB frame byte-identical" true
    (got = [ String.sub big 4 (String.length big - 4) ]);
  Alcotest.(check bool)
    (Printf.sprintf "16 MB frame reassembled in %.2f s (< 1 s)" dt)
    true (dt < 1.0);
  (* oversized header refused before allocating *)
  let huge = Bytes.of_string "\xff\xff\xff\xff" in
  Alcotest.(check bool) "oversized frame header rejected" true
    (match Wire.Dechunk.feed (Wire.Dechunk.create ()) huge 4 with
    | (_ : string list) -> false
    | exception Yali.Util.Bin.Corrupt _ -> true)

(* -- model snapshots -------------------------------------------------------- *)

let synthetic_training () =
  let rng = Rng.make 11 in
  let n = 30 and d = 7 and n_classes = 3 in
  let rows =
    Array.init n (fun i ->
        let cls = i mod n_classes in
        Array.init d (fun _ ->
            float_of_int cls +. (float_of_int (Rng.int_range rng (-50) 50) /. 200.)))
  in
  let labels = Array.init n (fun i -> i mod n_classes) in
  (Fmat.of_rows rows, labels, rows, n_classes)

let test_snapshot_save_load_bit_identity () =
  let x, y, rows, n_classes = synthetic_training () in
  List.iter
    (fun kind ->
      match
        Model.train_snapshot kind (Rng.make 23) ~n_classes (Fblock.Mem x) y
      with
      | None -> Alcotest.failf "%s: no snapshot form" kind
      | Some snap ->
          let blob = Model.save snap in
          let snap' = Model.load blob in
          Alcotest.(check string)
            (kind ^ ": save is stable under load")
            blob (Model.save snap');
          let t = Model.restore snap and t' = Model.restore snap' in
          Array.iter
            (fun row ->
              Alcotest.(check int)
                (kind ^ ": reloaded snapshot predicts identically")
                (t.Model.predict row) (t'.Model.predict row))
            rows;
          Alcotest.(check (array int))
            (kind ^ ": batch predictions identical")
            (t.Model.predict_batch x) (t'.Model.predict_batch x))
    Model.snapshot_kinds

let test_snapshot_rejects_corruption () =
  let x, y, _, n_classes = synthetic_training () in
  let snap =
    Option.get
      (Model.train_snapshot "knn" (Rng.make 3) ~n_classes (Fblock.Mem x) y)
  in
  let blob = Model.save snap in
  let bad name s =
    match Model.load s with
    | (_ : Model.snapshot) -> Alcotest.failf "%s: loader accepted corrupt blob" name
    | exception Yali.Util.Bin.Corrupt _ -> ()
  in
  bad "empty" "";
  bad "bad magic" ("XMDL" ^ String.sub blob 4 (String.length blob - 4));
  bad "truncated" (String.sub blob 0 (String.length blob - 3));
  bad "trailing bytes" (blob ^ "\x00");
  (* well-formed payloads whose scorer would index out of range: each
     builder also makes a valid blob, so a rejection is the range check's *)
  let module Bin = Yali.Util.Bin in
  let module Tree = Yali.Ml.Decision_tree in
  let good name s =
    match Model.load s with
    | (_ : Model.snapshot) -> ()
    | exception Bin.Corrupt msg ->
        Alcotest.failf "%s: valid blob rejected (%s)" name msg
  in
  let scaler d b =
    Yali.Ml.Features.(scaler_to_bin b (fit [| Array.make d 0. |]))
  in
  let rf ~forest_classes ~tree_classes ~leaf =
    model_blob 4 (fun b ->
        Bin.w_u32 b forest_classes;
        Bin.w_arr b Tree.to_bin
          [|
            {
              Tree.n_classes = tree_classes;
              root =
                Split
                  {
                    feature = 0;
                    threshold = 0.5;
                    left = Leaf 0;
                    right = Leaf leaf;
                  };
            };
          |])
  in
  good "rf" (rf ~forest_classes:2 ~tree_classes:2 ~leaf:1);
  bad "rf leaf class = n_classes"
    (rf ~forest_classes:2 ~tree_classes:2 ~leaf:2);
  bad "rf tree with more classes than its forest"
    (rf ~forest_classes:2 ~tree_classes:3 ~leaf:2);
  let knn ~scaler_d ~d ~label =
    model_blob 2 (fun b ->
        Bin.w_u32 b 1;
        scaler scaler_d b;
        Fmat.to_bin b (Fmat.create 1 d);
        Bin.w_floats b [| 0. |];
        Bin.w_ints b [| label |];
        Bin.w_u32 b 2)
  in
  good "knn" (knn ~scaler_d:2 ~d:2 ~label:1);
  bad "knn label = n_classes" (knn ~scaler_d:2 ~d:2 ~label:2);
  bad "knn negative label" (knn ~scaler_d:2 ~d:2 ~label:(-1));
  bad "knn scaler narrower than its rows" (knn ~scaler_d:1 ~d:2 ~label:1);
  bad "knn scaler wider than its rows" (knn ~scaler_d:3 ~d:2 ~label:1);
  let lr ~scaler_d ~d =
    model_blob 0 (fun b ->
        scaler scaler_d b;
        Fmat.to_bin b (Fmat.create 2 d);
        Bin.w_floats b [| 0.; 0. |];
        Bin.w_u32 b 2)
  in
  good "lr" (lr ~scaler_d:2 ~d:2);
  bad "lr weights narrower than its scaler" (lr ~scaler_d:3 ~d:2);
  bad "lr weights wider than its scaler" (lr ~scaler_d:1 ~d:2);
  (* svm weights carry the folded bias as one extra column *)
  let svm ~scaler_d ~d =
    model_blob 1 (fun b ->
        scaler scaler_d b;
        Fmat.to_bin b (Fmat.create 2 d);
        Bin.w_u32 b 2)
  in
  good "svm" (svm ~scaler_d:2 ~d:3);
  bad "svm weights narrower than its scaler" (svm ~scaler_d:2 ~d:2);
  bad "svm weights wider than its scaler" (svm ~scaler_d:2 ~d:4);
  (* mlp (tag 3) and cnn (tag 5): a scaler, then dense d_in -> 4 -> d_out,
     which must take the scaler's width to [n_classes] scores *)
  let neural tag ~scaler_d ~d_in ~d_out ~n_classes =
    let module Nn = Yali.Ml.Nn in
    let rng = Rng.make 1 in
    model_blob tag (fun b ->
        scaler scaler_d b;
        Nn.to_bin b
          {
            Nn.n_classes;
            layers =
              [ Nn.dense rng ~d_in ~d_out:4; Nn.relu; Nn.dense rng ~d_in:4 ~d_out ];
          })
  in
  good "mlp" (neural 3 ~scaler_d:2 ~d_in:2 ~d_out:2 ~n_classes:2);
  bad "mlp dense layer wider than its scaler"
    (neural 3 ~scaler_d:2 ~d_in:3 ~d_out:2 ~n_classes:2);
  bad "mlp dense layer narrower than its scaler"
    (neural 3 ~scaler_d:3 ~d_in:2 ~d_out:2 ~n_classes:2);
  good "cnn" (neural 5 ~scaler_d:2 ~d_in:2 ~d_out:3 ~n_classes:3);
  bad "cnn last layer wider than its class count"
    (neural 5 ~scaler_d:2 ~d_in:2 ~d_out:3 ~n_classes:2);
  (* dense 2 -> [width], conv of 2 channels with kernel 3, dense 3 -> 2:
     on width 5 the window of channel 0 runs into channel 1 without
     leaving the row *)
  let conv ~width ~stride =
    let module Nn = Yali.Ml.Nn in
    let rng = Rng.make 1 in
    model_blob 5 (fun b ->
        scaler 2 b;
        Nn.to_bin b
          {
            Nn.n_classes = 2;
            layers =
              [
                Nn.dense rng ~d_in:2 ~d_out:width;
                Nn.conv1d rng ~c_in:2 ~c_out:3 ~kernel:3 ~stride;
                Nn.dense rng ~d_in:3 ~d_out:2;
              ];
          })
  in
  good "cnn conv" (conv ~width:6 ~stride:1);
  bad "cnn conv windows cross channels" (conv ~width:5 ~stride:2)

(* -- registry --------------------------------------------------------------- *)

let with_temp_dir f = Yali.Util.Fs.with_temp_dir "serve-test" f

let test_registry_spec_parsing () =
  let ok s = match Registry.parse_spec s with Ok kv -> Some kv | Error _ -> None in
  Alcotest.(check (option (pair string (option int)))) "bare kind"
    (Some ("rf", None)) (ok "rf");
  Alcotest.(check (option (pair string (option int)))) "pinned version"
    (Some ("mlp", Some 3)) (ok "mlp@3");
  List.iter
    (fun s ->
      Alcotest.(check (option (pair string (option int))))
        (Printf.sprintf "%S rejected" s)
        None (ok s))
    [ ""; "@1"; "rf@"; "rf@x"; "rf@0"; "rf@-1"; "a/b"; "a.b@1" ]

let test_registry_publish_and_load () =
  with_temp_dir (fun dir ->
      let x, y, _, n_classes = synthetic_training () in
      let snap =
        Option.get
          (Model.train_snapshot "rf" (Rng.make 8) ~n_classes (Fblock.Mem x) y)
      in
      let meta =
        {
          Registry.kind = "rf";
          version = 0;
          embedding = "histogram";
          n_classes;
          dim = x.Fmat.d;
          n_train = x.Fmat.n;
          seed = 8;
          source = "test:synthetic";
        }
      in
      Alcotest.(check (option int)) "empty registry has no latest" None
        (Registry.latest ~dir "rf");
      let v1, _ = Registry.publish ~dir ~meta snap in
      let v2, path2 = Registry.publish ~dir ~meta snap in
      Alcotest.(check int) "first publish is v1" 1 v1;
      Alcotest.(check int) "second publish auto-increments" 2 v2;
      Alcotest.(check (list int)) "versions ascend" [ 1; 2 ]
        (Registry.versions ~dir "rf");
      List.iter
        (fun version ->
          match Registry.publish ~dir ~version ~meta snap with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "published version %d" version)
        [ 0; -3; Registry.max_version + 1 ];
      Alcotest.(check (list int)) "nothing published out of range" [ 1; 2 ]
        (Registry.versions ~dir "rf");
      Alcotest.(check (option int)) "latest" (Some 2) (Registry.latest ~dir "rf");
      (match Registry.load ~dir "rf" with
      | Ok e -> Alcotest.(check int) "bare spec loads latest" 2 e.Registry.meta.version
      | Error e -> Alcotest.failf "load rf: %s" e);
      (match Registry.load ~dir "rf@1" with
      | Ok e -> Alcotest.(check int) "pinned spec loads that version" 1 e.Registry.meta.version
      | Error e -> Alcotest.failf "load rf@1: %s" e);
      (match Registry.load ~dir "rf@9" with
      | Ok _ -> Alcotest.fail "loaded a version that was never published"
      | Error _ -> ());
      (match Registry.load ~dir "svm" with
      | Ok _ -> Alcotest.fail "loaded a kind that was never published"
      | Error _ -> ());
      (* stomp a published file: load must surface corruption as Error *)
      let oc = open_out_bin path2 in
      output_string oc "YREGgarbage";
      close_out oc;
      match Registry.load ~dir "rf@2" with
      | Ok _ -> Alcotest.fail "loaded a corrupt registry file"
      | Error _ -> ())

(* Registry.train turns bad shapes into errors: an empty training set, and
   more classes than the POJ problems. *)
let test_registry_train_rejects_bad_shapes () =
  let train ~n_classes ~per_class =
    Registry.train ~seed:1 ~embedding:Yali.Embeddings.Embedding.histogram
      ~kind:"lr" ~n_classes ~per_class
  in
  (match train ~n_classes:4 ~per_class:0 with
  | Ok _ -> Alcotest.fail "per_class 0 accepted"
  | Error msg ->
      Alcotest.(check bool) ("names per-class: " ^ msg) true
        (contains_substring msg "per-class"));
  match train ~n_classes:200 ~per_class:1 with
  | Ok _ -> Alcotest.fail "200 classes accepted"
  | Error msg ->
      Alcotest.(check bool) ("names the limit: " ^ msg) true
        (contains_substring msg "104")

let test_registry_roundtrip_margins () =
  (* the adaptive evaders' via-serve contract: a snapshot's margins must
     survive the registry encode/decode exactly, for every kind *)
  with_temp_dir (fun dir ->
      let x, y, rows, n_classes = synthetic_training () in
      List.iter
        (fun kind ->
          let snap =
            Option.get
              (Model.train_snapshot kind (Rng.make 29) ~n_classes
                 (Fblock.Mem x) y)
          in
          let meta =
            {
              Registry.kind;
              version = 0;
              embedding = "histogram";
              n_classes;
              dim = x.Fmat.d;
              n_train = x.Fmat.n;
              seed = 29;
              source = "test:margins";
            }
          in
          ignore (Registry.publish ~dir ~meta snap);
          match Registry.load ~dir kind with
          | Error e -> Alcotest.failf "load %s: %s" kind e
          | Ok entry ->
              Array.iter
                (fun row ->
                  Alcotest.(check bool)
                    (kind ^ ": margins bit-identical after publish/load")
                    true
                    (Model.margins snap row
                    = Model.margins entry.Registry.snapshot row))
                rows)
        Model.snapshot_kinds)

(* An entry's [dim] must fit its snapshot: the daemon embeds each request
   at [dim] and scores it with no handler around the scorer.  Hand-built
   lr and rf snapshots, each published under a misfit [dim] and a fitting
   one. *)
let test_registry_rejects_misfit_dim () =
  let module Bin = Yali.Util.Bin in
  let module Tree = Yali.Ml.Decision_tree in
  let lr =
    Model.load
      (model_blob 0 (fun b ->
           Yali.Ml.Features.(scaler_to_bin b (fit [| Array.make 2 0. |]));
           Fmat.to_bin b (Fmat.create 2 2);
           Bin.w_floats b [| 0.; 0. |];
           Bin.w_u32 b 2))
  in
  let rf feature =
    Model.load
      (model_blob 4 (fun b ->
           Bin.w_u32 b 2;
           Bin.w_arr b Tree.to_bin
             [|
               {
                 Tree.n_classes = 2;
                 root =
                   Split { feature; threshold = 0.5; left = Leaf 0; right = Leaf 1 };
               };
             |]))
  in
  with_temp_dir (fun dir ->
      let loads name snap ~dim expected =
        let kind = Model.snapshot_kind snap in
        let meta =
          {
            Registry.kind;
            version = 0;
            embedding = "histogram";
            n_classes = 2;
            dim;
            n_train = 1;
            seed = 0;
            source = "test:hand-built";
          }
        in
        let v, _ = Registry.publish ~dir ~meta snap in
        Alcotest.(check bool) name expected
          (Result.is_ok (Registry.load ~dir (Printf.sprintf "%s@%d" kind v)))
      in
      loads "lr with a 2-wide scaler under dim 3" lr ~dim:3 false;
      loads "lr with a 2-wide scaler under dim 1" lr ~dim:1 false;
      loads "lr with a 2-wide scaler under dim 2" lr ~dim:2 true;
      loads "rf split on feature 1000 under dim 2" (rf 1000) ~dim:2 false;
      loads "rf split on feature 1000 under dim 1000" (rf 1000) ~dim:1000 false;
      loads "rf split on feature 1000 under dim 1001" (rf 1000) ~dim:1001 true;
      loads "rf split on feature 1 under dim 2" (rf 1) ~dim:2 true)

(* -- daemon end-to-end ------------------------------------------------------ *)

(* The daemons are this test binary re-run in {!Client.daemon_mode}, whose
   hook is in {!Helpers}. *)

(* [Server.run] creates the socket file at [bind], before [listen]: a
   bound socket that is not listening yet must not count as a daemon that
   is up. *)
let test_bound_socket_not_ready () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "bound.sock" in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.bind fd (Unix.ADDR_UNIX path);
          Alcotest.(check bool) "the socket file exists" true
            (Sys.file_exists path);
          Alcotest.(check bool) "bound but not listening: not ready" false
            (Client.ready path)))

(* [f] on the socket of a knn daemon serving a fresh registry in [dir];
   returns [f]'s result and whether the daemon exited 0 *)
let with_knn_daemon dir f =
  (match
     Registry.train ~seed:5 ~embedding:Yali.Embeddings.Embedding.histogram
       ~kind:"knn" ~n_classes:3 ~per_class:3
   with
  | Error e -> Alcotest.failf "train: %s" e
  | Ok entry ->
      ignore
        (Registry.publish ~dir ~meta:entry.Registry.meta entry.Registry.snapshot));
  Client.with_daemons ~command:Client.self_command ~dir ~registry:dir [ "knn" ]
    (fun daemons -> f (List.assoc "knn" daemons))

let test_daemon_end_to_end () =
  with_temp_dir (fun dir ->
      let (), clean =
        with_knn_daemon dir (fun socket ->
            let c = Client.connect socket in
            Alcotest.(check bool) "ping answers pong" true (Client.ping c);
            let m = lower (dataset_program 2) in
            let cls r =
              match r with
              | Wire.Class { cls; batch; _ } ->
                  Alcotest.(check bool) "batch size positive" true
                    (batch >= 1);
                  cls
              | Wire.Error e -> Alcotest.failf "daemon error: %s" e
              | _ -> Alcotest.fail "unexpected reply to classify"
            in
            let a = cls (Client.classify c m) in
            let b = cls (Client.classify c m) in
            Alcotest.(check int) "repeated classify is deterministic" a b;
            let src =
              "int main() { int x = read_int(); print_int(x + 1); return 0; }"
            in
            (match Client.classify_source c src with
            | Wire.Class _ -> ()
            | Wire.Error e -> Alcotest.failf "classify_source: %s" e
            | _ -> Alcotest.fail "unexpected reply to classify_source");
            (match
               Client.request c
                 (Wire.Classify { fmt = Wire.Binary; blob = "not a module" })
             with
            | Wire.Error _ -> ()
            | _ -> Alcotest.fail "corrupt blob must get an Error reply");
            (* a class is the in-process prediction of the program's
               embedding, and the first maximum of its margins *)
            let predict =
              match Registry.load ~dir "knn" with
              | Ok entry -> (Model.restore entry.Registry.snapshot).predict
              | Error e -> Alcotest.failf "registry load: %s" e
            in
            List.iter
              (fun seed ->
                let m = lower (dataset_program seed) in
                let k = cls (Client.classify c m) in
                let embedded =
                  Yali.Embeddings.Embedding.(to_flat histogram m)
                in
                Alcotest.(check int)
                  (Printf.sprintf "program %d: class = in-process predict" seed)
                  (predict embedded) k;
                match Client.margins c m with
                | Wire.Margins_r { scores; _ } ->
                    Alcotest.(check int)
                      (Printf.sprintf "program %d: class = argmax of margins"
                         seed)
                      (Model.argmax scores) k
                | _ -> Alcotest.fail "unexpected reply to margins")
              [ 1; 3; 5; 7 ];
            (match Client.stats c with
            | Ok json ->
                Alcotest.(check bool) "stats carry batch histogram" true
                  (contains_substring json "batch_hist")
            | Error e -> Alcotest.failf "stats: %s" e);
            (match Client.request c Wire.Shutdown with
            | Wire.Bye -> ()
            | _ -> Alcotest.fail "unexpected reply to shutdown");
            Client.close c;
            Alcotest.(check bool) "daemon stops on Shutdown" true
              (socket_gone socket))
      in
      Alcotest.(check bool) "daemon exits cleanly on Shutdown" true clean)

(* Concurrent load: 8 connections, each round one classify request written
   on every connection before any reply is read, with the programs rotated
   over the connections; the daemon batches them however it likes. *)
let test_daemon_concurrent_load () =
  let programs =
    Array.init 8 (fun i -> Codec.encode_module (lower (dataset_program (i + 1))))
  in
  let n = Array.length programs and rounds = 6 in
  with_temp_dir (fun dir ->
      let verdicts, clean =
        with_knn_daemon dir (fun socket ->
            let conns = Array.init n (fun _ -> Client.connect socket) in
            Fun.protect
              ~finally:(fun () -> Array.iter Client.close conns)
              (fun () ->
                Array.init rounds (fun round ->
                    let program c = (c + round) mod n in
                    Array.iteri
                      (fun c conn ->
                        Wire.write_frame (Client.fd conn)
                          (Wire.encode_request
                             (Wire.Classify
                                { fmt = Wire.Binary; blob = programs.(program c) })))
                      conns;
                    let classes = Array.make n (-1) in
                    Array.iteri
                      (fun c conn ->
                        match Wire.read_frame (Client.fd conn) with
                        | Some payload -> (
                            match Wire.decode_response payload with
                            | Wire.Class { cls; _ } -> classes.(program c) <- cls
                            | _ ->
                                Alcotest.failf "round %d, connection %d: not a class"
                                  round c)
                        | None ->
                            Alcotest.failf "round %d, connection %d: closed" round c)
                      conns;
                    classes)))
      in
      Array.iteri
        (fun round classes ->
          Alcotest.(check (array int))
            (Printf.sprintf "round %d: every program keeps its class" round)
            verdicts.(0) classes)
        verdicts;
      Alcotest.(check bool) "daemon exits 0 on SIGTERM" true clean)

let suite =
  [
    Alcotest.test_case "codec round-trip over corpus and opt levels" `Quick
      test_codec_roundtrip_corpus;
    Alcotest.test_case "codec rejects corrupt input" `Quick
      test_codec_rejects_corruption;
    Alcotest.test_case "codec file io" `Quick test_codec_file_io;
    Alcotest.test_case "wire message round-trips" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire incremental framing" `Quick test_wire_dechunk;
    Alcotest.test_case "model snapshots save/load bit-identically" `Quick
      test_snapshot_save_load_bit_identity;
    Alcotest.test_case "model loader rejects corrupt blobs" `Quick
      test_snapshot_rejects_corruption;
    Alcotest.test_case "registry spec parsing" `Quick test_registry_spec_parsing;
    Alcotest.test_case "registry publish, versions, load" `Quick
      test_registry_publish_and_load;
    Alcotest.test_case "registry round-trip preserves margins" `Quick
      test_registry_roundtrip_margins;
    Alcotest.test_case "registry train rejects bad shapes" `Quick
      test_registry_train_rejects_bad_shapes;
    Alcotest.test_case "registry rejects a dim that misfits its model" `Quick
      test_registry_rejects_misfit_dim;
    Alcotest.test_case "bound socket is not a ready daemon" `Quick
      test_bound_socket_not_ready;
    Alcotest.test_case "daemon end-to-end over a unix socket" `Slow
      test_daemon_end_to_end;
    Alcotest.test_case "daemon under concurrent load" `Slow
      test_daemon_concurrent_load;
  ]
