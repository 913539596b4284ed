module Bin = Yali_util.Bin
module Rng = Yali_util.Rng
module Model = Yali_ml.Model

type meta = {
  kind : string;
  version : int;
  embedding : string;
  n_classes : int;
  dim : int;
  n_train : int;
  seed : int;
  source : string;
}

type entry = { meta : meta; snapshot : Model.snapshot }

let magic = "YREG"

(* v2 added the [source] provenance string (corpus spec or inline recipe). *)
let format_version = 2

let encode_entry { meta; snapshot } =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  Bin.w_u16 b format_version;
  Bin.w_str b meta.kind;
  Bin.w_u32 b meta.version;
  Bin.w_str b meta.embedding;
  Bin.w_u32 b meta.n_classes;
  Bin.w_u32 b meta.dim;
  Bin.w_u32 b meta.n_train;
  Bin.w_int b meta.seed;
  Bin.w_str b meta.source;
  Bin.w_str b (Model.save snapshot);
  Buffer.contents b

let decode_entry blob =
  let r = Bin.reader blob in
  let m = Bin.r_raw r 4 in
  if m <> magic then Bin.fail r (Printf.sprintf "bad registry magic %S" m);
  let v = Bin.r_u16 r in
  if v <> format_version then
    Bin.fail r
      (Printf.sprintf "registry version skew: got %d, expected %d" v
         format_version);
  let kind = Bin.r_str r in
  let version = Bin.r_u32 r in
  let embedding = Bin.r_str r in
  let n_classes = Bin.r_u32 r in
  let dim = Bin.r_u32 r in
  let n_train = Bin.r_u32 r in
  let seed = Bin.r_int r in
  let source = Bin.r_str r in
  let snapshot = Model.load (Bin.r_str r) in
  Bin.expect_end r;
  if Model.snapshot_kind snapshot <> kind then
    Bin.fail r
      (Printf.sprintf "metadata kind %s but payload is a %s model" kind
         (Model.snapshot_kind snapshot));
  if not (Model.fits_dim snapshot dim) then
    Bin.fail r
      (Printf.sprintf "metadata dim %d does not fit the %s model's input" dim
         kind);
  { meta = { kind; version; embedding; n_classes; dim; n_train; seed; source };
    snapshot }

let file_name ~kind ~version = Printf.sprintf "%s@%d.ymdl" kind version

let parse_spec spec =
  let check_kind kind =
    if kind = "" then Error "empty model name"
    else if String.contains kind '/' || String.contains kind '.' then
      Error (Printf.sprintf "invalid model name %S" kind)
    else Ok kind
  in
  match String.index_opt spec '@' with
  | None -> Result.map (fun k -> (k, None)) (check_kind spec)
  | Some i -> (
      let kind = String.sub spec 0 i in
      let vs = String.sub spec (i + 1) (String.length spec - i - 1) in
      match check_kind kind with
      | Error e -> Error e
      | Ok k -> (
          match int_of_string_opt vs with
          | Some v when v >= 1 -> Ok (k, Some v)
          | _ -> Error (Printf.sprintf "invalid version %S in %S" vs spec)))

let versions ~dir kind =
  let prefix = kind ^ "@" and suffix = ".ymdl" in
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter_map (fun f ->
         if
           String.length f > String.length prefix + String.length suffix
           && String.sub f 0 (String.length prefix) = prefix
           && Filename.check_suffix f suffix
         then
           int_of_string_opt
             (String.sub f (String.length prefix)
                (String.length f - String.length prefix - String.length suffix))
         else None)
  |> List.filter (fun v -> v >= 1)
  |> List.sort_uniq compare

let latest ~dir kind =
  match List.rev (versions ~dir kind) with [] -> None | v :: _ -> Some v

let write_file path blob =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc blob)

(* the metadata stores the version as a u32, and 0 names no file *)
let max_version = 0xFFFF_FFFF

let publish ~dir ?version ~meta snapshot =
  let assigned =
    match version with
    | Some v -> v
    | None -> ( match latest ~dir meta.kind with Some v -> v + 1 | None -> 1)
  in
  if assigned < 1 || assigned > max_version then
    invalid_arg
      (Printf.sprintf "Registry.publish: version %d outside 1..%d" assigned
         max_version);
  Yali_util.Fs.mkdir_p dir;
  let meta = { meta with version = assigned } in
  let path = Filename.concat dir (file_name ~kind:meta.kind ~version:assigned) in
  write_file path (encode_entry { meta; snapshot });
  (assigned, path)

let load ~dir spec =
  match parse_spec spec with
  | Error e -> Error e
  | Ok (kind, pin) -> (
      let version =
        match pin with Some v -> Some v | None -> latest ~dir kind
      in
      match version with
      | None -> Error (Printf.sprintf "no published versions of %s in %s" kind dir)
      | Some v -> (
          let path = Filename.concat dir (file_name ~kind ~version:v) in
          match Yali_util.Fs.read_file path with
          | exception Sys_error _ ->
              Error (Printf.sprintf "model %s@%d not found in %s" kind v dir)
          | blob -> (
              match decode_entry blob with
              | e ->
                  if e.meta.kind <> kind then
                    Error
                      (Printf.sprintf "%s holds a %s model, not %s" path
                         e.meta.kind kind)
                  else Ok e
              | exception Bin.Corrupt msg ->
                  Error (Printf.sprintf "%s: corrupt: %s" path msg))))

let train ~seed ~embedding ~kind ~n_classes ~per_class =
  let rng = Rng.make seed in
  if per_class < 1 then
    Error (Printf.sprintf "per-class must be at least 1, got %d" per_class)
  else
    match
      Yali_dataset.Poj.make rng ~n_classes ~train_per_class:per_class
        ~test_per_class:0
    with
    | exception Invalid_argument msg -> Error msg
    | split -> (
        let modules, _ =
          Yali_games.Arena.build_modules (Rng.split rng) Yali_games.Game.game0
            split
        in
        let x = Yali_games.Arena.embed_fmat embedding modules in
        let ys = Array.map snd modules in
        match
          Model.train_snapshot kind (Rng.split rng) ~n_classes
            (Yali_ml.Fblock.Mem x) ys
        with
        | None -> Error (Printf.sprintf "no snapshot-able model named %s" kind)
        | Some snapshot ->
            let meta =
              {
                kind;
                version = 0;
                embedding = embedding.Yali_embeddings.Embedding.name;
                n_classes;
                dim = x.Yali_ml.Fmat.d;
                n_train = x.Yali_ml.Fmat.n;
                seed;
                source =
                  Printf.sprintf "inline:poj:seed=%d:classes=%d:per=%d" seed
                    n_classes per_class;
              }
            in
            Ok { meta; snapshot })
