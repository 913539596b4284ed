(** See train.mli. *)

module Bin = Yali_util.Bin
module Rng = Yali_util.Rng
module Embedding = Yali_embeddings.Embedding
module Fblock = Yali_ml.Fblock
module Model = Yali_ml.Model
module Registry = Yali_serve.Registry

let ensure_features ~(embedding : Embedding.t) (r : Store.reader)
    ~(dir : string) : string * int =
  let path = Store.features_file dir embedding.Embedding.name in
  let cached =
    if not (Sys.file_exists path) then None
    else
      match Fblock.open_reader path with
      | fr ->
          let src = Fblock.Disk fr in
          let d = Fblock.dim src in
          let ok = Fblock.rows src = Store.length r in
          Fblock.close_reader fr;
          if ok then Some d else None
      | exception Bin.Corrupt _ -> None
  in
  match cached with
  | Some d -> (path, d)
  | None -> (path, Embed.to_file ~embedding r ~out:path)

let train ~(dir : string) ~(embedding : Embedding.t) ~(kind : string)
    ~(seed : int) ?block_rows () : (Registry.entry, string) result =
  match block_rows with
  | Some b when b < 1 ->
      Error (Printf.sprintf "block rows must be at least 1, got %d" b)
  | _ -> (
      match Store.open_ dir with
      | exception Bin.Corrupt m ->
          Error (Printf.sprintf "corrupt corpus in %s: %s" dir m)
      | exception Sys_error m ->
          Error (Printf.sprintf "no corpus in %s: %s" dir m)
      | r when Store.length r = 0 ->
          Store.close r;
          Error (Printf.sprintf "corpus in %s has no records" dir)
      | r ->
          Fun.protect
            ~finally:(fun () -> Store.close r)
            (fun () ->
              let path, dim = ensure_features ~embedding r ~dir in
              let fr = Fblock.open_reader path in
              Fun.protect
                ~finally:(fun () -> Fblock.close_reader fr)
                (fun () ->
                  let ys = Store.labels r in
                  let rng = Rng.make seed in
                  match
                    Model.train_snapshot ?block_rows kind (Rng.split rng)
                      ~n_classes:(Store.n_classes r) (Fblock.Disk fr) ys
                  with
                  | None ->
                      Error
                        (Printf.sprintf "no snapshot-able model named %s" kind)
                  | Some snapshot ->
                      Ok
                        {
                          Registry.meta =
                            {
                              kind;
                              version = 0;
                              embedding = embedding.Embedding.name;
                              n_classes = Store.n_classes r;
                              dim;
                              n_train = Store.length r;
                              seed;
                              source = Store.meta r;
                            };
                          snapshot;
                        })))
