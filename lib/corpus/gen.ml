(** See gen.mli. *)

module Rng = Yali_util.Rng
module Pool = Yali_exec.Pool
module Poj = Yali_dataset.Poj
module Genprog2 = Yali_dataset.Genprog2

type spec = { dataset : string; seed : int; n_classes : int; per_class : int }

let spec_to_string (s : spec) : string =
  Printf.sprintf "%s:seed=%d:classes=%d:per=%d" s.dataset s.seed s.n_classes
    s.per_class

let spec_of_string (s : string) : (spec, string) result =
  let field name part =
    let prefix = name ^ "=" in
    if String.length part > String.length prefix
       && String.sub part 0 (String.length prefix) = prefix
    then
      match
        int_of_string_opt
          (String.sub part (String.length prefix)
             (String.length part - String.length prefix))
      with
      | Some v when v >= 0 -> Ok v
      | _ -> Error (Printf.sprintf "bad %s in corpus spec %S" name s)
    else Error (Printf.sprintf "expected %s=<int> in corpus spec %S" name s)
  in
  match String.split_on_char ':' s with
  | [ dataset; seed_p; classes_p; per_p ] -> (
      match (field "seed" seed_p, field "classes" classes_p, field "per" per_p)
      with
      | Ok seed, Ok n_classes, Ok per_class ->
          Ok { dataset; seed; n_classes; per_class }
      | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e)
  | _ -> Error (Printf.sprintf "malformed corpus spec %S" s)

let size (s : spec) : int = s.n_classes * s.per_class

let plan (s : spec) : Poj.plan =
  if s.per_class < 1 then
    invalid_arg
      (Printf.sprintf "Corpus.Gen: --per-class must be at least 1, got %d"
         s.per_class);
  match s.dataset with
  | "poj" ->
      Poj.plan (Rng.make s.seed) ~n_classes:s.n_classes
        ~train_per_class:s.per_class ~test_per_class:0
  | "genprog2" ->
      if s.n_classes <> Genprog2.count then
        invalid_arg
          (Printf.sprintf "Corpus.Gen: genprog2 has %d classes, spec says %d"
             Genprog2.count s.n_classes);
      Genprog2.plan (Rng.make s.seed) ~train_per_class:s.per_class
        ~test_per_class:0
  | other ->
      invalid_arg (Printf.sprintf "Corpus.Gen: unknown dataset %S" other)

let lower (l : Poj.labelled) : Yali_ir.Irmod.t =
  Yali_minic.Lower.lower_program l.Poj.src

let generate ~(dir : string) ?(records_per_shard = 1024) (s : spec) : unit =
  if records_per_shard < 1 then
    invalid_arg "Corpus.Gen.generate: records_per_shard < 1";
  let p = plan s in
  let n = Poj.train_size p in
  let n_shards = max 1 ((n + records_per_shard - 1) / records_per_shard) in
  Yali_util.Fs.mkdir_p dir;
  Store.remove_features dir;
  let results = Array.make n_shards ([||], 0) in
  Pool.run ~n:n_shards (fun sh ->
      let w = Store.Shard.create ~dir sh in
      let lo = sh * records_per_shard in
      let hi = min n (lo + records_per_shard) in
      for j = lo to hi - 1 do
        let l = Poj.train_sample p j in
        Store.Shard.append w ~label:l.Poj.label (lower l)
      done;
      results.(sh) <- Store.Shard.finish w);
  Store.write_index ~dir ~meta:(spec_to_string s) ~n_classes:s.n_classes
    results

let materialize (s : spec) : (Yali_ir.Irmod.t * int) array =
  let p = plan s in
  Array.init (Poj.train_size p) (fun j ->
      let l = Poj.train_sample p j in
      (lower l, l.Poj.label))
