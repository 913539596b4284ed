(** See embed.mli. *)

module Pool = Yali_exec.Pool
module Embedding = Yali_embeddings.Embedding
module Fmat = Yali_ml.Fmat
module Fblock = Yali_ml.Fblock

(* The feature dimension comes from embedding record 0; every other row is
   checked against it (embeddings are fixed-width by construction, this
   guards drift). *)
let dim_of ~(embedding : Embedding.t) (r : Store.reader) : int =
  let _, m0 = Store.get r 0 in
  Array.length (Embedding.to_flat embedding m0)

let to_file ~(embedding : Embedding.t) (r : Store.reader) ~(out : string) :
    int =
  let n = Store.length r in
  let d = if n = 0 then 0 else dim_of ~embedding r in
  Fblock.create_sized out ~n ~d;
  if n > 0 then
    Pool.run ~n:(Store.shard_count r) (fun s ->
        let w = Fblock.Pwrite.open_ out ~d in
        Fun.protect
          ~finally:(fun () -> Fblock.Pwrite.close w)
          (fun () ->
            Store.fold_shard r s ~init:() (fun () i ~label:_ m ->
                let row = Embedding.to_flat embedding m in
                if Array.length row <> d then
                  failwith "Corpus.Embed: embedding dimension drift";
                Fblock.Pwrite.write_row w i row)));
  d

let to_fmat ~(embedding : Embedding.t) (r : Store.reader) :
    Fmat.t * int array =
  let n = Store.length r in
  if n = 0 then (Fmat.create 0 0, [||])
  else begin
    let d = dim_of ~embedding r in
    let x = Fmat.create n d in
    Store.iter r (fun i ~label:_ m ->
        let row = Embedding.to_flat embedding m in
        if Array.length row <> d then
          failwith "Corpus.Embed: embedding dimension drift";
        Array.blit row 0 x.Fmat.data (i * d) d);
    (x, Store.labels r)
  end
