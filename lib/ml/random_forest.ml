(** Random forests: bagged CART trees with sqrt-feature subsampling and
    majority voting — the paper's consistently best model (§4.2).

    The training matrix is binned once ({!Decision_tree.prebin}) and the
    read-only binning is shared by all trees; each bootstrap sample is an
    index array into the shared matrix, so bagging copies no feature data
    at all. *)

module Rng = Yali_util.Rng

type t = { trees : Decision_tree.t array; n_classes : int }

type params = { n_trees : int; max_depth : int }

let default_params = { n_trees = 64; max_depth = 24 }

(* Per-tree bootstrap cap for the multi-block path: bounds gather memory at
   [gather_group * max_tree_rows * d] floats no matter how big the corpus
   grows.  The group size is a constant, not the pool width, so the forest
   is the same at any [jobs]. *)
let max_tree_rows = 65536

let gather_group = 8

(** Forest growth over blocks.  A source that is one block — any [Mem]
    source given no [block_rows] — is read once and binned once
    ({!Decision_tree.prebin}); the binning is shared read-only by all
    trees, and each tree's bootstrap is an index array into it, so bagging
    copies no feature data at all.  Larger sources are grown incrementally:
    each tree bootstraps over the {e whole} row range — the same draws as
    the one-block path — and the blocks are then streamed once per group
    of {!gather_group} trees, copying only the rows a tree actually sampled
    into a per-tree gather matrix (unique rows; duplicates stay
    index-level).  Resident memory is then one block plus one group's
    gathers, bounded by {!max_tree_rows}. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : t =
  let n = Fblock.rows src in
  let d = Fblock.dim src in
  let fps = max 1 (max (int_of_float (sqrt (float_of_int d))) (d / 2)) in
  let tree_params =
    {
      Decision_tree.max_depth = params.max_depth;
      min_samples_split = 2;
      features_per_split = Some fps;
    }
  in
  (* one stream per tree, derived up front: each task owns its stream, so
     the forest is the same at any [jobs] *)
  let tree_rngs = Rng.split_n rng params.n_trees in
  if Fblock.n_blocks ?block_rows src <= 1 then begin
    let x = Fblock.materialize src in
    let pb = Decision_tree.prebin x in
    let trees =
      Yali_exec.Pool.parallel_array_map
        (fun tree_rng ->
          let bidx = Array.make n 0 in
          for i = 0 to n - 1 do
            bidx.(i) <- Rng.int tree_rng n
          done;
          Decision_tree.train ~params:tree_params ~prebinned:pb ~sample:bidx
            tree_rng ~n_classes x ys)
        tree_rngs
    in
    { trees; n_classes }
  end
  else begin
    (* draw every tree's bootstrap up front (global row indices, the same
       rng order as the one-block path), then gather and grow group by
       group *)
    let s = min n max_tree_rows in
    let samples =
      Array.map (fun tr -> Array.init s (fun _ -> Rng.int tr n)) tree_rngs
    in
    let trees = Array.make params.n_trees None in
    let g0 = ref 0 in
    while !g0 < params.n_trees do
      let g1 = min params.n_trees (!g0 + gather_group) in
      let gk = g1 - !g0 in
      (* unique sampled rows per tree, ascending, with a sample->position
         remap so duplicates survive as repeated indices *)
      let rows = Array.make gk [||] and remap = Array.make gk [||] in
      for k = 0 to gk - 1 do
        let sorted = Array.copy samples.(!g0 + k) in
        Array.sort compare sorted;
        let m = ref 0 in
        for i = 0 to s - 1 do
          if !m = 0 || sorted.(i) <> sorted.(!m - 1) then begin
            sorted.(!m) <- sorted.(i);
            incr m
          end
        done;
        rows.(k) <- Array.sub sorted 0 !m;
        let pos = Hashtbl.create !m in
        Array.iteri (fun p r -> Hashtbl.add pos r p) rows.(k);
        remap.(k) <-
          Array.map (fun r -> Hashtbl.find pos r) samples.(!g0 + k)
      done;
      let gathers = Array.map (fun r -> Fmat.create (Array.length r) d) rows in
      let cursors = Array.make gk 0 in
      Fblock.iter_blocks ?block_rows src (fun lo block ->
          let hi = lo + block.Fmat.n in
          for k = 0 to gk - 1 do
            let r = rows.(k) and m = Array.length rows.(k) in
            while cursors.(k) < m && r.(cursors.(k)) < hi do
              let p = cursors.(k) in
              Array.blit block.Fmat.data
                ((r.(p) - lo) * d)
                gathers.(k).Fmat.data (p * d) d;
              cursors.(k) <- p + 1
            done
          done);
      let grown =
        Yali_exec.Pool.parallel_array_map
          (fun k ->
            let t = !g0 + k in
            let ys_g = Array.map (fun r -> ys.(r)) rows.(k) in
            let pb = Decision_tree.prebin gathers.(k) in
            ( t,
              Decision_tree.train ~params:tree_params ~prebinned:pb
                ~sample:remap.(k) tree_rngs.(t) ~n_classes gathers.(k) ys_g ))
          (Array.init gk Fun.id)
      in
      Array.iter (fun (t, tree) -> trees.(t) <- Some tree) grown;
      g0 := g1
    done;
    let trees =
      Array.map
        (function Some t -> t | None -> failwith "rf stream: tree not grown")
        trees
    in
    { trees; n_classes }
  end

let trees (f : t) : Decision_tree.t array = f.trees

(** Per-class tree vote counts as floats. *)
let margins (f : t) (x : float array) : float array =
  let votes = Array.make f.n_classes 0.0 in
  Array.iter
    (fun t ->
      let c = Decision_tree.predict t x in
      votes.(c) <- votes.(c) +. 1.0)
    f.trees;
  votes

let size_bytes (f : t) : int =
  Array.fold_left (fun acc t -> acc + Decision_tree.size_bytes t) 0 f.trees

module Bin = Yali_util.Bin

let to_bin b (f : t) =
  Bin.w_u32 b f.n_classes;
  Bin.w_arr b Decision_tree.to_bin f.trees

let of_bin r : t =
  let n_classes = Bin.r_u32 r in
  let trees = Bin.r_arr r Decision_tree.of_bin in
  (* each tree's leaves are checked against its own class count *)
  if Array.exists (fun (t : Decision_tree.t) -> t.n_classes <> n_classes) trees
  then Bin.fail r "forest and tree class counts differ";
  { trees; n_classes }
