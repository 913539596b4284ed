(** See oracles.mli. *)

module Rng = Yali_util.Rng
module Ml = Yali_ml
module F = Yali_ml.Fmat
module Pool = Yali_exec.Pool

let finite x = Float.is_finite x
let in_unit x = finite x && 0.0 <= x && x <= 1.0

(* -- kernels vs lib/ml/reference.ml ---------------------------------------- *)

(* labelled class-separable count features (<= 256 distinct values per
   feature, the tree's histogram path) *)
let gen_dataset (rng : Rng.t) =
  let n_classes = 2 + Rng.int rng 3 in
  let n = 10 + Rng.int rng 50 and d = 1 + Rng.int rng 8 in
  let sample m =
    Array.init m (fun _ ->
        let cls = Rng.int rng n_classes in
        let x =
          Array.init d (fun j ->
              float_of_int
                (Rng.int rng 8 + if j mod n_classes = cls then 6 else 0))
        in
        (x, cls))
  in
  let train = sample n and test = sample 16 in
  let train_seed = Rng.int rng 1_000_000 in
  (n_classes, Array.map fst train, Array.map snd train, Array.map fst test,
   train_seed)

let show_dataset (n_classes, xs, _, txs, seed) =
  Printf.sprintf "dataset n=%d d=%d classes=%d queries=%d seed=%d"
    (Array.length xs)
    (if Array.length xs = 0 then 0 else Array.length xs.(0))
    n_classes (Array.length txs) seed

let tree_vs_reference (n_classes, xs, ys, txs, seed) =
  let t_new = Ml.Decision_tree.train (Rng.make seed) ~n_classes (F.of_rows xs) ys in
  let t_ref = Ml.Reference.Decision_tree.train (Rng.make seed) ~n_classes xs ys in
  Array.for_all
    (fun x -> Ml.Decision_tree.predict t_new x = Ml.Reference.Decision_tree.predict t_ref x)
    (Array.append xs txs)

let forest_vs_reference (n_classes, xs, ys, txs, seed) =
  let params = { Ml.Random_forest.n_trees = 5; max_depth = 6 } in
  let ref_params = { Ml.Reference.Random_forest.n_trees = 5; max_depth = 6 } in
  let f_new =
    Ml.Random_forest.train ~params (Rng.make seed) ~n_classes
      (Ml.Fblock.Mem (F.of_rows xs)) ys
  in
  let f_ref =
    Ml.Reference.Random_forest.train ~params:ref_params (Rng.make seed) ~n_classes xs ys
  in
  let predict = (Ml.Model.restore (Ml.Model.S_rf f_new)).predict in
  Array.for_all
    (fun x -> predict x = Ml.Reference.Random_forest.predict f_ref x)
    (Array.append xs txs)

(* continuous features for the knn oracle: with quantized counts, two
   distinct training points can be exactly equidistant from a query, and
   knn.mli documents that the norm-expanded distance breaks such ties by
   float rounding rather than row index — gaussians make exact ties
   measure-zero, so prediction equality is the right law *)
let gen_gauss_dataset (rng : Rng.t) =
  let n_classes = 2 + Rng.int rng 3 in
  let n = 10 + Rng.int rng 50 and d = 2 + Rng.int rng 7 in
  let sample m =
    Array.init m (fun _ ->
        let cls = Rng.int rng n_classes in
        let x =
          Array.init d (fun j ->
              Rng.gaussian rng
              +. (if j mod n_classes = cls then 4.0 else 0.0))
        in
        (x, cls))
  in
  let train = sample n and test = sample 16 in
  let train_seed = Rng.int rng 1_000_000 in
  (n_classes, Array.map fst train, Array.map snd train, Array.map fst test,
   train_seed)

let knn_vs_reference (n_classes, xs, ys, txs, _seed) =
  let m_new = Ml.Knn.train ~n_classes (F.of_rows xs) ys in
  let m_ref = Ml.Reference.Knn.train ~n_classes xs ys in
  let predict = (Ml.Model.restore (Ml.Model.S_knn m_new)).predict in
  Array.for_all (fun x -> predict x = Ml.Reference.Knn.predict m_ref x) txs

(* bit equality: [=] on float arrays takes -0.0 for 0.0 and fails on
   NaN *)
let same_bits (a : float array) (b : float array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
       a b

(* parameter dumps ([Nn.dump_weights] and its kin), array by array *)
let same_dump (a : float array array) (b : float array array) =
  Array.length a = Array.length b && Array.for_all2 same_bits a b

(* An operand for the zero-skipping kernels: gaussians with about a
   quarter of the cells an exact 0.0 or -0.0, and in half the matrices
   one nan, infinity or neg_infinity.  On the left, the zeros are the
   skipped terms and the rest must be kept; on the right, an infinity
   turns a zero's product into nan, so a kernel that did not skip it
   shows. *)
let planted (rng : Rng.t) n d =
  let m = F.random rng n d ~scale:1.0 in
  let data = m.F.data in
  Array.iteri
    (fun i _ -> if Rng.int rng 4 = 0 then data.(i) <- (if Rng.bool rng then 0.0 else -0.0))
    data;
  if Array.length data > 0 && Rng.bool rng then
    data.(Rng.int rng (Array.length data)) <-
      [| Float.nan; Float.infinity; Float.neg_infinity |].(Rng.int rng 3);
  m

(* A graph-convolution layer's operands: the propagated input [px]
   (n x d_in), the weight [w] (d_in x d_out) and the pre-activation
   gradient [dpre] (n x d_out), all planted. *)
let gen_gc (rng : Rng.t) =
  let n = 1 + Rng.int rng 40
  and d_in = 1 + Rng.int rng 40
  and d_out = 1 + Rng.int rng 40 in
  (planted rng n d_in, planted rng d_in d_out, planted rng n d_out)

let show_gc ((px : F.t), (w : F.t), _) =
  Printf.sprintf "graph conv %dx%d input, %dx%d weight" px.F.n px.F.d w.F.n
    w.F.d

(* Dgcnn's three products on its window kernels against the naive
   products that Reference.Dgcnn runs: forward (P Z) W, weight gradient
   (P Z)ᵀ dpre and input gradient dpre Wᵀ. *)
let gc_products_match_naive (px, (w : F.t), dpre) =
  let g = Ml.Dgcnn.gc_win w in
  same_bits (Ml.Nn.win_backward g px ~in_w:w.F.d).F.data
    (F.matmul_naive px w).F.data
  && same_bits (fst (Ml.Nn.win_grads g dpre px)).F.data
       (F.matmul_naive (F.transpose px) dpre).F.data
  && same_bits (Ml.Nn.win_forward g dpre).F.data
       (F.matmul_naive dpre (F.transpose w)).F.data

(* One dense or convolutional layer with planted weights and gaussian or
   -0.0 biases (a skipped zero term would turn a -0.0 start into 0.0),
   its windows over inputs of width [in_w], and a planted input [x] and
   output gradient [d].  Conv shapes include widths that [c_in] does not
   divide and inputs shorter than the kernel (no windows). *)
let gen_win (rng : Rng.t) =
  let rows = 1 + Rng.int rng 5 and c_out = 1 + Rng.int rng 9 in
  let layer, in_w =
    if Rng.int rng 3 = 0 then
      let in_w = 1 + Rng.int rng 40 in
      (Ml.Nn.dense rng ~d_in:in_w ~d_out:c_out, in_w)
    else
      let c_in = 1 + Rng.int rng 3
      and kernel = 1 + Rng.int rng 4
      and stride = 1 + Rng.int rng 3 in
      (* the output length truncates toward zero, so a channel shorter
         than the kernel by less than the stride would still get a window
         that runs past it: no layer is built that way *)
      let len = Rng.int rng 12 in
      let len =
        if len < kernel && ((len - kernel) / stride) + 1 > 0 then kernel
        else len
      in
      ( Ml.Nn.conv1d rng ~c_in ~c_out ~kernel ~stride,
        (c_in * len) + Rng.int rng c_in )
  in
  let g = Option.get (Ml.Nn.win_of layer ~in_w) in
  let w = planted rng g.w.F.n g.w.F.d in
  Array.blit w.F.data 0 g.w.F.data 0 (Array.length w.F.data);
  Array.iteri
    (fun o _ -> g.b.(o) <- (if Rng.bool rng then -0.0 else Rng.gaussian rng))
    g.b;
  let out_w = c_out * max 1 g.out_len in
  (g, planted rng rows in_w, planted rng rows out_w)

let show_win ((g : Ml.Nn.win), (x : F.t), _) =
  Printf.sprintf "win c_in=%d len=%d kernel=%d stride=%d out_len=%d c_out=%d, %dx%d input"
    g.c_in g.len g.kernel g.stride g.out_len g.c_out x.F.n x.F.d

(* the explicit lowering the kernels avoid: row (i, p) of [im2col] holds
   window p of input row i, and row (i, p) of [by_window] holds the output
   channels of that window *)
let im2col (g : Ml.Nn.win) (x : F.t) =
  let pl = max 0 g.out_len in
  F.init (x.F.n * pl) (g.c_in * g.kernel) (fun r col ->
      F.get x (r / pl)
        (((col / g.kernel) * g.len) + (r mod pl * g.stride) + (col mod g.kernel)))

let by_window (g : Ml.Nn.win) (d : F.t) =
  let pl = max 0 g.out_len in
  F.init (d.F.n * pl) g.c_out (fun r o -> F.get d (r / pl) ((o * pl) + (r mod pl)))

(* The forward kernel against a per-sample loop: each output cell starts
   from its bias and adds its window's nonzero inputs in ascending
   order. *)
let win_forward_matches_loop ((g : Ml.Nn.win), x, _) =
  let pl = max 0 g.out_len in
  let expected =
    F.init x.F.n (g.c_out * max 1 g.out_len) (fun i c ->
        if pl = 0 then 0.0
        else
          let o = c / pl and p = c mod pl in
          let acc = ref g.b.(o) in
          for ci = 0 to g.c_in - 1 do
            for k = 0 to g.kernel - 1 do
              let v = F.get x i ((ci * g.len) + (p * g.stride) + k) in
              if v <> 0.0 then
                acc := !acc +. (v *. F.get g.w o ((ci * g.kernel) + k))
            done
          done;
          !acc)
  in
  same_bits (Ml.Nn.win_forward g x).F.data expected.F.data

(* Each window kernel against [Fmat.matmul_naive] of the explicit im2col
   and transposes: the forward (zero bias) is im2col(x) * wᵀ, the weight
   gradient dᵀ * im2col(x) (the bias gradient dᵀ's row sums), and the
   input gradient d * w scattered back window by window. *)
let win_kernels_match_naive ((g : Ml.Nn.win), x, d) =
  let pl = max 0 g.out_len in
  let im = im2col g x and dw = by_window g d in
  let fwd = Ml.Nn.win_forward { g with b = Array.make g.c_out 0.0 } x in
  let fwd_ok =
    if pl = 0 then same_bits fwd.F.data (Array.make (x.F.n * g.c_out) 0.0)
    else
      same_bits (by_window g fwd).F.data
        (F.matmul_naive im (F.transpose g.w)).F.data
  in
  let gw, gb = Ml.Nn.win_grads g x d in
  let gb_naive =
    Array.init g.c_out (fun o ->
        let acc = ref 0.0 in
        for r = 0 to dw.F.n - 1 do
          acc := !acc +. F.get dw r o
        done;
        !acc)
  in
  let din = Ml.Nn.win_backward g d ~in_w:x.F.d in
  let dim = F.matmul_naive dw g.w in
  let din_naive = F.create x.F.n x.F.d in
  for r = 0 to dim.F.n - 1 do
    for c = 0 to dim.F.d - 1 do
      let j = ((c / g.kernel) * g.len) + (r mod pl * g.stride) + (c mod g.kernel) in
      F.set din_naive (r / pl) j (F.get din_naive (r / pl) j +. F.get dim r c)
    done
  done;
  fwd_ok
  && same_bits gw.F.data (F.matmul_naive (F.transpose dw) im).F.data
  && same_bits gb gb_naive
  && same_bits din.F.data din_naive.F.data

(* Svm.train against the frozen Pegasos loop: byte-identical snapshots in
   memory (one block) and in blocks of a few rows *)
let svm_vs_reference (n_classes, xs, ys, _, seed) =
  let src = Ml.Fblock.Mem (F.of_rows xs) in
  let snap m = Ml.Model.save (Ml.Model.S_svm m) in
  List.for_all
    (fun block_rows ->
      snap (Ml.Svm.train ?block_rows (Rng.make seed) ~n_classes src ys)
      = snap
          (Ml.Reference.Svm.train ?block_rows (Rng.make seed) ~n_classes src
             ys))
    [ None; Some (1 + (seed mod 7)) ]

let gen_fmat (rng : Rng.t) =
  let n = 1 + Rng.int rng 30 and d = 1 + Rng.int rng 8 in
  Array.init n (fun _ -> Array.init d (fun _ -> Rng.gaussian rng))

let fmat_layout_laws rows =
  let m = F.of_rows rows in
  let d = m.F.d in
  F.to_rows m = rows
  && Array.for_all
       (fun i ->
         let buf = Array.make d 0.0 in
         F.row_into m i buf;
         buf = F.row_copy m i && buf = rows.(i))
       (Array.init m.F.n Fun.id)
  && Array.for_all
       (fun i ->
         let v = Array.init d (fun j -> float_of_int (j + 1)) in
         let naive = ref 0.0 in
         Array.iteri (fun j x -> naive := !naive +. (x *. v.(j))) rows.(i);
         F.dot_row_vec m i v = !naive)
       (Array.init m.F.n Fun.id)

let kernels =
  [
    Prop.make ~name:"kernels/tree-vs-reference" ~show:show_dataset gen_dataset
      tree_vs_reference;
    Prop.make ~name:"kernels/forest-vs-reference" ~show:show_dataset
      gen_dataset forest_vs_reference;
    Prop.make ~name:"kernels/knn-vs-reference" ~show:show_dataset
      gen_gauss_dataset knn_vs_reference;
    Prop.make ~name:"kernels/gc-products-vs-naive" ~show:show_gc gen_gc
      gc_products_match_naive;
    Prop.make ~name:"kernels/win-forward-vs-loop" ~show:show_win gen_win
      win_forward_matches_loop;
    Prop.make ~name:"kernels/win-kernels-vs-naive" ~show:show_win gen_win
      win_kernels_match_naive;
    Prop.make ~name:"kernels/svm-vs-reference" ~show:show_dataset gen_dataset
      svm_vs_reference;
    Prop.make ~name:"kernels/fmat-layout-laws"
      ~show:(fun rows -> Printf.sprintf "fmat %d rows" (Array.length rows))
      gen_fmat fmat_layout_laws;
  ]

(* -- Ml.Metrics axioms ------------------------------------------------------ *)

(* labels drawn so that every degenerate shape occurs: empty arrays, a
   single class, classes never predicted, classes never true *)
let gen_labels (rng : Rng.t) =
  let n_classes = 1 + Rng.int rng 5 in
  let n = Rng.int rng 30 in
  let draw () = Array.init n (fun _ -> Rng.int rng n_classes) in
  (n_classes, draw (), draw ())

let show_labels (n_classes, truth, _) =
  Printf.sprintf "labels n=%d classes=%d" (Array.length truth) n_classes

let accuracy_bounds (_, truth, pred) = in_unit (Ml.Metrics.accuracy truth pred)

let confusion_row_sums (n_classes, truth, pred) =
  let c = Ml.Metrics.confusion ~n_classes truth pred in
  Array.for_all
    (fun t ->
      let row_sum = Array.fold_left ( + ) 0 c.Ml.Metrics.counts.(t) in
      let expect =
        Array.fold_left (fun k t' -> if t' = t then k + 1 else k) 0 truth
      in
      row_sum = expect)
    (Array.init n_classes Fun.id)

let prf1_defined (n_classes, truth, pred) =
  let c = Ml.Metrics.confusion ~n_classes truth pred in
  Array.for_all
    (fun cls ->
      let p, r, f1 = Ml.Metrics.precision_recall_f1 c cls in
      in_unit p && in_unit r && in_unit f1)
    (Array.init n_classes Fun.id)

let macro_f1_bounds (n_classes, truth, pred) =
  in_unit (Ml.Metrics.macro_f1 (Ml.Metrics.confusion ~n_classes truth pred))

let gen_sample (rng : Rng.t) =
  List.init (Rng.int rng 20) (fun _ -> Rng.gaussian rng *. 10.0)

let boxplot_ordered xs =
  let bp = Ml.Metrics.boxplot xs in
  finite bp.Ml.Metrics.bp_min && finite bp.Ml.Metrics.q1
  && finite bp.Ml.Metrics.median && finite bp.Ml.Metrics.q3
  && finite bp.Ml.Metrics.bp_max && finite bp.Ml.Metrics.bp_mean
  && bp.Ml.Metrics.bp_min <= bp.Ml.Metrics.q1
  && bp.Ml.Metrics.q1 <= bp.Ml.Metrics.median
  && bp.Ml.Metrics.median <= bp.Ml.Metrics.q3
  && bp.Ml.Metrics.q3 <= bp.Ml.Metrics.bp_max

let sample_stats_defined xs =
  finite (Ml.Metrics.mean xs) && finite (Ml.Metrics.stddev xs)
  && finite (Ml.Metrics.welch_t xs (List.map (fun x -> x +. 1.0) xs))

let metrics =
  [
    Prop.make ~name:"metrics/accuracy-in-unit-interval" ~show:show_labels
      gen_labels accuracy_bounds;
    Prop.make ~name:"metrics/confusion-row-sums" ~show:show_labels gen_labels
      confusion_row_sums;
    Prop.make ~name:"metrics/precision-recall-f1-defined" ~show:show_labels
      gen_labels prf1_defined;
    Prop.make ~name:"metrics/macro-f1-in-unit-interval" ~show:show_labels
      gen_labels macro_f1_bounds;
    Prop.make ~name:"metrics/boxplot-ordered-and-finite"
      ~show:(fun xs -> Printf.sprintf "sample of %d" (List.length xs))
      gen_sample boxplot_ordered;
    Prop.make ~name:"metrics/sample-stats-defined"
      ~show:(fun xs -> Printf.sprintf "sample of %d" (List.length xs))
      gen_sample sample_stats_defined;
  ]

(* -- Exec determinism ------------------------------------------------------- *)

(* a pure per-index task with enough arithmetic to interleave under any
   schedule; determinism means the slot array is independent of jobs *)
let gen_pool_case (rng : Rng.t) =
  let n = Rng.int rng 200 in
  let jobs = 1 + Rng.int rng 8 in
  let seed = Rng.int rng 1_000_000 in
  (n, jobs, seed)

let show_pool_case (n, jobs, seed) =
  Printf.sprintf "pool n=%d jobs=%d seed=%d" n jobs seed

let task seed i =
  let r = Rng.split_ix (Rng.make seed) i in
  let acc = ref 0L in
  for _ = 0 to 64 do
    acc := Int64.add !acc (Rng.next_int64 r)
  done;
  !acc

let pool_run_deterministic (n, jobs, seed) =
  let fill () =
    let slots = Array.make n 0L in
    Pool.run ~n (fun i -> slots.(i) <- task seed i);
    slots
  in
  Pool.with_jobs 1 fill = Pool.with_jobs jobs fill

let pool_map_rng_deterministic (n, jobs, seed) =
  let xs = Array.init n Fun.id in
  let map () =
    Pool.parallel_array_map_rng (Rng.make seed)
      (fun r i -> Int64.add (Rng.next_int64 r) (Int64.of_int i))
      xs
  in
  Pool.with_jobs 1 map = Pool.with_jobs jobs map

let exec =
  [
    Prop.make ~name:"exec/pool-run-jobs-invariant" ~show:show_pool_case
      gen_pool_case pool_run_deterministic;
    Prop.make ~name:"exec/pool-map-rng-jobs-invariant" ~show:show_pool_case
      gen_pool_case pool_map_rng_deterministic;
  ]

(* -- execution engines: lib/vm vs the frozen reference interpreter --------- *)

module Interp = Yali_ir.Interp
module Execution = Yali_vm.Execution

(* One case = one generated program pushed through every registered entry
   (the 26 of {!Passdb.all}) and executed under both engines on seeded
   inputs.  The engines must agree on the FULL outcome — output, foutput,
   exit value, steps and abstract cost, not just the observation — and on
   the exception classification (the exact [Trap] message vs
   [Out_of_fuel]).  Entries whose transforms crash or fail the verifier are
   skipped here: those are translation-validation findings, and unverified
   SSA is outside the VM's exactness contract (vm.mli). *)
let engine_fuel = 200_000

let gen_engine_case (rng : Rng.t) =
  (Gen.program (Rng.split_ix rng 0), Rng.split_ix rng 1)

let show_engine_case ((p : Yali_minic.Ast.program), _) =
  Yali_minic.Pp.program_to_string p

(* [law rng e m] for every registered entry [e] and its output [m] on the
   generated program; a lowering or transform crash is skipped, as another
   oracle's finding *)
let through_entries law ((p : Yali_minic.Ast.program), (rng : Rng.t)) : bool =
  match Yali_minic.Lower.lower_program p with
  | exception _ -> true
  | m0 ->
      let entry_ok k (e : Passdb.entry) =
        match Passdb.apply e (Rng.split_ix rng (1 + k)) m0 with
        | exception _ -> true
        | m -> law rng e m
      in
      List.for_all Fun.id (List.mapi entry_ok Passdb.all)

(* a property over generated programs, shrunk by statements *)
let program_prop name law =
  Prop.make ~name ~show:show_engine_case
    ~candidates:(fun (p, rng) -> List.map (fun q -> (q, rng)) (Shrink.candidates p))
    ~measure:(fun (p, _) -> Shrink.stmt_count p)
    gen_engine_case (through_entries law)

let vm_matches_interp (rng : Rng.t) (e : Passdb.entry) m : bool =
  let inputs =
    Yali_adapt.Fitness.inputs_for (Rng.split_ix rng 0) ~vectors:2 ~len:32
  in
  if Yali_ir.Verify.check_module m <> [] then true
  else
    let fuel = engine_fuel * e.efuel in
    let cp = Yali_vm.Vm.compile m in
    Array.for_all
      (fun input ->
        Execution.agree
          (Execution.classify (fun () -> Interp.run ~fuel m input))
          (Execution.classify (fun () -> Yali_vm.Vm.run_compiled ~fuel cp input)))
      inputs

let engines = [ program_prop "engines/vm-vs-interp-differential" vm_matches_interp ]

(* -- ir: the dominator tree and frontiers against dominance by deletion ---- *)

(* [a] strictly dominates [b] iff [a <> b], [a] is reachable and deleting
   [a] cuts [b] off from the entry: one search per deleted block.  Gives
   reachability and that strict relation. *)
let by_deletion (g : Yali_ir.Cfg.t) : bool array * (int -> int -> bool) =
  let n = Yali_ir.Cfg.size g in
  let reach_without cut =
    let seen = Array.make n false in
    let rec go i =
      if i <> cut && not seen.(i) then (
        seen.(i) <- true;
        List.iter go g.succ.(i))
    in
    go g.entry;
    seen
  in
  let reach = reach_without (-1) in
  let cut = Array.init n reach_without in
  (reach, fun a b -> a <> b && reach.(a) && not cut.(a).(b))

(* {!Yali_ir.Dominance} against dominance by deletion on every pair of
   reachable blocks; each reachable non-entry block's idom must be a
   strict dominator that every other strict dominator dominates. *)
let dominator_tree_ok (g : Yali_ir.Cfg.t) : bool =
  let n = Yali_ir.Cfg.size g in
  let reach, strictly = by_deletion g in
  let d = Yali_ir.Dominance.compute g in
  let ok = ref true in
  for b = 0 to n - 1 do
    if Yali_ir.Dominance.reachable d b <> reach.(b) then ok := false;
    if reach.(b) then begin
      for a = 0 to n - 1 do
        if reach.(a) && Yali_ir.Dominance.dominates d a b <> (a = b || strictly a b)
        then ok := false
      done;
      match Yali_ir.Dominance.idom d b with
      | None -> if b <> g.entry then ok := false
      | Some p ->
          if not (strictly p b) then ok := false;
          for a = 0 to n - 1 do
            if strictly a b && a <> p && not (strictly a p) then ok := false
          done
    end
  done;
  !ok

(* The dominance frontier by its definition: for every reachable [a],
   {!Yali_ir.Dominance.frontiers} holds, as a set, exactly the reachable
   [b] such that [a] dominates some reachable predecessor of [b] and does
   not strictly dominate [b].  mem2reg places its phis from these. *)
let frontiers_ok (g : Yali_ir.Cfg.t) : bool =
  let n = Yali_ir.Cfg.size g in
  let reach, strictly = by_deletion g in
  let df = Yali_ir.Dominance.frontiers g (Yali_ir.Dominance.compute g) in
  let blocks = List.init n Fun.id in
  List.for_all
    (fun a ->
      (not reach.(a))
      ||
      let dominates p = reach.(p) && (p = a || strictly a p) in
      List.sort_uniq compare df.(a)
      = List.filter
          (fun b ->
            reach.(b) && List.exists dominates g.pred.(b) && not (strictly a b))
          blocks)
    blocks

(* The natural loops by their definition, on reachable blocks: the
   headers of {!Yali_ir.Loops.compute} are exactly the blocks with a
   reachable predecessor that they dominate, those predecessors are the
   loop's latches, its body is the header plus every block that reaches a
   latch on a path that never enters the header (a forward search from
   each block), [size] counts the body, and [depth_map] counts the loops
   that hold each block.  LICM hoists out of these bodies. *)
let loops_ok (g : Yali_ir.Cfg.t) : bool =
  let n = Yali_ir.Cfg.size g in
  let reach, strictly = by_deletion g in
  let t = Yali_ir.Loops.compute g (Yali_ir.Dominance.compute g) in
  let blocks = List.init n Fun.id in
  let latches h =
    List.filter
      (fun u -> reach.(u) && (u = h || strictly h u))
      (List.sort_uniq compare g.pred.(h))
  in
  let body h ls =
    Array.init n (fun b ->
        b = h
        ||
        let seen = Array.make n false in
        let rec go i =
          i <> h && (not seen.(i))
          && (seen.(i) <- true;
              List.mem i ls || List.exists go g.succ.(i))
        in
        go b)
  in
  let headers = List.filter (fun h -> reach.(h) && latches h <> []) blocks in
  let bodies = List.map (fun h -> body h (latches h)) headers in
  let found =
    List.sort
      (fun (a : Yali_ir.Loops.loop) b -> compare a.header b.header)
      (List.filter (fun (l : Yali_ir.Loops.loop) -> reach.(l.header)) t.loops)
  in
  let on_reachable (a : bool array) (b : bool array) =
    List.for_all (fun i -> (not reach.(i)) || a.(i) = b.(i)) blocks
  in
  let depth = Yali_ir.Loops.depth_map t in
  List.map (fun (l : Yali_ir.Loops.loop) -> l.header) found = headers
  && List.for_all2
       (fun (l : Yali_ir.Loops.loop) want ->
         List.sort_uniq compare (List.filter (fun u -> reach.(u)) l.latches)
         = latches l.header
         && l.size
            = Array.fold_left (fun k b -> if b then k + 1 else k) 0 l.body
         && on_reachable l.body want)
       found bodies
  && List.for_all
       (fun b ->
         (not reach.(b))
         || depth.(b) = List.length (List.filter (fun w -> w.(b)) bodies))
       blocks

(* [check] on the CFG of every function of the module; a function with no
   blocks or a repeated label is the verifier's finding *)
let every_cfg check _ _ (m : Yali_ir.Irmod.t) : bool =
  List.for_all
    (fun (f : Yali_ir.Func.t) ->
      f.blocks = []
      ||
      let g = Yali_ir.Cfg.of_func f in
      g.n_blocks <> List.length f.blocks || check g)
    m.funcs

let ir =
  [
    program_prop "ir/dominators-vs-removal" (every_cfg dominator_tree_ok);
    program_prop "ir/frontiers-vs-definition" (every_cfg frontiers_ok);
    program_prop "ir/loops-vs-definition" (every_cfg loops_ok);
  ]

(* -- serve: the binary codec against the textual Pp path -------------------- *)

module Codec = Yali_serve.Codec
module Wire = Yali_serve.Wire

(* One case = one generated program pushed through every registered entry;
   each resulting module must survive encode/decode with full structural
   identity (high-water marks included, [Stdlib.compare] so NaN constants
   count as themselves), print bit-identically under Pp, and re-encode to
   the identical blob.  Entries whose transforms crash are skipped — those
   are translation-validation findings. *)
let codec_roundtrip _ _ m : bool =
  let blob = Codec.encode_module m in
  match Codec.decode_module blob with
  | exception Yali_util.Bin.Corrupt _ -> false
  | m' ->
      Stdlib.compare m' m = 0
      && Yali_ir.Pp.module_to_string m' = Yali_ir.Pp.module_to_string m
      && String.equal (Codec.encode_module m') blob

let gen_wire_case (rng : Rng.t) =
  let blob n = String.init (Rng.int rng n) (fun _ -> Char.chr (Rng.int rng 256)) in
  let fmt () =
    match Rng.int rng 3 with
    | 0 -> Wire.Binary
    | 1 -> Wire.Minic
    | _ -> Wire.Textual
  in
  let rq =
    match Rng.int rng 5 with
    | 0 -> Wire.Classify { fmt = fmt (); blob = blob 64 }
    | 1 -> Wire.Ping
    | 2 -> Wire.Stats
    | 3 -> Wire.Shutdown
    | _ -> Wire.Margins { fmt = fmt (); blob = blob 64 }
  in
  let rs =
    match Rng.int rng 7 with
    | 0 ->
        Wire.Class
          {
            cls = Rng.int rng 104;
            queue_us = Rng.int rng 1_000_000;
            batch = 1 + Rng.int rng 64;
          }
    | 1 -> Wire.Error (blob 32)
    | 2 -> Wire.Busy
    | 3 -> Wire.Pong
    | 4 -> Wire.Stats_json (blob 128)
    | 5 -> Wire.Bye
    | _ ->
        (* scores include negatives and non-round values so the round trip
           exercises real f64 bit patterns *)
        Wire.Margins_r
          {
            scores =
              Array.init (Rng.int rng 8) (fun _ ->
                  (2.0 *. Rng.float rng) -. 1.0);
            queue_us = Rng.int rng 1_000_000;
            batch = 1 + Rng.int rng 64;
          }
  in
  (rq, rs)

let show_wire_case (rq, rs) =
  Printf.sprintf "wire request tag %d, response tag %d"
    (match rq with
    | Wire.Classify _ -> 1
    | Wire.Ping -> 2
    | Wire.Stats -> 3
    | Wire.Shutdown -> 4
    | Wire.Margins _ -> 5)
    (match rs with
    | Wire.Class _ -> 0
    | Wire.Error _ -> 1
    | Wire.Busy -> 2
    | Wire.Pong -> 3
    | Wire.Stats_json _ -> 4
    | Wire.Bye -> 5
    | Wire.Margins_r _ -> 6)

let wire_roundtrip (rq, rs) =
  Wire.decode_request (Wire.encode_request rq) = rq
  && Wire.decode_response (Wire.encode_response rs) = rs

let serve =
  [
    program_prop "serve/codec-roundtrip" codec_roundtrip;
    Prop.make ~name:"serve/wire-roundtrip" ~show:show_wire_case gen_wire_case
      wire_roundtrip;
  ]

(* -- corpus: the streaming store and out-of-core training vs the in-memory
   reference paths (DESIGN.md §12) ------------------------------------------- *)

module Corpus_gen = Yali_corpus.Gen
module Corpus_store = Yali_corpus.Store
module Corpus_embed = Yali_corpus.Embed

let gen_corpus_case (rng : Rng.t) =
  let spec =
    {
      Corpus_gen.dataset = "poj";
      seed = Rng.int rng 10_000;
      n_classes = 2 + Rng.int rng 3;
      per_class = 2 + Rng.int rng 3;
    }
  in
  (spec, 1 + Rng.int rng 5, Rng.int rng 1_000_000)

let show_corpus_case (spec, rps, train_seed) =
  Printf.sprintf "corpus %s records_per_shard=%d train_seed=%d"
    (Corpus_gen.spec_to_string spec)
    rps train_seed

(* The sharded store against the in-memory reference path: same modules
   (structural identity), same labels, same order, index metadata intact. *)
let corpus_store_roundtrip (spec, rps, _) =
  Yali_util.Fs.with_temp_dir "oracle" (fun dir ->
      Corpus_gen.generate ~dir ~records_per_shard:rps spec;
      let r = Corpus_store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Corpus_store.close r)
        (fun () ->
          let reference = Corpus_gen.materialize spec in
          Corpus_store.length r = Array.length reference
          && Corpus_store.meta r = Corpus_gen.spec_to_string spec
          && Corpus_store.n_classes r = spec.Corpus_gen.n_classes
          && Array.for_all
               (fun i ->
                 let m_ref, l_ref = reference.(i) in
                 let l, m = Corpus_store.get r i in
                 l = l_ref && l = Corpus_store.label r i && m = m_ref)
               (Array.init (Array.length reference) Fun.id)))

(* One trainer, two sources: the on-disk feature file read as one block
   and the in-memory matrix must give every snapshot-able model a
   byte-identical Model.save blob (the DESIGN.md §12 equivalence
   contract). *)
let corpus_stream_train_bit_identical (spec, rps, train_seed) =
  Yali_util.Fs.with_temp_dir "oracle" (fun dir ->
      Corpus_gen.generate ~dir ~records_per_shard:rps spec;
      let r = Corpus_store.open_ dir in
      Fun.protect
        ~finally:(fun () -> Corpus_store.close r)
        (fun () ->
          let embedding = Yali_embeddings.Embedding.histogram in
          let x, ys = Corpus_embed.to_fmat ~embedding r in
          let path = Filename.concat dir "features.yfmb" in
          let d = Corpus_embed.to_file ~embedding r ~out:path in
          let fr = Ml.Fblock.open_reader path in
          Fun.protect
            ~finally:(fun () -> Ml.Fblock.close_reader fr)
            (fun () ->
              let src = Ml.Fblock.Disk fr in
              d = x.F.d
              && Ml.Fblock.rows src = x.F.n
              (* the parallel embed path writes the same bits the
                 sequential one computes *)
              && (Ml.Fblock.materialize src).F.data = x.F.data
              && List.for_all
                   (fun kind ->
                     let inmem =
                       Ml.Model.train_snapshot kind (Rng.make train_seed)
                         ~n_classes:spec.Corpus_gen.n_classes
                         (Ml.Fblock.Mem x) ys
                     in
                     let streamed =
                       Ml.Model.train_snapshot ~block_rows:(max 1 x.F.n)
                         kind (Rng.make train_seed)
                         ~n_classes:spec.Corpus_gen.n_classes src ys
                     in
                     match (inmem, streamed) with
                     | Some a, Some b -> Ml.Model.save a = Ml.Model.save b
                     | _ -> false)
                   Ml.Model.snapshot_kinds)))

(* Feature standardisation is blocking-invariant: fit_stream must equal the
   row-array fit bit for bit at ANY block size (sum order is preserved),
   and the on-disk feature file must round-trip doubles exactly. *)
let fblock_fit_stream_blocking (n_classes, xs, _, _, seed) =
  ignore n_classes;
  let x = F.of_rows xs in
  let block_rows = 1 + (seed mod 7) in
  Yali_util.Fs.with_temp_dir "oracle" (fun dir ->
      let path = Filename.concat dir "m.yfmb" in
      Ml.Fblock.to_file path x;
      let fr = Ml.Fblock.open_reader path in
      Fun.protect
        ~finally:(fun () -> Ml.Fblock.close_reader fr)
        (fun () ->
          let disk = Ml.Fblock.Disk fr in
          let s_ref = Ml.Features.fit xs in
          let s_mem = Ml.Features.fit_stream ~block_rows (Ml.Fblock.Mem x) in
          let s_disk = Ml.Features.fit_stream ~block_rows disk in
          let under s =
            let c = F.create x.F.n x.F.d in
            Array.blit x.F.data 0 c.F.data 0 (x.F.n * x.F.d);
            Ml.Features.transform_fmat_inplace s c;
            c.F.data
          in
          (Ml.Fblock.materialize disk).F.data = x.F.data
          && under s_mem = under s_ref
          && under s_disk = under s_ref))

let corpus =
  [
    Prop.make ~name:"corpus/store-roundtrip-vs-materialize"
      ~show:show_corpus_case gen_corpus_case corpus_store_roundtrip;
    Prop.make ~name:"corpus/stream-train-bit-identical" ~show:show_corpus_case
      gen_corpus_case corpus_stream_train_bit_identical;
    Prop.make ~name:"corpus/fit-stream-blocking-invariant" ~show:show_dataset
      gen_dataset fblock_fit_stream_blocking;
  ]

(* -- adapt: the classifier-in-the-loop evader search (DESIGN.md §14) -------- *)

module Adapt_driver = Yali_adapt.Driver
module Adapt_search = Yali_adapt.Search
module Adapt_pareto = Yali_adapt.Pareto
module Adapt_fitness = Yali_adapt.Fitness
module Adapt_seqspace = Yali_adapt.Seqspace

let gen_adapt_case (rng : Rng.t) =
  let algo =
    List.nth Adapt_search.all (Rng.int rng (List.length Adapt_search.all))
  in
  (Rng.int rng 100_000, algo)

let show_adapt_case (seed, algo) =
  Printf.sprintf "adapt seed=%d algo=%s" seed
    (Adapt_search.algo_to_string algo)

(* deliberately tiny: the properties are scheduling-independence and
   replayability, not search quality *)
let adapt_cfg seed algo =
  {
    Adapt_driver.default with
    a_seed = seed;
    a_algo = algo;
    a_classes = 2;
    a_train_per_class = 3;
    a_challenges_per_class = 1;
    a_models = [ "lr" ];
    a_budget = 10;
    a_batch = 4;
    a_max_len = 3;
    a_vectors = 1;
  }

(* Same seed at any --jobs: identical pass sequences, identical Pareto
   front (structural identity of the whole report), and the front is
   well-formed — cost strictly ascending, no dominated points. *)
let adapt_search_deterministic ((seed, algo) : int * Adapt_search.algo) : bool
    =
  let cfg = adapt_cfg seed algo in
  let run_at jobs =
    Yali_exec.Pool.with_jobs jobs (fun () -> Adapt_driver.run cfg)
  in
  let r1 = run_at 1 in
  let r3 = run_at 3 in
  Adapt_driver.reports_identical r1 r3
  && List.for_all
       (fun (f : Adapt_driver.model_front) ->
         Adapt_pareto.well_formed f.mf_front
         && f.mf_front <> []
         && List.exists
              (fun (p : Adapt_pareto.point) -> p.Adapt_pareto.p_cost = 1.0)
              f.mf_front
            (* the identity evader anchors every front *)
         )
       r1.Adapt_driver.r_fronts

(* Every front point replays from its printed sequence alone: a bare
   [Fitness.evaluate] (no search, no memo) of [Seqspace.of_string p_seq]
   under that model's evaluation rng gives the point's evasion and cost
   bit for bit.  Two kinds, so each must use its own rng. *)
let adapt_front_replays ((seed, algo) : int * Adapt_search.algo) : bool =
  let cfg =
    { (adapt_cfg seed algo) with a_models = [ "lr"; "knn" ]; a_budget = 16 }
  in
  let prep = Adapt_driver.prepare cfg in
  let report = Adapt_driver.search_fronts cfg prep in
  let bits = Int64.bits_of_float in
  List.for_all Fun.id
    (List.mapi
       (fun ix (f : Adapt_driver.model_front) ->
         let oracle =
           Adapt_driver.oracle_of_snapshot
             (List.assoc f.mf_kind prep.p_snapshots)
         in
         List.for_all
           (fun (p : Adapt_pareto.point) ->
             let e =
               Adapt_fitness.evaluate ~oracle ~lambda:cfg.a_lambda
                 ~fuel:cfg.a_fuel prep.p_challenges
                 (Adapt_driver.eval_rng cfg ix)
                 (Adapt_seqspace.of_string p.p_seq)
             in
             bits e.e_evasion = bits p.p_evasion
             && bits e.e_cost = bits p.p_cost)
           f.mf_front)
       report.r_fronts)

let adapt =
  [
    Prop.make ~name:"adapt/search-determinism" ~show:show_adapt_case
      ~max_count:6 gen_adapt_case adapt_search_deterministic;
    Prop.make ~name:"adapt/front-replays" ~show:show_adapt_case ~max_count:6
      gen_adapt_case adapt_front_replays;
  ]

(* -- neural minibatch kernels vs lib/ml/reference.ml (DESIGN.md §15) ------- *)

module Graph = Yali_embeddings.Graph

(* gaussian class blobs straight into an Fmat; data is derived from an
   explicit seed inside the law so cases replay in isolation *)
let nn_blobs (seed : int) ~(n : int) ~(d : int) ~(n_classes : int) :
    F.t * int array =
  let rng = Rng.make seed in
  let x = F.create n d in
  let ys = Array.init n (fun i -> i mod n_classes) in
  for i = 0 to n - 1 do
    for k = 0 to d - 1 do
      x.F.data.((i * d) + k) <-
        Rng.gaussian rng +. (if k = ys.(i) then 6.0 else 0.0)
    done
  done;
  (x, ys)

let gen_nn_case (rng : Rng.t) =
  let d = 4 + Rng.int rng 28 in
  let n_classes = 2 + Rng.int rng 4 in
  let batch = 1 + Rng.int rng 48 in
  (d, n_classes, batch, Rng.int rng 1_000_000)

let show_nn_case (d, n_classes, batch, seed) =
  Printf.sprintf "nn d=%d classes=%d batch=%d seed=%d" d n_classes batch seed

(* Nn.train_batch (window kernels, sharded over the pool) against the
   naive Reference.Nnb on the same net: losses, input gradients and every
   weight bit must agree after several steps.  Cnn.build_net covers both the
   dense-tail (d < 16) and conv-stack architectures. *)
let nn_kernel_vs_reference (d, n_classes, batch, seed) =
  let build () = Ml.Cnn.build_net (Rng.make seed) ~d_in:d ~n_classes in
  let kernel = build () and naive = build () in
  let krng = Rng.make (seed + 1) and nrng = Rng.make (seed + 1) in
  let steps_ok = ref true in
  for step = 0 to 2 do
    let x, ys = nn_blobs (seed + 10 + step) ~n:batch ~d ~n_classes in
    let lr = 0.01 /. (1.0 +. (0.1 *. float_of_int step)) in
    let kl, kdx = Ml.Nn.train_batch ~lr ~rng:krng kernel x ys in
    let nl, ndx = Ml.Reference.Nnb.train_batch ~lr ~rng:nrng naive x ys in
    steps_ok :=
      !steps_ok
      && same_bits [| kl |] [| nl |]
      && same_bits kdx.F.data ndx.F.data
  done;
  !steps_ok
  && same_dump (Ml.Nn.dump_weights kernel) (Ml.Nn.dump_weights naive)

let gen_graph_case (rng : Rng.t) =
  let n = 6 + Rng.int rng 14 in
  let feat_dim = 3 + Rng.int rng 4 in
  (n, feat_dim, Rng.int rng 1_000_000)

let show_graph_case (n, feat_dim, seed) =
  Printf.sprintf "graphs n=%d feat_dim=%d seed=%d" n feat_dim seed

let nn_random_graphs (seed : int) ~(n : int) ~(feat_dim : int) :
    Graph.t array * int array =
  let rng = Rng.make seed in
  let graphs =
    Array.init n (fun i ->
        let nodes = 3 + Rng.int rng 8 + if i mod 2 = 0 then 0 else 4 in
        (* counts 0..4, a zero count planted as 0.0 or -0.0 *)
        let feats =
          Array.init nodes (fun _ ->
              Array.init feat_dim (fun _ ->
                  match Rng.int rng 5 with
                  | 0 -> if Rng.bool rng then 0.0 else -0.0
                  | k -> float_of_int k))
        in
        let edges =
          List.init (nodes - 1) (fun k -> (k, k + 1, Graph.Control))
        in
        { Graph.node_feats = feats; edges; feat_dim })
  in
  (graphs, Array.init n (fun i -> i mod 2))

let nn_params_small = { Ml.Dgcnn.default_params with epochs = 1; batch = 8 }

(* The full dgcnn minibatch trainer (parallel forward shards, batched head
   step, tree-reduced graph-conv gradients) against the sequential naive
   Reference.Dgcnn. *)
let dgcnn_kernel_vs_reference (n, feat_dim, seed) =
  let graphs, ys = nn_random_graphs seed ~n ~feat_dim in
  let kernel =
    Ml.Dgcnn.train ~params:nn_params_small (Rng.make seed) ~n_classes:2
      ~feat_dim graphs ys
  in
  let naive =
    Ml.Reference.Dgcnn.train ~params:nn_params_small (Rng.make seed)
      ~n_classes:2 ~feat_dim graphs ys
  in
  same_dump (Ml.Dgcnn.dump_weights kernel) (Ml.Dgcnn.dump_weights naive)

(* Sharded gradient accumulation reduces in a fixed tree order, so weights
   are a function of the data alone, never of the worker count. *)
let nn_jobs_invariant (d, n_classes, batch, seed) =
  let train jobs =
    Pool.with_jobs jobs (fun () ->
        let x, ys =
          nn_blobs (seed + 10) ~n:(3 * batch) ~d ~n_classes
        in
        let params = { Ml.Cnn.default_params with epochs = 1; batch } in
        Ml.Cnn.dump_weights
          (Ml.Cnn.train ~params (Rng.make seed) ~n_classes (Ml.Fblock.Mem x)
             ys))
  in
  same_dump (train 1) (train 4)

let nn =
  [
    Prop.make ~name:"ml/nn-kernel-vs-reference" ~show:show_nn_case
      gen_nn_case nn_kernel_vs_reference;
    Prop.make ~name:"ml/dgcnn-kernel-vs-reference" ~show:show_graph_case
      ~max_count:12 gen_graph_case dgcnn_kernel_vs_reference;
    Prop.make ~name:"ml/nn-jobs-invariant" ~show:show_nn_case ~max_count:12
      gen_nn_case nn_jobs_invariant;
  ]

let all = kernels @ metrics @ exec @ engines @ ir @ serve @ corpus @ nn @ adapt

