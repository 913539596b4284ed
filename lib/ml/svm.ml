(** Linear support-vector machine: one-vs-rest hinge loss trained with an
    averaged Pegasos-style stochastic subgradient method — SciKit's [svm]
    counterpart at laptop scale.

    The bias is folded in as a constant feature; the returned predictor uses
    the *average* of the weight iterates, which stabilises the one-vs-rest
    scores when the number of classes is large (the 104-class grids of the
    paper's Figures 7–12).

    Each step scores every class of its sample in one {!Fmat.mv_into}
    (four independent chains, each class in ascending feature order)
    before the per-class updates, bit-identical to the frozen loop that
    read each class's score just before its update ([Reference.Svm]). *)

module Rng = Yali_util.Rng

type t = {
  scaler : Features.scaler;
  weights : Fmat.t;  (** n_classes x (d+1); last column is the bias *)
  n_classes : int;
}

type params = { epochs : int; lambda : float; step_offset : float }

let default_params = { epochs = 30; lambda = 1e-4; step_offset = 100.0 }

let augment (x : float array) : float array =
  let d = Array.length x in
  Array.init (d + 1) (fun j -> if j < d then x.(j) else 1.0)

(* standardised matrix -> matrix with a trailing constant-1 column *)
let augment_fmat (x : Fmat.t) : Fmat.t =
  let n = x.Fmat.n and d = x.Fmat.d in
  let a = Fmat.create n (d + 1) in
  for i = 0 to n - 1 do
    Array.blit x.Fmat.data (i * d) a.Fmat.data (i * (d + 1)) d;
    a.Fmat.data.((i * (d + 1)) + d) <- 1.0
  done;
  a

(** Pegasos over blocks: per-block uniform draws, with the step counter and
    tail-averaging window global.  A source that is one block — any [Mem]
    source given no [block_rows] — is standardised and augmented once, and
    its draws are global: in memory and from a one-block feature file, the
    same model. *)
let train ?(params = default_params) ?block_rows (rng : Rng.t)
    ~(n_classes : int) (src : Fblock.source) (ys : int array) : t =
  let scaler = Features.fit_stream ?block_rows src in
  let n = Fblock.rows src in
  let d = if n = 0 then 1 else Fblock.dim src + 1 in
  let w = Fmat.create n_classes d in
  let w_sum = Fmat.create n_classes d in
  let wd = w.Fmat.data in
  let t_step = ref 0 in
  let n_avg = ref 0 in
  let scores = Array.make n_classes 0.0 in
  let each_block =
    Fblock.prepared ?block_rows src (fun block ->
        Features.transform_fmat_inplace scaler block;
        augment_fmat block)
  in
  for _epoch = 0 to params.epochs - 1 do
    each_block (fun _ lo xs ->
        let bn = xs.Fmat.n in
        let xd = xs.Fmat.data in
        for _ = 0 to bn - 1 do
          let i = Rng.int rng bn in
          incr t_step;
          let eta =
            1.0
            /. (params.lambda *. (float_of_int !t_step +. params.step_offset))
          in
          let xbase = i * d in
          (* every class's score before any update: class c's update
             touches only row c, which only class c's score reads *)
          Array.fill scores 0 n_classes 0.0;
          Fmat.mv_into w xd ~off:xbase scores;
          for c = 0 to n_classes - 1 do
            let y = if ys.(lo + i) = c then 1.0 else -1.0 in
            let margin = y *. scores.(c) in
            let shrink = 1.0 -. (eta *. params.lambda) in
            let wbase = c * d in
            if margin < 1.0 then begin
              let s = eta *. y in
              for j = 0 to d - 1 do
                Array.unsafe_set wd (wbase + j)
                  ((Array.unsafe_get wd (wbase + j) *. shrink)
                  +. (s *. Array.unsafe_get xd (xbase + j)))
              done
            end
            else
              for j = 0 to d - 1 do
                Array.unsafe_set wd (wbase + j)
                  (Array.unsafe_get wd (wbase + j) *. shrink)
              done
          done;
          (* tail averaging: accumulate the second half of the trajectory *)
          if 2 * !t_step > params.epochs * n then begin
            incr n_avg;
            Fmat.axpy ~a:1.0 w w_sum
          end
        done)
  done;
  let weights =
    if !n_avg > 0 then Fmat.scale (1.0 /. float_of_int !n_avg) w_sum else w
  in
  { scaler; weights; n_classes }

let of_parts ~(scaler : Features.scaler) ~(weights : Fmat.t) ~(n_classes : int)
    : t =
  { scaler; weights; n_classes }

let input_dim (t : t) = Features.scaler_dim t.scaler

(** Per-class one-vs-rest scores. *)
let margins (t : t) (x : float array) : float array =
  let x = augment (Features.transform t.scaler x) in
  Array.init t.n_classes (fun c -> Fmat.dot_row_vec t.weights c x)

let size_bytes (t : t) : int = 8 * t.weights.n * t.weights.d

module Bin = Yali_util.Bin

let to_bin b (t : t) =
  Features.scaler_to_bin b t.scaler;
  Fmat.to_bin b t.weights;
  Bin.w_u32 b t.n_classes

let of_bin r : t =
  let scaler = Features.scaler_of_bin r in
  let weights = Fmat.of_bin r in
  let n_classes = Bin.r_u32 r in
  if weights.Fmat.n <> n_classes then Bin.fail r "svm shape mismatch";
  (* the weights carry one more column than the scaler: the folded bias *)
  if Features.scaler_dim scaler + 1 <> weights.Fmat.d then
    Bin.fail r "svm scaler/weight width mismatch";
  { scaler; weights; n_classes }
