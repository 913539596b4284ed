(** Flat feature matrices: one contiguous row-major [float array] per
    dataset.  See the interface for the layout contract. *)

type t = { n : int; d : int; data : float array }

let create n d = { n; d; data = Array.make (n * d) 0.0 }

(* Uninitialised storage for results that are fully overwritten before
   being read (transposes, gathers, elementwise outputs): skips the
   zero-fill pass of {!create}, which is measurable in the batched
   training kernels.  Callers MUST write every cell. *)
let create_uninit n d = { n; d; data = Array.create_float (n * d) }

let init n d f =
  let m = create n d in
  for i = 0 to n - 1 do
    for j = 0 to d - 1 do
      m.data.((i * d) + j) <- f i j
    done
  done;
  m

let get m i j = m.data.((i * m.d) + j)
let set m i j v = m.data.((i * m.d) + j) <- v

let set_row (m : t) (i : int) (src : float array) : unit =
  if Array.length src <> m.d then invalid_arg "Fmat.set_row: width mismatch";
  Array.blit src 0 m.data (i * m.d) m.d

let of_rows (rows : float array array) : t =
  match Array.length rows with
  | 0 -> create 0 0
  | n ->
      let d = Array.length rows.(0) in
      let m = create n d in
      Array.iteri
        (fun i r ->
          if Array.length r <> d then invalid_arg "Fmat.of_rows: ragged rows";
          Array.blit r 0 m.data (i * d) d)
        rows;
      m

let of_rows_into (dst : t) (rows : float array array) : unit =
  if Array.length rows <> dst.n then
    invalid_arg "Fmat.of_rows_into: row count mismatch";
  Array.iteri
    (fun i r ->
      if Array.length r <> dst.d then
        invalid_arg "Fmat.of_rows_into: width mismatch";
      Array.blit r 0 dst.data (i * dst.d) dst.d)
    rows

let gather_rows_into (dst : t) (src : t) (idx : int array) ~(lo : int)
    ~(len : int) : unit =
  if src.d <> dst.d then invalid_arg "Fmat.gather_rows_into: width mismatch";
  if dst.n <> len then invalid_arg "Fmat.gather_rows_into: row count mismatch";
  if lo < 0 || lo + len > Array.length idx then
    invalid_arg "Fmat.gather_rows_into: index range out of bounds";
  for i = 0 to len - 1 do
    Array.blit src.data (idx.(lo + i) * src.d) dst.data (i * dst.d) dst.d
  done

let row_copy (m : t) (i : int) : float array = Array.sub m.data (i * m.d) m.d

let row_into (m : t) (i : int) (dst : float array) : unit =
  if Array.length dst <> m.d then invalid_arg "Fmat.row_into: width mismatch";
  Array.blit m.data (i * m.d) dst 0 m.d

let to_rows (m : t) : float array array = Array.init m.n (row_copy m)

let of_fn ~(n : int) (f : int -> float array) : t =
  if n = 0 then create 0 0
  else begin
    let r0 = f 0 in
    let m = create n (Array.length r0) in
    set_row m 0 r0;
    for i = 1 to n - 1 do
      set_row m i (f i)
    done;
    m
  end

let parallel_of_fn ~(n : int) (f : int -> float array) : t =
  if n = 0 then create 0 0
  else begin
    let r0 = f 0 in
    let m = create n (Array.length r0) in
    set_row m 0 r0;
    (* each task writes only its own row: deterministic at any [jobs] *)
    Yali_exec.Pool.run ~n:(n - 1) (fun j -> set_row m (j + 1) (f (j + 1)));
    m
  end

let dot_row_vec (m : t) (i : int) (v : float array) : float =
  if Array.length v < m.d then invalid_arg "Fmat.dot_row_vec: vector too short";
  let base = i * m.d in
  let acc = ref 0.0 in
  for j = 0 to m.d - 1 do
    acc := !acc +. (Array.unsafe_get m.data (base + j) *. Array.unsafe_get v j)
  done;
  !acc

let sq_norm_row (m : t) (i : int) : float =
  let base = i * m.d in
  let acc = ref 0.0 in
  for j = 0 to m.d - 1 do
    let x = Array.unsafe_get m.data (base + j) in
    acc := !acc +. (x *. x)
  done;
  !acc

let copy (m : t) : t = { m with data = Array.copy m.data }

(* the straightforward i-k-j triple loop: each output cell one chain from
   0.0 in ascending k, skipping the terms whose left factor is 0.0 or -0.0.
   The frozen reference trainers run it, and the oracles hold Nn's window
   kernels (and so Dgcnn's graph convolutions) to it bit for bit. *)
let matmul_naive (a : t) (b : t) : t =
  if a.d <> b.n then invalid_arg "Fmat.matmul_naive: dimension mismatch";
  let c = create a.n b.d in
  for i = 0 to a.n - 1 do
    for k = 0 to a.d - 1 do
      let aik = a.data.((i * a.d) + k) in
      if aik <> 0.0 then
        for j = 0 to b.d - 1 do
          c.data.((i * c.d) + j) <-
            c.data.((i * c.d) + j) +. (aik *. b.data.((k * b.d) + j))
        done
    done
  done;
  c

let transpose (m : t) : t =
  let r = create_uninit m.d m.n in
  for i = 0 to m.n - 1 do
    let base = i * m.d in
    for j = 0 to m.d - 1 do
      Array.unsafe_set r.data ((j * m.n) + i)
        (Array.unsafe_get m.data (base + j))
    done
  done;
  r

let map f (m : t) : t = { m with data = Array.map f m.data }

let add (a : t) (b : t) : t =
  if a.n <> b.n || a.d <> b.d then
    invalid_arg "Fmat.add: dimension mismatch";
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let scale (k : float) (m : t) : t = map (fun x -> k *. x) m

(** In-place y += a * x. *)
let axpy ~(a : float) (x : t) (y : t) : unit =
  if x.n <> y.n || x.d <> y.d then
    invalid_arg "Fmat.axpy: dimension mismatch";
  for i = 0 to Array.length x.data - 1 do
    Array.unsafe_set y.data i
      (Array.unsafe_get y.data i +. (a *. Array.unsafe_get x.data i))
  done

(* y.(i) <- y.(i) + sum_j m(i, j) x(off + j): each row one chain from its
   own start value in ascending column order, four rows side by side so
   that four independent chains keep the FPU busy across the fadd
   latency *)
let mv_into (m : t) (x : float array) ~(off : int) (y : float array) : unit =
  let d = m.d and a = m.data in
  if off < 0 || off + d > Array.length x || Array.length y < m.n then
    invalid_arg "Fmat.mv_into: dimension mismatch";
  let acc0 = ref 0.0 and acc1 = ref 0.0 and acc2 = ref 0.0 and acc3 = ref 0.0 in
  let i = ref 0 in
  while !i + 3 < m.n do
    let r0 = !i * d in
    let r1 = r0 + d in
    let r2 = r1 + d in
    let r3 = r2 + d in
    acc0 := Array.unsafe_get y !i;
    acc1 := Array.unsafe_get y (!i + 1);
    acc2 := Array.unsafe_get y (!i + 2);
    acc3 := Array.unsafe_get y (!i + 3);
    for j = 0 to d - 1 do
      let xj = Array.unsafe_get x (off + j) in
      acc0 := !acc0 +. (Array.unsafe_get a (r0 + j) *. xj);
      acc1 := !acc1 +. (Array.unsafe_get a (r1 + j) *. xj);
      acc2 := !acc2 +. (Array.unsafe_get a (r2 + j) *. xj);
      acc3 := !acc3 +. (Array.unsafe_get a (r3 + j) *. xj)
    done;
    Array.unsafe_set y !i !acc0;
    Array.unsafe_set y (!i + 1) !acc1;
    Array.unsafe_set y (!i + 2) !acc2;
    Array.unsafe_set y (!i + 3) !acc3;
    i := !i + 4
  done;
  for i = !i to m.n - 1 do
    let r = i * d in
    acc0 := Array.unsafe_get y i;
    for j = 0 to d - 1 do
      acc0 :=
        !acc0 +. (Array.unsafe_get a (r + j) *. Array.unsafe_get x (off + j))
    done;
    Array.unsafe_set y i !acc0
  done

let mv (m : t) (v : float array) : float array =
  if m.d <> Array.length v then invalid_arg "Fmat.mv: dimension mismatch";
  let y = Array.make m.n 0.0 in
  mv_into m v ~off:0 y;
  y

let random (rng : Yali_util.Rng.t) n d ~scale:s =
  init n d (fun _ _ -> Yali_util.Rng.gaussian rng *. s)

let argmax (v : float array) : int =
  let best = ref 0 in
  Array.iteri (fun i x -> if x > v.(!best) then best := i) v;
  !best

module Bin = Yali_util.Bin

let to_bin b (m : t) =
  Bin.w_u32 b m.n;
  Bin.w_u32 b m.d;
  Bin.w_floats b m.data

let of_bin r : t =
  let n = Bin.r_u32 r in
  let d = Bin.r_u32 r in
  let data = Bin.r_floats r in
  (* divide before multiplying: two u32 fields can overflow [n * d] *)
  if (d > 0 && n > Array.length data / d) || n * d <> Array.length data then
    Bin.fail r
      (Printf.sprintf "fmat %dx%d with %d elements" n d (Array.length data));
  { n; d; data }
