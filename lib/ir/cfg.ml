(** Control-flow graph of a function over block numbers: each label is
    numbered once, and successors, predecessors, reachability and traversal
    orders are int-indexed. *)

type t = {
  labels : string array;
  index : (string, int) Hashtbl.t;
  n_blocks : int;
  succ : int list array;
  pred : int list array;
  entry : int;
}

let of_func (f : Func.t) : t =
  let index = Hashtbl.create 16 and rev_labels = ref [] in
  let intern l =
    if not (Hashtbl.mem index l) then (
      Hashtbl.add index l (Hashtbl.length index);
      rev_labels := l :: !rev_labels)
  in
  intern (Func.entry f).label;
  List.iter (fun (b : Block.t) -> intern b.label) f.blocks;
  let n_blocks = Hashtbl.length index in
  (* unknown branch targets are numbered after every block, as met *)
  List.iter (fun b -> List.iter intern (Block.successors b)) f.blocks;
  let n = Hashtbl.length index in
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (b : Block.t) ->
      let i = Hashtbl.find index b.label in
      let ss = List.map (Hashtbl.find index) (Block.successors b) in
      succ.(i) <- ss;
      List.iter (fun s -> pred.(s) <- i :: pred.(s)) ss)
    f.blocks;
  { labels = Array.of_list (List.rev !rev_labels); index; n_blocks; succ; pred; entry = 0 }

let size (g : t) = Array.length g.labels
let label (g : t) i = g.labels.(i)
let index (g : t) l = Hashtbl.find g.index l
let find (g : t) l = Hashtbl.find_opt g.index l

(** Reverse post-order over reachable blocks, starting at the entry. *)
let reverse_postorder (g : t) : int list =
  let seen = Array.make (size g) false in
  let out = ref [] in
  let rec dfs i =
    if not seen.(i) then (
      seen.(i) <- true;
      List.iter dfs g.succ.(i);
      out := i :: !out)
  in
  dfs g.entry;
  !out

(** Which blocks the entry reaches. *)
let reachable (g : t) : bool array =
  let seen = Array.make (size g) false in
  List.iter (fun i -> seen.(i) <- true) (reverse_postorder g);
  seen

(** Number of edges in the CFG. *)
let edge_count (g : t) =
  Array.fold_left (fun acc ss -> acc + List.length ss) 0 g.succ

(** Does the CFG contain a cycle (i.e. a loop)? *)
let has_cycle (g : t) : bool =
  (* 0 = white, 1 = grey, 2 = black *)
  let color = Array.make (size g) 0 in
  let rec dfs i =
    match color.(i) with
    | 1 -> true
    | 2 -> false
    | _ ->
        color.(i) <- 1;
        let cyc = List.exists dfs g.succ.(i) in
        color.(i) <- 2;
        cyc
  in
  dfs g.entry
