(** Attributed directed graphs: the common output format of the graph-based
    program representations (CFG, CDFG, ProGraML, …), and the input format of
    the DGCNN classifier.  Mirrors the three-tensor encoding of Brauckmann et
    al.: node attributes, edge list, edge attributes. *)

type edge_type = Control | Data | Call | Memory

type t = {
  node_feats : float array array;  (** [n] rows of dimension [feat_dim] *)
  edges : (int * int * edge_type) list;
  feat_dim : int;
}

let node_count (g : t) = Array.length g.node_feats
let edge_count (g : t) = List.length g.edges

let empty ~feat_dim = { node_feats = [||]; edges = []; feat_dim }

(** Out-adjacency lists, ignoring edge types. *)
let adjacency (g : t) : int list array =
  let adj = Array.make (node_count g) [] in
  List.iter
    (fun (s, d, _) ->
      if s < Array.length adj && d < Array.length adj then
        adj.(s) <- d :: adj.(s))
    g.edges;
  adj

(** Symmetric adjacency (used by graph convolutions). *)
let undirected_adjacency (g : t) : int list array =
  let adj = Array.make (node_count g) [] in
  List.iter
    (fun (s, d, _) ->
      if s < Array.length adj && d < Array.length adj then begin
        adj.(s) <- d :: adj.(s);
        if s <> d then adj.(d) <- s :: adj.(d)
      end)
    g.edges;
  adj

(** Flatten a graph into a fixed-size summary vector: mean and max over node
    features plus degree statistics.  Used when a flat model is asked to
    consume a graph embedding. *)
let to_flat (g : t) : float array =
  let n = node_count g in
  let d = g.feat_dim in
  let out = Array.make ((2 * d) + 4) 0.0 in
  if n > 0 then begin
    for j = 0 to d - 1 do
      let sum = ref 0.0 and mx = ref neg_infinity in
      for i = 0 to n - 1 do
        let v = g.node_feats.(i).(j) in
        sum := !sum +. v;
        if v > !mx then mx := v
      done;
      out.(j) <- !sum /. float_of_int n;
      out.(d + j) <- !mx
    done;
    out.((2 * d) + 0) <- float_of_int n;
    out.((2 * d) + 1) <- float_of_int (edge_count g);
    out.((2 * d) + 2) <-
      float_of_int (edge_count g) /. float_of_int (max 1 n);
    out.((2 * d) + 3) <-
      List.fold_left
        (fun acc (_, _, ty) -> if ty = Data then acc +. 1.0 else acc)
        0.0 g.edges
  end;
  out
