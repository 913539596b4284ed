(** The registry of program embeddings evaluated by the paper (Figure 3):
    three flat vector embeddings and six graph-based ones, all computed from
    the miniature IR. *)

open Yali_ir

type kind =
  | Flat of (Irmod.t -> float array)
  | Graphed of (Irmod.t -> Graph.t)

type t = { name : string; kind : kind }

let histogram = { name = "histogram"; kind = Flat Histogram.of_module }
let milepost = { name = "milepost"; kind = Flat Milepost.of_module }
let ir2vec = { name = "ir2vec"; kind = Flat Ir2vec.of_module }
let cfg = { name = "cfg"; kind = Graphed Graphs.cfg }
let cfg_compact = { name = "cfg_compact"; kind = Graphed Graphs.cfg_compact }
let cdfg = { name = "cdfg"; kind = Graphed Graphs.cdfg }
let cdfg_compact = { name = "cdfg_compact"; kind = Graphed Graphs.cdfg_compact }
let cdfg_plus = { name = "cdfg_plus"; kind = Graphed Graphs.cdfg_plus }
let programl = { name = "programl"; kind = Graphed Graphs.programl }

(** All nine embeddings, in the order of the paper's Figure 5. *)
let all : t list =
  [
    cfg; cfg_compact; cdfg; cdfg_compact; cdfg_plus; programl; ir2vec;
    milepost; histogram;
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let is_flat (e : t) = match e.kind with Flat _ -> true | Graphed _ -> false

(** Compute a flat vector for any embedding: graph embeddings are summarised
    through {!Graph.to_flat}. *)
let to_flat (e : t) (m : Irmod.t) : float array =
  match e.kind with Flat f -> f m | Graphed g -> Graph.to_flat (g m)

(** Compute a graph for graph embeddings; flat embeddings yield a single-node
    graph carrying the vector (lets graph models consume them uniformly). *)
let to_graph (e : t) (m : Irmod.t) : Graph.t =
  match e.kind with
  | Graphed g -> g m
  | Flat f ->
      let v = f m in
      { Graph.node_feats = [| v |]; edges = []; feat_dim = Array.length v }

(** Structural digest of a module (MD5 over a sharing-free marshalling):
    two modules digest equally exactly when they are structurally equal.
    perfbench's evader check compares rebuilt challenges through it. *)
let digest (m : Irmod.t) : string =
  Digest.string (Marshal.to_string m [ Marshal.No_sharing ])
