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

(* ------------------------------------------------------------------ *)
(* content-addressed embedding caches                                  *)
(* ------------------------------------------------------------------ *)

(** Structural digest of a module (MD5 over a sharing-free marshalling):
    two modules digest equally exactly when they are structurally equal,
    so a digest plus an embedding name content-addresses the embedding
    of any (source program, transform pipeline) pair. *)
let digest (m : Irmod.t) : string =
  Digest.string (Marshal.to_string m [ Marshal.No_sharing ])

(* game rounds re-embed structurally repeated modules constantly (growing
   training suites, shared baselines, re-generated corpora); vectors are
   never mutated downstream, so cached arrays can be shared *)
let flat_cache : float array Yali_exec.Cache.t =
  Yali_exec.Cache.create ~name:"embed.flat" ~capacity:16384 ()

let graph_cache : Graph.t Yali_exec.Cache.t =
  Yali_exec.Cache.create ~name:"embed.graph" ~capacity:4096 ()

(** {!to_flat} through the content-addressed cache. *)
let to_flat_cached (e : t) (m : Irmod.t) : float array =
  Yali_exec.Cache.find_or_compute flat_cache
    ~key:(e.name ^ "|" ^ digest m)
    (fun () -> to_flat e m)

(** {!to_graph} through the content-addressed cache. *)
let to_graph_cached (e : t) (m : Irmod.t) : Graph.t =
  Yali_exec.Cache.find_or_compute graph_cache
    ~key:(e.name ^ "|" ^ digest m)
    (fun () -> to_graph e m)

let flat_cache_stats () = Yali_exec.Cache.stats flat_cache
