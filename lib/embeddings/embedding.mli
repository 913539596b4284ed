(** The registry of program embeddings evaluated by the paper (Figure 3):
    three flat vector embeddings and six graph-based ones. *)

type kind =
  | Flat of (Yali_ir.Irmod.t -> float array)
  | Graphed of (Yali_ir.Irmod.t -> Graph.t)

type t = { name : string; kind : kind }

val histogram : t
val milepost : t
val ir2vec : t
val cfg : t
val cfg_compact : t
val cdfg : t
val cdfg_compact : t
val cdfg_plus : t
val programl : t

(** All nine, in the order of the paper's Figure 5. *)
val all : t list

val find : string -> t option
val is_flat : t -> bool

(** A flat vector for any embedding (graphs are summarised through
    {!Graph.to_flat}). *)
val to_flat : t -> Yali_ir.Irmod.t -> float array

(** A graph for any embedding (flat vectors become a single-node graph). *)
val to_graph : t -> Yali_ir.Irmod.t -> Graph.t

(** Structural digest of a module: equal exactly for structurally equal
    modules.  perfbench's evader check ([check_rebuilt_evaders]) calls it
    to compare the challenges it rebuilds against the library's. *)
val digest : Yali_ir.Irmod.t -> string
