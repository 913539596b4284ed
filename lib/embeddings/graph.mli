(** Attributed directed graphs: the common output of the graph-based program
    representations and the input of the DGCNN classifier.  Mirrors the
    node-attribute / edge-list / edge-attribute encoding of Brauckmann et
    al. *)

type edge_type = Control | Data | Call | Memory

type t = {
  node_feats : float array array;  (** one row of length [feat_dim] per node *)
  edges : (int * int * edge_type) list;
  feat_dim : int;
}

val node_count : t -> int
val edge_count : t -> int
val empty : feat_dim:int -> t

(** Out-adjacency lists (edge types erased). *)
val adjacency : t -> int list array

(** Symmetric adjacency, as used by graph convolutions. *)
val undirected_adjacency : t -> int list array

(** Fixed-size summary vector (mean/max node features + degree statistics);
    lets flat models consume graph embeddings. *)
val to_flat : t -> float array
