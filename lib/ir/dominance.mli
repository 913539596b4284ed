(** Dominator tree (Cooper–Harvey–Kennedy) over {!Cfg} block numbers,
    the foundation of the verifier, SSA construction and loop detection.
    Pre/post numbers on the tree make {!dominates} O(1). *)

type t = {
  rpo : int array;  (** reachable blocks in reverse post-order *)
  idom : int array;
      (** immediate dominator; the entry's is itself, [-1] when
          unreachable *)
  children : int list array;  (** dominator-tree children, in rpo order *)
  pre : int array;  (** preorder number on the tree, [-1] when unreachable *)
  post : int array;  (** postorder number on the tree *)
}

val compute : Cfg.t -> t

(** Does the entry reach this block? *)
val reachable : t -> int -> bool

(** Immediate dominator, or [None] for the entry block / unreachable
    blocks. *)
val idom : t -> int -> int option

(** Does [a] dominate [b]?  Reflexive; an unreachable block dominates only
    itself. *)
val dominates : t -> int -> int -> bool

(** Dominance frontier of every block, each list in construction order
    (SSA construction's phi placement depends on it). *)
val frontiers : Cfg.t -> t -> int list array
