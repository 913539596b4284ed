(** Control-flow graph of a function over block numbers: each label is
    numbered once, and successors, predecessors, reachability and traversal
    orders are int-indexed.  Labels are looked up at the boundary (a phi's
    incoming label, a pass that edits blocks by label) and to print
    errors. *)

type t = {
  labels : string array;
      (** number -> label: the block labels in function order (a repeated
          label once), then the branch targets that name no block, in the
          order they are met *)
  index : (string, int) Hashtbl.t;  (** label -> number *)
  n_blocks : int;  (** numbers below this name blocks *)
  succ : int list array;
      (** successors in terminator order; a repeated label takes those of
          its last block *)
  pred : int list array;
      (** one entry per edge, latest block first; a repeated label
          collects the edges of every block carrying it *)
  entry : int;
}

(** @raise Invalid_argument when the function has no blocks *)
val of_func : Func.t -> t

(** Number of nodes: blocks, then unknown branch targets. *)
val size : t -> int

val label : t -> int -> string

(** @raise Not_found for a label the function never mentions *)
val index : t -> string -> int

val find : t -> string -> int option

(** Reverse post-order over reachable blocks. *)
val reverse_postorder : t -> int list

(** Which blocks the entry reaches. *)
val reachable : t -> bool array

val edge_count : t -> int

(** Does the CFG contain a cycle (i.e. a loop)? *)
val has_cycle : t -> bool
