(** Natural-loop detection: back edges via dominance, loop bodies by
    backward reachability, over {!Cfg} block numbers.  Unreachable blocks
    belong to no loop: they are neither latches nor body blocks. *)

type loop = {
  header : int;
  latches : int list;  (** sources of back edges into the header *)
  body : bool array;  (** blocks of the loop, header included *)
  size : int;  (** number of blocks in [body] *)
}

type t = { cfg : Cfg.t; loops : loop list }

val compute : Cfg.t -> Dominance.t -> t
val of_func : Func.t -> t

(** Is the block with this label in the loop's body?  [false] for a label
    [t.cfg] never saw. *)
val mem : t -> loop -> string -> bool

(** Loops ordered by body size, ascending (inner loops first). *)
val innermost_first : t -> loop list

(** Loop-nesting depth of each block (0 = not in any loop). *)
val depth_map : t -> int array

val loop_count : t -> int
