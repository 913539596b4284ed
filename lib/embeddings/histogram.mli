(** The HISTOGRAM embedding (Silva et al.): a vector of {!Yali_ir.Opcode.count}
    positions counting instruction opcodes — the paper's simplest and, in
    symmetric games, unbeaten program representation. *)

(** Dimensionality: the number of opcodes (63). *)
val dim : int

val of_opcodes : Yali_ir.Opcode.t list -> float array
val of_module : Yali_ir.Irmod.t -> float array

(** L1-normalised variant: opcode proportions rather than counts. *)
val normalized_of_module : Yali_ir.Irmod.t -> float array

(** Euclidean distance between two equal-length vectors (the paper's
    Figure 10 metric).  @raise Invalid_argument on dimension mismatch *)
val euclidean : float array -> float array -> float
