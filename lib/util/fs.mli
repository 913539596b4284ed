(** Scratch directories. *)

(** Remove a file, or a directory with everything in it; a path that is
    already gone is not an error. *)
val remove_tree : string -> unit

(** [with_temp_dir tag f] runs [f] on a fresh directory [yali-tag-*] under
    the temp dir and removes it with everything in it afterwards, also
    when [f] raises. *)
val with_temp_dir : string -> (string -> 'a) -> 'a
