(** Files and scratch directories. *)

(** The whole contents of a file, read until end of file, so a pipe or a
    FIFO ([/dev/stdin]) reads too.  @raise Sys_error as [open_in_bin] *)
val read_file : string -> string

(** [mkdir_p dir] creates [dir] and every missing parent; an existing
    directory is not an error.
    @raise Sys_error naming the path when a directory cannot be created,
    or when [dir] or a parent exists and is not a directory *)
val mkdir_p : string -> unit

(** [touch path] opens [path] for appending, creating it if absent, and
    closes it again: the check, before the work that fills a report, that
    the report can be written.  @raise Sys_error when it cannot *)
val touch : string -> unit

(** Remove a file, or a directory with everything in it; a path that is
    already gone is not an error. *)
val remove_tree : string -> unit

(** [with_temp_dir tag f] runs [f] on a fresh directory [yali-tag-*] under
    the temp dir and removes it with everything in it afterwards, also
    when [f] raises. *)
val with_temp_dir : string -> (string -> 'a) -> 'a
