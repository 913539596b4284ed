(** Parser for the textual IR emitted by {!Pp}.

    Contract: for any module [m] produced by this library,
    [parse_module (Pp.module_to_string m)] prints identically and behaves
    identically under the interpreter.  Integer constant types (invisible in
    the printed form) are inferred from instruction context. *)

exception Parse_error of string

(** @raise Parse_error on malformed input *)
val parse_type : string -> Types.t

(** @raise Parse_error on malformed input *)
val parse_module : string -> Irmod.t

(** Whether [src] reads as textual IR rather than mini-C: its first
    non-blank text starts with [;], [@] or [define] — a comment or the
    [; module] header, a global or a function, which covers whatever
    {!Pp} prints first.  No mini-C program starts with any of them. *)
val is_module_text : string -> bool
