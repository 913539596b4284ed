(** The persistent corpus: mini-C files replayed before fresh generation,
    afl/libFuzzer seed-directory style.

    [fuzz/corpus/*.c] holds both hand-written seeds and minimized
    reproducers saved by [check --save] ([crash-<hash>.c]); every
    {!Tv.run} replays the directory first, so a once-found divergence keeps
    guarding the passes after it is fixed. *)

let default_dir = Filename.concat "fuzz" "corpus"

(** Load every [*.c] file, sorted by name for reproducible replay order.
    Files that fail to parse are reported as [Error] entries rather than
    dropped — a corpus entry the frontend can no longer read is itself a
    regression worth surfacing. *)
let load (dir : string) :
    (string * (Yali_minic.Ast.program, string) Result.t) list =
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort String.compare
    |> List.map (fun f ->
           let path = Filename.concat dir f in
           let entry =
             match
               Yali_minic.Parser.parse_program (Yali_util.Fs.read_file path)
             with
             | p -> Ok p
             | exception e -> Error (Printexc.to_string e)
           in
           (f, entry))

(* a small stable content hash (FNV-1a over the printed source) *)
let hash_hex (src : string) : string =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch ->
      h := Int64.logxor !h (Int64.of_int (Char.code ch));
      h := Int64.mul !h 0x100000001b3L)
    src;
  Printf.sprintf "%016Lx" !h

(** Write a reproducer; the filename is derived from the content hash, so
    re-saving the same program is idempotent.  Returns the path. *)
let save ~(dir : string) (p : Yali_minic.Ast.program) : string =
  let src = Yali_minic.Pp.program_to_string p in
  Yali_util.Fs.mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "crash-%s.c" (hash_hex src)) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc src);
  path
