(* to end of file: a pipe or a FIFO has no length to read up to *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p dir =
  if Sys.file_exists dir then begin
    if not (Sys.is_directory dir) then
      raise (Sys_error (dir ^ ": Not a directory"))
  end
  else begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    (* a concurrent creator may win the race; that is success too *)
    try Sys.mkdir dir 0o755
    with Sys_error _ as e -> if not (Sys.file_exists dir) then raise e
  end

let touch path =
  close_out (open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path)

let rec remove_tree path =
  try
    if Sys.is_directory path then begin
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  with Sys_error _ -> ()

let with_temp_dir tag f =
  let dir = Filename.temp_dir ("yali-" ^ tag ^ "-") "" in
  Fun.protect ~finally:(fun () -> remove_tree dir) (fun () -> f dir)
