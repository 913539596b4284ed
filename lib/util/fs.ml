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
