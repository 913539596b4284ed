(** See execution.mli. *)

let prepare m =
  let p = Vm.compile m in
  fun ~fuel input -> Vm.run_compiled ~fuel p input

let classify run =
  match run () with
  | o -> Ok o
  | exception Yali_ir.Interp.Trap msg -> Error ("trap: " ^ msg)
  | exception Yali_ir.Interp.Out_of_fuel -> Error "out of fuel"
  | exception e -> Error ("exn: " ^ Printexc.to_string e)

let agree a b =
  match (a, b) with
  | Ok oa, Ok ob -> Stdlib.compare oa ob = 0
  | Error ea, Error eb -> String.equal ea eb
  | Ok _, Error _ | Error _, Ok _ -> false
