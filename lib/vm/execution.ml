(** See execution.mli. *)

type engine = Vm | Ref

let current : engine Atomic.t = Atomic.make Vm
let get_engine () = Atomic.get current
let set_engine e = Atomic.set current e

let engine_of_string = function
  | "vm" -> Some Vm
  | "ref" | "interp" -> Some Ref
  | _ -> None

let engine_to_string = function Vm -> "vm" | Ref -> "ref"

let prepare ?engine m =
  let e = match engine with Some e -> e | None -> get_engine () in
  match e with
  | Vm ->
      let p = Vm.compile m in
      fun ~fuel input -> Vm.run_compiled ~fuel p input
  | Ref -> fun ~fuel input -> Yali_ir.Interp.run ~fuel m input

let run ?engine ?fuel m input =
  let e = match engine with Some e -> e | None -> get_engine () in
  match e with
  | Vm -> Vm.run ?fuel m input
  | Ref -> Yali_ir.Interp.run ?fuel m input

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
