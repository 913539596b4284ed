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
