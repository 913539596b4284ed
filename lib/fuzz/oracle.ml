(** The differential oracle: one program, every pipeline variant, identical
    observable behaviour.

    A check lowers the program at [-O0] (the baseline), then for each
    variant applies its stages in order, runs {!Yali_ir.Verify} after every
    stage, and executes the result on a vector of seeded input streams; any
    verifier error, transform exception, runtime fault or observable
    difference from the baseline is reported as a {!failure}.  All
    randomness (obfuscator seeds, input vectors) is derived from the
    caller's rng with {!Yali_util.Rng.split_ix}, so a check is a pure
    function of (rng state, program). *)

module Rng = Yali_util.Rng
module Ir = Yali_ir
module Interp = Yali_ir.Interp
module Execution = Yali_vm.Execution
module Pipelines = Yali_check.Pipelines

type failure_kind =
  | Verify_failed of { stage : string; error : string }
  | Transform_crash of { stage : string; error : string }
  | Run_crash of { input_ix : int; error : string }
  | Divergence of { input_ix : int; expected : string; got : string }

type failure = { fvariant : string; fkind : failure_kind }

type result = {
  baseline_ok : bool;  (** the [-O0] build itself lowered, verified, ran *)
  execs : int;  (** interpreter runs performed *)
  failures : failure list;  (** at most one per variant, baseline included *)
}

let failure_kind_to_string = function
  | Verify_failed { stage; error } ->
      Printf.sprintf "verifier error after %s: %s" stage error
  | Transform_crash { stage; error } ->
      Printf.sprintf "exception in %s: %s" stage error
  | Run_crash { input_ix; error } ->
      Printf.sprintf "runtime fault on input #%d: %s" input_ix error
  | Divergence { input_ix; expected; got } ->
      Printf.sprintf "divergence on input #%d: baseline %s, variant %s"
        input_ix expected got

let pp_failure fmt f =
  Format.fprintf fmt "[%s] %s" f.fvariant (failure_kind_to_string f.fkind)

(* render an outcome's observation compactly for reports *)
let observation_to_string (o : Interp.outcome) : string =
  let ints, floats, exitv = Interp.observe o in
  Printf.sprintf "out=[%s] fout=[%s] exit=%s"
    (String.concat ";" (List.map Int64.to_string ints))
    (String.concat ";" (List.map string_of_float floats))
    exitv

(** [inputs_for rng ~vectors ~len] — seeded input streams shared by every
    variant of one check. *)
let inputs_for (rng : Rng.t) ~(vectors : int) ~(len : int) : int64 list array
    =
  Array.init vectors (fun ix ->
      let r = Rng.split_ix rng ix in
      List.init len (fun _ -> Int64.of_int (Rng.int_range r (-1000) 1000)))

let default_fuel = 2_000_000

(* Variant rng streams are keyed by a stable hash of the variant name (not
   its list position), so re-checking a single-variant subset — as the
   shrinker does — reproduces exactly the obfuscator randomness of the
   original full check.  Child 0 is reserved for the input vectors. *)
let variant_salt (name : string) : int =
  let h =
    String.fold_left (fun h ch -> (h * 131) + Char.code ch) 5381 name
  in
  1 + (h land 0xFFFFF)

let verify_errors (m : Ir.Irmod.t) : string option =
  match Ir.Verify.check_module m with
  | [] -> None
  | e :: _ -> Some (Format.asprintf "%a" Ir.Verify.pp_error e)

(* build a variant: apply stages in order, verifying after each *)
let build_variant (rng : Rng.t) (v : Pipelines.variant) (m0 : Ir.Irmod.t) :
    (Ir.Irmod.t, failure_kind) Result.t =
  let rec go m ix = function
    | [] -> Ok m
    | (s : Pipelines.stage) :: rest -> (
        match s.srun (Rng.split_ix rng ix) m with
        | m' -> (
            match verify_errors m' with
            | Some err -> Error (Verify_failed { stage = s.sname; error = err })
            | None -> go m' (ix + 1) rest)
        | exception e ->
            Error
              (Transform_crash
                 { stage = s.sname; error = Printexc.to_string e }))
  in
  go m0 0 v.vstages

let check ?(fuel = default_fuel) ?(variants = Pipelines.all)
    ?(inputs : int64 list array option) (rng : Rng.t)
    (p : Yali_minic.Ast.program) : result =
  let execs = ref 0 in
  let inputs =
    match inputs with
    | Some vs -> vs
    | None -> inputs_for (Rng.split_ix rng 0) ~vectors:3 ~len:32
  in
  let lower () = Yali_minic.Lower.lower_program p in
  match
    let m = lower () in
    match verify_errors m with
    | Some err -> Error (Verify_failed { stage = "lower"; error = err })
    | None ->
        let runm = Execution.prepare m in
        let base =
          Array.map
            (fun input ->
              incr execs;
              runm ~fuel input)
            inputs
        in
        Ok (m, base)
  with
  | exception e ->
      {
        baseline_ok = false;
        execs = !execs;
        failures =
          [
            {
              fvariant = "baseline";
              fkind =
                (match e with
                | Interp.Trap msg ->
                    Run_crash { input_ix = !execs - 1; error = "trap: " ^ msg }
                | Interp.Out_of_fuel ->
                    Run_crash { input_ix = !execs - 1; error = "out of fuel" }
                | e ->
                    Transform_crash
                      { stage = "lower"; error = Printexc.to_string e });
            };
          ];
      }
  | Error kind ->
      {
        baseline_ok = false;
        execs = !execs;
        failures = [ { fvariant = "baseline"; fkind = kind } ];
      }
  | Ok (m0, base) ->
      let failures = ref [] in
      List.iter
        (fun (v : Pipelines.variant) ->
          let vrng = Rng.split_ix rng (variant_salt v.vname) in
          let fail kind =
            failures := { fvariant = v.vname; fkind = kind } :: !failures
          in
          match build_variant vrng v m0 with
          | Error kind -> fail kind
          | Ok m -> (
              let vfuel = fuel * v.vfuel in
              let runv = Execution.prepare m in
              let at_input = ref 0 in
              try
                Array.iteri
                  (fun input_ix input ->
                    at_input := input_ix;
                    incr execs;
                    let o = runv ~fuel:vfuel input in
                    if not (Interp.equal_behaviour base.(input_ix) o) then (
                      failures :=
                        {
                          fvariant = v.vname;
                          fkind =
                            Divergence
                              {
                                input_ix;
                                expected =
                                  observation_to_string base.(input_ix);
                                got = observation_to_string o;
                              };
                        }
                        :: !failures;
                      raise Exit))
                  inputs
              with
              | Exit -> ()
              | Interp.Trap msg ->
                  fail
                    (Run_crash { input_ix = !at_input; error = "trap: " ^ msg })
              | Interp.Out_of_fuel ->
                  fail
                    (Run_crash { input_ix = !at_input; error = "out of fuel" })))
        variants;
      { baseline_ok = true; execs = !execs; failures = List.rev !failures }
