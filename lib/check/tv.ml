(** See tv.mli. *)

module Rng = Yali_util.Rng
module Ir = Yali_ir
module Interp = Yali_ir.Interp
module Execution = Yali_vm.Execution
module Pool = Yali_exec.Pool
module Telemetry = Yali_exec.Telemetry

type failure_kind =
  | Verify_failed of { stage : string; error : string }
  | Transform_crash of { stage : string; error : string }
  | Run_crash of { input_ix : int; error : string }
  | Divergence of { input_ix : int; expected : string; got : string }

type verdict = Valid | Bad_baseline of string | Miscompiled of failure_kind

let failure_kind_to_string = function
  | Verify_failed { stage; error } ->
      Printf.sprintf "verifier error after %s: %s" stage error
  | Transform_crash { stage; error } ->
      Printf.sprintf "exception in %s: %s" stage error
  | Run_crash { input_ix; error } ->
      Printf.sprintf "runtime fault on input #%d: %s" input_ix error
  | Divergence { input_ix; expected; got } ->
      Printf.sprintf "divergence on input #%d: baseline %s, entry %s"
        input_ix expected got

(* child 0 of the check rng seeds the input vectors, child [salt name]
   seeds the entry — keyed by name, not list position, so re-validating a
   single entry (the shrink predicate) reproduces the exact randomness of
   the full sweep *)
let salt (name : string) : int =
  let h = String.fold_left (fun h ch -> (h * 131) + Char.code ch) 5381 name in
  1 + (h land 0xFFFFF)

let default_fuel = 2_000_000

let verify_errors (m : Ir.Irmod.t) : string option =
  match Ir.Verify.check_module m with
  | [] -> None
  | e :: _ -> Some (Format.asprintf "%a" Ir.Verify.pp_error e)

let observation_to_string (o : Interp.outcome) : string =
  let ints, floats, exitv = Interp.observe o in
  Printf.sprintf "out=[%s] fout=[%s] exit=%s"
    (String.concat ";" (List.map Int64.to_string ints))
    (String.concat ";" (List.map string_of_float floats))
    exitv

(* the [-O0] side of one program, computed once and shared by every entry *)
type prepared = {
  p_mod : Ir.Irmod.t;
  p_inputs : int64 list array;
  p_base : Interp.outcome array;
}

let prepare ~fuel ~vectors (rng : Rng.t) (p : Yali_minic.Ast.program) :
    (prepared, string) Result.t =
  let inputs =
    Yali_adapt.Fitness.inputs_for (Rng.split_ix rng 0) ~vectors ~len:32
  in
  match
    let m = Yali_minic.Lower.lower_program p in
    match verify_errors m with
    | Some err -> Error ("verifier error after lowering: " ^ err)
    | None ->
        (* one prepare (under the VM: one compile) amortized over the
           vectors, and later over every entry's shrink re-validations *)
        let runm = Execution.prepare m in
        let base = Array.map (fun input -> runm ~fuel input) inputs in
        Ok { p_mod = m; p_inputs = inputs; p_base = base }
  with
  | r -> r
  | exception Interp.Trap msg -> Error ("baseline trap: " ^ msg)
  | exception Interp.Out_of_fuel -> Error "baseline out of fuel"
  | exception e -> Error (Printexc.to_string e)

exception Invalid of string

(* apply an entry to a prepared baseline, verifying after every stage; then
   run and compare.  [rng] is the program's check rng. *)
let check_entry ~fuel (prep : prepared) (e : Passdb.entry) (rng : Rng.t) :
    failure_kind option =
  let check m =
    Option.iter (fun err -> raise (Invalid err)) (verify_errors m)
  in
  match Passdb.apply ~check e (Rng.split_ix rng (salt e.ename)) prep.p_mod with
  | exception Passdb.Stage_failed (stage, Invalid error) ->
      Some (Verify_failed { stage; error })
  | exception Passdb.Stage_failed (stage, ex) ->
      Some (Transform_crash { stage; error = Printexc.to_string ex })
  | m1 ->
      let vfuel = fuel * e.efuel in
      let run1 = Execution.prepare m1 in
      let n = Array.length prep.p_inputs in
      let rec go input_ix =
        if input_ix >= n then None
        else
          match run1 ~fuel:vfuel prep.p_inputs.(input_ix) with
          | o ->
              if Interp.equal_behaviour prep.p_base.(input_ix) o then
                go (input_ix + 1)
              else
                Some
                  (Divergence
                     {
                       input_ix;
                       expected = observation_to_string prep.p_base.(input_ix);
                       got = observation_to_string o;
                     })
          | exception Interp.Trap msg ->
              Some (Run_crash { input_ix; error = "trap: " ^ msg })
          | exception Interp.Out_of_fuel ->
              Some (Run_crash { input_ix; error = "out of fuel" })
      in
      go 0

let validate ?(fuel = default_fuel) ?(vectors = 3) (e : Passdb.entry)
    (rng : Rng.t) (p : Yali_minic.Ast.program) : verdict =
  match prepare ~fuel ~vectors rng p with
  | Error msg -> Bad_baseline msg
  | Ok prep -> (
      match check_entry ~fuel prep e rng with
      | None -> Valid
      | Some kind -> Miscompiled kind)

(* -- the campaign ----------------------------------------------------------- *)

type failure = {
  f_pass : string;
  f_origin : string;
  f_kind : failure_kind;
  f_program : Yali_minic.Ast.program option;
  f_minimized : Yali_minic.Ast.program option;
}

let pp_failure fmt (f : failure) =
  Format.fprintf fmt "[%s] %s %s" f.f_pass f.f_origin
    (failure_kind_to_string f.f_kind)

type config = {
  seed : int;
  per_pass : int;
  entries : Passdb.entry list;
  gen_cfg : Gen.cfg;
  fuel : int;
  vectors : int;
  shrink : bool;
  shrink_checks : int;
  corpus_dir : string option;
  log : string -> unit;
}

let default =
  {
    seed = 42;
    per_pass = 50;
    entries = Passdb.all;
    gen_cfg = Gen.default;
    fuel = default_fuel;
    vectors = 3;
    shrink = true;
    shrink_checks = 2_000;
    corpus_dir = Some Corpus.default_dir;
    log = ignore;
  }

type report = {
  c_passes : int;
  c_programs : int;
  c_corpus : int;
  c_validations : int;
  c_failures : failure list;
  c_elapsed : float;
}

(* the shrink predicate: the candidate still miscompiles under this entry,
   with exactly the detection-time rng (baseline must stay healthy, so a
   candidate that is itself broken does not count) *)
let still_fails (cfg : config) (e : Passdb.entry) (rng : Rng.t)
    (p : Yali_minic.Ast.program) : bool =
  match validate ~fuel:cfg.fuel ~vectors:cfg.vectors e rng p with
  | Miscompiled _ -> true
  | Valid | Bad_baseline _ -> false

let make_failure (cfg : config) ~origin ~rng (e : Passdb.entry)
    (kind : failure_kind) (p : Yali_minic.Ast.program) : failure =
  let minimized =
    if cfg.shrink then
      Some
        (Shrink.run ~max_checks:cfg.shrink_checks (still_fails cfg e rng) p)
    else None
  in
  {
    f_pass = e.ename;
    f_origin = origin;
    f_kind = kind;
    f_program = Some p;
    f_minimized = minimized;
  }

(* one program through every entry; returns per-entry failures (or the
   baseline problem).  Pure function of (rng, program) — safe on workers. *)
let sweep (cfg : config) (rng : Rng.t) (p : Yali_minic.Ast.program) :
    ((Passdb.entry * failure_kind) list, string) Result.t =
  match prepare ~fuel:cfg.fuel ~vectors:cfg.vectors rng p with
  | Error msg -> Error msg
  | Ok prep ->
      Ok
        (List.filter_map
           (fun (e : Passdb.entry) ->
             Option.map (fun kind -> (e, kind))
               (check_entry ~fuel:cfg.fuel prep e rng))
           cfg.entries)

let run (cfg : config) : report =
  let t0 = Telemetry.clock () in
  let root = Rng.make cfg.seed in
  let corpus_rng = Rng.split_ix root 0 in
  let gen_rng = Rng.split_ix root 1 in
  let programs = ref 0 and validations = ref 0 in
  let failures = ref [] in
  (* a program that never reached the entries: unparseable or bad baseline *)
  let unchecked ~origin ~pass ~stage program error =
    incr programs;
    failures :=
      {
        f_pass = pass;
        f_origin = origin;
        f_kind = Transform_crash { stage; error };
        f_program = program;
        f_minimized = None;
      }
      :: !failures
  in
  (* fold one swept program into the totals, on the calling domain *)
  let absorb ~origin ~rng (p : Yali_minic.Ast.program) = function
    | Error msg ->
        unchecked ~origin ~pass:"baseline" ~stage:"lower" (Some p) msg
    | Ok fails ->
        incr programs;
        validations := !validations + List.length cfg.entries;
        List.iter
          (fun (e, kind) ->
            failures := make_failure cfg ~origin ~rng e kind p :: !failures)
          fails
  in
  (* 1. regression-corpus replay, through every entry *)
  let corpus_entries =
    match cfg.corpus_dir with None -> [] | Some dir -> Corpus.load dir
  in
  List.iteri
    (fun k (name, entry) ->
      let origin = "corpus:" ^ name in
      match entry with
      | Error msg ->
          unchecked ~origin ~pass:"corpus-parse" ~stage:"parse" None msg
      | Ok p ->
          let rng = Rng.split_ix corpus_rng k in
          absorb ~origin ~rng p (sweep cfg rng p))
    corpus_entries;
  let replayed = !programs in
  if replayed > 0 then
    cfg.log (Printf.sprintf "replayed %d corpus entries" replayed);
  (* 2. fresh generation, chunked over the pool (slot-per-task results keep
     findings bit-identical at any jobs setting) *)
  let chunk_size = 16 in
  let next = ref 0 in
  while !next < cfg.per_pass do
    let n = min chunk_size (cfg.per_pass - !next) in
    let start = !next in
    let slots = Array.make n None in
    Telemetry.with_span "check.chunk" (fun () ->
        Pool.run ~n (fun k ->
            let ix = start + k in
            let pri = Rng.split_ix gen_rng ix in
            let p = Gen.program ~cfg:cfg.gen_cfg (Rng.split_ix pri 0) in
            let vrng = Rng.split_ix pri 1 in
            slots.(k) <- Some (ix, p, vrng, sweep cfg vrng p)));
    Array.iter
      (function
        | None -> ()
        | Some (ix, p, vrng, r) ->
            absorb ~origin:(Printf.sprintf "gen:%d" ix) ~rng:vrng p r)
      slots;
    next := start + n;
    cfg.log
      (Printf.sprintf "%6d programs  %6d validations  %d failure%s  %.1fs"
         !programs !validations
         (List.length !failures)
         (if List.length !failures = 1 then "" else "s")
         (Telemetry.clock () -. t0))
  done;
  Telemetry.incr ~by:!programs "check.programs";
  Telemetry.incr ~by:!validations "check.validations";
  Telemetry.incr ~by:(List.length !failures) "check.failures";
  {
    c_passes = List.length cfg.entries;
    c_programs = !programs;
    c_corpus = replayed;
    c_validations = !validations;
    c_failures = List.rev !failures;
    c_elapsed = Telemetry.clock () -. t0;
  }

let summary (r : report) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "check: %d passes x %d programs (%d corpus) = %d validations in %.1fs \
     (jobs=%d)\n"
    r.c_passes r.c_programs r.c_corpus r.c_validations r.c_elapsed
    (Pool.get_jobs ());
  Printf.bprintf b "failures: %d\n" (List.length r.c_failures);
  List.iter
    (fun f ->
      Printf.bprintf b "\nFAILURE %s\n"
        (Format.asprintf "%a" pp_failure f);
      match f.f_minimized with
      | Some p ->
          Printf.bprintf b "  minimized to %d statement(s):\n%s"
            (Shrink.stmt_count p)
            (Yali_minic.Pp.program_to_string p)
      | None -> ())
    r.c_failures;
  Buffer.contents b
