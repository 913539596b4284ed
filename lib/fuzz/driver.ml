(** The fuzzing campaign driver: corpus replay, parallel generation,
    shrinking, reporting.

    A run replays the persistent corpus first (afl-style seed directory),
    then fans freshly generated programs out over the {!Yali_exec.Pool} in
    fixed-size chunks; per-program rng streams are pre-derived with
    {!Yali_util.Rng.split_ix} from the campaign seed, and all counters are
    folded on the calling domain in index order — so findings and telemetry
    totals are bit-identical at any [--jobs] setting.  The optional wall
    [time_budget] is checked between chunks.

    Telemetry counters: [fuzz.programs], [fuzz.corpus], [fuzz.execs],
    [fuzz.verify_failures], [fuzz.divergences], [fuzz.crashes],
    [fuzz.findings]. *)

module Rng = Yali_util.Rng
module Pool = Yali_exec.Pool
module Telemetry = Yali_exec.Telemetry
module Gen = Yali_check.Gen
module Shrink = Yali_check.Shrink
module Corpus = Yali_check.Corpus
module Pipelines = Yali_check.Pipelines

type config = {
  seed : int;
  count : int;  (** programs to generate (on top of the corpus) *)
  time_budget : float option;  (** wall seconds; checked between chunks *)
  shrink : bool;  (** minimize failing programs before reporting *)
  corpus_dir : string option;  (** replayed first when it exists *)
  save_findings : bool;  (** persist minimized reproducers to the corpus *)
  variants : Pipelines.variant list;
  gen_cfg : Gen.cfg;
  fuel : int;
  shrink_checks : int;  (** predicate-call cap per shrink *)
  log : string -> unit;  (** progress lines; [ignore] for silence *)
}

let default =
  {
    seed = 42;
    count = 100;
    time_budget = None;
    shrink = true;
    corpus_dir = Some Corpus.default_dir;
    save_findings = false;
    variants = Pipelines.all;
    gen_cfg = Gen.default;
    fuel = Oracle.default_fuel;
    shrink_checks = 2_000;
    log = ignore;
  }

type finding = {
  f_origin : string;  (** ["gen:<ix>"] or ["corpus:<file>"] *)
  f_failures : Oracle.failure list;  (** every failing variant *)
  f_program : Yali_minic.Ast.program;
  f_minimized : Yali_minic.Ast.program option;
  f_saved : string option;  (** corpus path when persisted *)
}

type report = {
  r_corpus : int;  (** corpus entries replayed *)
  r_programs : int;  (** programs checked, corpus included *)
  r_execs : int;  (** interpreter runs *)
  r_verify_failures : int;
  r_divergences : int;
  r_crashes : int;  (** transform exceptions and runtime faults *)
  r_findings : finding list;
  r_elapsed : float;
}

(* jobs-independent chunk size: the budget check between chunks and the
   telemetry span count do not depend on the parallelism *)
let chunk_size = 32

let classify (f : Oracle.failure) =
  match f.fkind with
  | Oracle.Verify_failed _ -> `Verify
  | Oracle.Divergence _ -> `Divergence
  | Oracle.Transform_crash _ | Oracle.Run_crash _ -> `Crash

(* the shrink predicate: the candidate still fails the same variant (with a
   healthy baseline), under exactly the detection-time rng *)
let still_fails (cfg : config) (rng : Rng.t) (variant : string)
    (p : Yali_minic.Ast.program) : bool =
  match variant with
  | "baseline" ->
      let r = Oracle.check ~fuel:cfg.fuel ~variants:[] rng p in
      not r.baseline_ok
  | vn -> (
      match List.find_opt (fun (v : Pipelines.variant) -> v.vname = vn) cfg.variants with
      | None -> false
      | Some v ->
          let r = Oracle.check ~fuel:cfg.fuel ~variants:[ v ] rng p in
          r.baseline_ok
          && List.exists (fun (f : Oracle.failure) -> f.fvariant = vn) r.failures)

let make_finding (cfg : config) ~(origin : string) ~(rng : Rng.t)
    (p : Yali_minic.Ast.program) (failures : Oracle.failure list) : finding =
  let minimized =
    if cfg.shrink then
      match failures with
      | [] -> None
      | first :: _ ->
          Some
            (Shrink.run ~max_checks:cfg.shrink_checks
               (still_fails cfg rng first.fvariant)
               p)
    else None
  in
  let saved =
    match (cfg.save_findings, cfg.corpus_dir) with
    | true, Some dir ->
        Some (Corpus.save ~dir (Option.value minimized ~default:p))
    | _ -> None
  in
  {
    f_origin = origin;
    f_failures = failures;
    f_program = p;
    f_minimized = minimized;
    f_saved = saved;
  }

let run (cfg : config) : report =
  let t0 = Telemetry.clock () in
  let root = Rng.make cfg.seed in
  let corpus_rng = Rng.split_ix root 0 in
  let gen_rng = Rng.split_ix root 1 in
  let programs = ref 0
  and execs = ref 0
  and verify_failures = ref 0
  and divergences = ref 0
  and crashes = ref 0 in
  let findings = ref [] in
  (* fold one checked program into the totals, on the calling domain *)
  let absorb ~origin ~rng (p : Yali_minic.Ast.program) (r : Oracle.result) =
    incr programs;
    execs := !execs + r.execs;
    List.iter
      (fun f ->
        match classify f with
        | `Verify -> incr verify_failures
        | `Divergence -> incr divergences
        | `Crash -> incr crashes)
      r.failures;
    if r.failures <> [] then
      findings := make_finding cfg ~origin ~rng p r.failures :: !findings
  in
  (* 1. corpus replay *)
  let corpus_entries =
    match cfg.corpus_dir with None -> [] | Some dir -> Corpus.load dir
  in
  List.iteri
    (fun k (name, entry) ->
      let origin = "corpus:" ^ name in
      match entry with
      | Error msg ->
          incr programs;
          incr crashes;
          findings :=
            {
              f_origin = origin;
              f_failures =
                [
                  {
                    fvariant = "baseline";
                    fkind = Oracle.Transform_crash { stage = "parse"; error = msg };
                  };
                ];
              f_program = { Yali_minic.Ast.pfuncs = [] };
              f_minimized = None;
              f_saved = None;
            }
            :: !findings
      | Ok p ->
          let rng = Rng.split_ix corpus_rng k in
          absorb ~origin ~rng p
            (Oracle.check ~fuel:cfg.fuel ~variants:cfg.variants rng p))
    corpus_entries;
  let replayed = !programs in
  if replayed > 0 then
    cfg.log (Printf.sprintf "replayed %d corpus entr%s" replayed
               (if replayed = 1 then "y" else "ies"));
  (* 2. fresh generation, chunked over the pool *)
  let over_budget () =
    match cfg.time_budget with
    | None -> false
    | Some b -> Telemetry.clock () -. t0 >= b
  in
  let next = ref 0 in
  let stop = ref false in
  while (not !stop) && !next < cfg.count && not (over_budget ()) do
    let n = min chunk_size (cfg.count - !next) in
    let start = !next in
    let slots = Array.make n None in
    Telemetry.with_span "fuzz.chunk" (fun () ->
        Pool.run ~n (fun k ->
            let ix = start + k in
            let pri = Rng.split_ix gen_rng ix in
            let p = Gen.program ~cfg:cfg.gen_cfg (Rng.split_ix pri 0) in
            let orng = Rng.split_ix pri 1 in
            let r = Oracle.check ~fuel:cfg.fuel ~variants:cfg.variants orng p in
            slots.(k) <- Some (ix, p, orng, r)));
    Array.iter
      (function
        | None -> ()
        | Some (ix, p, orng, r) ->
            absorb ~origin:(Printf.sprintf "gen:%d" ix) ~rng:orng p r)
      slots;
    next := start + n;
    cfg.log
      (Printf.sprintf "%6d programs  %8d execs  %d finding%s  %.1fs" !programs
         !execs
         (List.length !findings)
         (if List.length !findings = 1 then "" else "s")
         (Telemetry.clock () -. t0));
    if cfg.count = max_int && cfg.time_budget = None then stop := true
  done;
  (* 3. telemetry: folded once, in deterministic order *)
  Telemetry.incr ~by:!programs "fuzz.programs";
  Telemetry.incr ~by:replayed "fuzz.corpus";
  Telemetry.incr ~by:!execs "fuzz.execs";
  Telemetry.incr ~by:!verify_failures "fuzz.verify_failures";
  Telemetry.incr ~by:!divergences "fuzz.divergences";
  Telemetry.incr ~by:!crashes "fuzz.crashes";
  Telemetry.incr ~by:(List.length !findings) "fuzz.findings";
  {
    r_corpus = replayed;
    r_programs = !programs;
    r_execs = !execs;
    r_verify_failures = !verify_failures;
    r_divergences = !divergences;
    r_crashes = !crashes;
    r_findings = List.rev !findings;
    r_elapsed = Telemetry.clock () -. t0;
  }

(* -- reporting ------------------------------------------------------------- *)

let summary (r : report) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b
    "fuzz: %d programs (%d corpus), %d execs in %.1fs (%.0f execs/s, jobs=%d)\n"
    r.r_programs r.r_corpus r.r_execs r.r_elapsed
    (float_of_int r.r_execs /. Float.max 1e-9 r.r_elapsed)
    (Pool.get_jobs ());
  Printf.bprintf b
    "verify failures: %d  divergences: %d  crashes: %d  findings: %d\n"
    r.r_verify_failures r.r_divergences r.r_crashes
    (List.length r.r_findings);
  List.iter
    (fun f ->
      Printf.bprintf b "\nFAILURE %s\n" f.f_origin;
      List.iter
        (fun fl -> Printf.bprintf b "  %s\n" (Format.asprintf "%a" Oracle.pp_failure fl))
        f.f_failures;
      (match f.f_minimized with
      | Some p ->
          Printf.bprintf b "  minimized to %d statement(s):\n%s"
            (Shrink.stmt_count p)
            (Yali_minic.Pp.program_to_string p)
      | None -> ());
      match f.f_saved with
      | Some path -> Printf.bprintf b "  saved to %s\n" path
      | None -> ())
    r.r_findings;
  Buffer.contents b
