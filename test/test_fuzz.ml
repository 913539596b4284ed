(** The differential fuzzing subsystem: generator contract, oracle on the
    real pass stack, jobs-determinism of the driver, shrinking of a
    deliberately broken pass, corpus persistence. *)

module Rng = Yali.Rng
module Ir = Yali.Ir
module Fuzz = Yali.Fuzz
module Check = Yali.Check
module Pp = Yali.Minic.Pp

let qtest = QCheck_alcotest.to_alcotest

(* -- generator -------------------------------------------------------------- *)

let gen_deterministic =
  QCheck.Test.make ~count:30 ~name:"equal seeds generate equal programs"
    QCheck.small_nat (fun seed ->
      let p1 = Check.Gen.program (Rng.make seed) in
      let p2 = Check.Gen.program (Rng.make seed) in
      String.equal (Pp.program_to_string p1) (Pp.program_to_string p2))

let gen_valid =
  QCheck.Test.make ~count:30
    ~name:"generated programs lower, verify, and terminate" QCheck.small_nat
    (fun seed ->
      let p = Check.Gen.program (Rng.make seed) in
      let m = Yali.lower p in
      (match Ir.Verify.check_module m with
      | [] -> ()
      | e :: _ ->
          QCheck.Test.fail_reportf "verify: %s"
            (Format.asprintf "%a" Ir.Verify.pp_error e));
      let inputs =
        Fuzz.Oracle.inputs_for (Rng.make (seed + 1)) ~vectors:2 ~len:16
      in
      Array.for_all
        (fun input ->
          ignore (Ir.Interp.run ~fuel:Fuzz.Oracle.default_fuel m input);
          true)
        inputs)

(* -- oracle ----------------------------------------------------------------- *)

let oracle_clean () =
  (* the full registry, every variant, on a few generated programs: the
     whole point of this PR is that this comes back clean *)
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let p = Check.Gen.program (Rng.split_ix rng 0) in
      let r = Fuzz.Oracle.check (Rng.split_ix rng 1) p in
      Alcotest.(check bool) "baseline ok" true r.baseline_ok;
      List.iter
        (fun (f : Fuzz.Oracle.failure) ->
          Alcotest.failf "unexpected failure: %s"
            (Format.asprintf "%a" Fuzz.Oracle.pp_failure f))
        r.failures)
    [ 11; 12 ]

(* -- driver: jobs-determinism ----------------------------------------------- *)

let subset names =
  List.map (fun n -> Option.get (Check.Pipelines.find n)) names

let fuzz_counters () =
  List.map
    (fun n -> (n, Yali.Exec.Telemetry.counter ("fuzz." ^ n)))
    [
      "programs"; "corpus"; "execs"; "verify_failures"; "divergences";
      "crashes"; "findings";
    ]

let driver_jobs_deterministic () =
  let cfg =
    {
      Fuzz.Driver.default with
      seed = 5;
      count = 12;
      shrink = false;
      corpus_dir = None;
      variants = subset [ "O2"; "O3"; "sub"; "fla+O2"; "ollvm+O3" ];
    }
  in
  let campaign jobs =
    Yali.Exec.Telemetry.reset ();
    let r = Yali.Exec.Pool.with_jobs jobs (fun () -> Fuzz.Driver.run cfg) in
    (r, fuzz_counters ())
  in
  let r1, c1 = campaign 1 in
  let r4, c4 = campaign 4 in
  Alcotest.(check int) "programs" r1.r_programs r4.r_programs;
  Alcotest.(check int) "execs" r1.r_execs r4.r_execs;
  Alcotest.(check int) "verify failures" r1.r_verify_failures
    r4.r_verify_failures;
  Alcotest.(check int) "divergences" r1.r_divergences r4.r_divergences;
  Alcotest.(check int) "crashes" r1.r_crashes r4.r_crashes;
  Alcotest.(check (list string))
    "finding origins"
    (List.map (fun (f : Fuzz.Driver.finding) -> f.f_origin) r1.r_findings)
    (List.map (fun (f : Fuzz.Driver.finding) -> f.f_origin) r4.r_findings);
  Alcotest.(check (list (pair string int)))
    "fuzz.* telemetry totals" c1 c4

(* -- the broken-pass fixture ------------------------------------------------ *)

(* A deliberately miscompiling "constant fold": pretends x + c folds to c,
   i.e. rewrites [add x, c] into [add c, 0].  Structurally valid IR — only
   the differential run can catch it. *)
let broken_fold (m : Ir.Irmod.t) : Ir.Irmod.t =
  Ir.Irmod.map_funcs
    (Ir.Func.map_blocks (fun (b : Ir.Block.t) ->
         {
           b with
           instrs =
             List.map
               (fun (i : Ir.Instr.t) ->
                 match i.kind with
                 | Ir.Instr.Ibin
                     (Ir.Instr.Add, Ir.Value.Var _, (Ir.Value.IConst (t, c) as k))
                   when not (Int64.equal c 0L) ->
                     {
                       i with
                       kind =
                         Ir.Instr.Ibin (Ir.Instr.Add, k, Ir.Value.IConst (t, 0L));
                     }
                 | _ -> i)
               b.instrs;
         }))
    m

let broken_variant =
  {
    Check.Pipelines.vname = "broken-constfold";
    vfuel = 4;
    vstages = [ Check.Pipelines.pure "broken-constfold" broken_fold ];
  }

let broken_campaign () =
  (* small fuel: honest generated programs terminate well under it, and the
     broken fold manufactures infinite loops, which would otherwise burn
     the full budget on every shrink-predicate call *)
  Fuzz.Driver.run
    {
      Fuzz.Driver.default with
      seed = 3;
      count = 3;
      shrink = true;
      corpus_dir = None;
      variants = [ broken_variant ];
      fuel = 100_000;
      shrink_checks = 200;
    }

let broken_pass_caught () =
  let r = broken_campaign () in
  Alcotest.(check bool) "oracle finds the miscompile" true (r.r_findings <> []);
  List.iter
    (fun (f : Fuzz.Driver.finding) ->
      match f.f_minimized with
      | None -> Alcotest.failf "finding %s was not shrunk" f.f_origin
      | Some p ->
          let n = Check.Shrink.stmt_count p in
          if n > 5 then
            Alcotest.failf "%s shrank to %d statements (> 5):\n%s" f.f_origin n
              (Pp.program_to_string p))
    r.r_findings

let broken_pass_deterministic () =
  let render (r : Fuzz.Driver.report) =
    List.map
      (fun (f : Fuzz.Driver.finding) ->
        ( f.f_origin,
          Option.fold ~none:"" ~some:Pp.program_to_string f.f_minimized ))
      r.r_findings
  in
  Alcotest.(check (list (pair string string)))
    "two runs, identical findings and reproducers"
    (render (broken_campaign ()))
    (render (broken_campaign ()))

(* -- corpus ----------------------------------------------------------------- *)

let with_temp_dir f =
  (* a unique path without depending on Unix: claim a temp file name and
     reuse it as a directory ([Corpus.save] mkdir-ps it) *)
  let dir = Filename.temp_file "yali-fuzz-corpus" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () -> f dir)

let corpus_roundtrip () =
  with_temp_dir (fun dir ->
      let p = Check.Gen.program (Rng.make 9) in
      let path = Check.Corpus.save ~dir p in
      Alcotest.(check string) "idempotent save" path (Check.Corpus.save ~dir p);
      (match Check.Corpus.load dir with
      | [ (name, Ok p') ] ->
          Alcotest.(check string) "file is the saved one" name
            (Filename.basename path);
          Alcotest.(check string)
            "parses back to the same program" (Pp.program_to_string p)
            (Pp.program_to_string p')
      | entries ->
          Alcotest.failf "expected one parseable entry, got %d"
            (List.length entries));
      let oc = open_out (Filename.concat dir "garbage.c") in
      output_string oc "int main( { ][ }";
      close_out oc;
      let errors =
        List.filter
          (fun (_, e) -> Result.is_error e)
          (Check.Corpus.load dir)
      in
      Alcotest.(check int) "unparseable entries surface as errors" 1
        (List.length errors))

let corpus_replayed_first () =
  with_temp_dir (fun dir ->
      let p = Check.Gen.program (Rng.make 9) in
      ignore (Check.Corpus.save ~dir p);
      let r =
        Fuzz.Driver.run
          {
            Fuzz.Driver.default with
            seed = 5;
            count = 0;
            corpus_dir = Some dir;
            variants = subset [ "O2" ];
          }
      in
      Alcotest.(check int) "corpus entry replayed" 1 r.r_corpus;
      Alcotest.(check int) "no fresh generation" 1 r.r_programs;
      Alcotest.(check (list string)) "clean replay" []
        (List.map (fun (f : Fuzz.Driver.finding) -> f.f_origin) r.r_findings))

let suite =
  [
    qtest gen_deterministic;
    qtest gen_valid;
    Alcotest.test_case "oracle clean on every registered variant" `Slow
      oracle_clean;
    Alcotest.test_case "driver totals identical at jobs 1 and 4" `Slow
      driver_jobs_deterministic;
    Alcotest.test_case "broken constfold caught and shrunk to <= 5 stmts"
      `Quick broken_pass_caught;
    Alcotest.test_case "broken-pass findings deterministic" `Quick
      broken_pass_deterministic;
    Alcotest.test_case "corpus save/load roundtrip" `Quick corpus_roundtrip;
    Alcotest.test_case "corpus replayed before generation" `Quick
      corpus_replayed_first;
  ]
