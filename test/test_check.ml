(** The correctness-tooling layer: the property engine's determinism,
    replay and shrinking contracts; the program generator's contract; the
    pass registry; translation validation — including a deliberately
    planted miscompile that must be caught, localized to its pass, and
    minimized, and a broken intermediate caught at the stage that made it;
    the smoke tier of the engine coming back clean; and the regression
    corpus. *)

module Rng = Yali.Rng
module Ir = Yali.Ir
module Check = Yali.Check
module Prop = Check.Prop
module Passdb = Check.Passdb
module Tv = Check.Tv
module Pp = Yali.Minic.Pp

(* -- Prop.minimize ---------------------------------------------------------- *)

let test_minimize_lists () =
  (* remove-one-element shrinking of a list under "still contains 42" *)
  let candidates l = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l in
  let pred l = List.mem 42 l in
  let r =
    Prop.minimize ~measure:List.length ~candidates pred [ 1; 42; 3; 42; 9 ]
  in
  Alcotest.(check (list int)) "shrinks to a single witness" [ 42 ] r;
  let r2 =
    Prop.minimize ~measure:List.length ~candidates pred [ 1; 42; 3; 42; 9 ]
  in
  Alcotest.(check (list int)) "deterministic" r r2

let test_minimize_respects_max_checks () =
  let calls = ref 0 in
  let pred l =
    incr calls;
    List.mem 42 l
  in
  let candidates l = List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) l) l in
  let big = 42 :: List.init 200 Fun.id in
  ignore (Prop.minimize ~max_checks:10 ~measure:List.length ~candidates pred big);
  Alcotest.(check bool) "predicate calls capped" true (!calls <= 10)

(* -- labeled properties: pass, fail, replay, shrink ------------------------- *)

let gen_nat rng = Rng.int_range rng 0 1000

let test_prop_pass () =
  let p = Prop.make ~name:"nat is non-negative" gen_nat (fun x -> x >= 0) in
  match (Prop.run ~count:50 ~seed:7 p).r_outcome with
  | Prop.Pass { cases } -> Alcotest.(check int) "all cases ran" 50 cases
  | Prop.Fail _ -> Alcotest.fail "property should hold"

let test_prop_fail_and_replay () =
  let p = Prop.make ~name:"always fails" ~show:string_of_int gen_nat (fun x -> x < 0) in
  match (Prop.run ~count:20 ~seed:7 p).r_outcome with
  | Prop.Pass _ -> Alcotest.fail "property should fail"
  | Prop.Fail { case_ix; error; _ } ->
      Alcotest.(check int) "fails on the first case" 0 case_ix;
      Alcotest.(check bool) "plain falsity, no exception" true (error = None);
      Alcotest.(check bool) "replay reproduces the failure" false
        (Prop.run_case ~seed:7 p case_ix)

let test_prop_exception_reported () =
  let p =
    Prop.make ~name:"raises" gen_nat (fun _ -> failwith "boom in the law")
  in
  match (Prop.run ~count:5 ~seed:1 p).r_outcome with
  | Prop.Pass _ -> Alcotest.fail "property should fail"
  | Prop.Fail { error; _ } -> (
      match error with
      | Some e ->
          Alcotest.(check bool) "exception text captured" true
            (Helpers.contains_substring e "boom")
      | None -> Alcotest.fail "expected the exception text")

let test_prop_integrated_shrinking () =
  (* values in [500, 1000] all violate [x < 100]; greedy shrinking over
     halve-or-decrement must land exactly on the boundary 100 *)
  let gen rng = Rng.int_range rng 500 1000 in
  let candidates x = List.filter (fun c -> c >= 0) [ x / 2; x - 1 ] in
  let p =
    Prop.make ~name:"bounded" ~show:string_of_int ~candidates
      ~measure:(fun x -> x)
      gen
      (fun x -> x < 100)
  in
  match (Prop.run ~count:5 ~seed:3 p).r_outcome with
  | Prop.Pass _ -> Alcotest.fail "property should fail"
  | Prop.Fail { shrunk; _ } -> (
      match shrunk with
      | Some s -> Alcotest.(check string) "shrunk to the boundary" "100" s
      | None -> Alcotest.fail "expected a shrunk counterexample")

let test_prop_run_deterministic () =
  let render r = Format.asprintf "%a" Prop.pp_result r in
  let p = Prop.make ~name:"flaky-free" ~show:string_of_int gen_nat (fun x -> x mod 7 <> 3) in
  Alcotest.(check string)
    "two runs render identically"
    (render (Prop.run ~count:40 ~seed:11 p))
    (render (Prop.run ~count:40 ~seed:11 p))

(* -- the generator ---------------------------------------------------------- *)

let qtest = QCheck_alcotest.to_alcotest

let gen_deterministic =
  QCheck.Test.make ~count:30 ~name:"gen: equal seeds, equal programs"
    QCheck.small_nat (fun seed ->
      let p1 = Check.Gen.program (Rng.make seed) in
      let p2 = Check.Gen.program (Rng.make seed) in
      String.equal (Pp.program_to_string p1) (Pp.program_to_string p2))

let gen_valid =
  QCheck.Test.make ~count:30 ~name:"gen: programs lower, verify, terminate"
    QCheck.small_nat (fun seed ->
      let p = Check.Gen.program (Rng.make seed) in
      let m = Yali.lower p in
      (match Ir.Verify.check_module m with
      | [] -> ()
      | e :: _ ->
          QCheck.Test.fail_reportf "verify: %s"
            (Format.asprintf "%a" Ir.Verify.pp_error e));
      let inputs = Yali.Adapt.Fitness.inputs_for (Rng.make (seed + 1)) ~vectors:2 ~len:16 in
      Array.for_all
        (fun input ->
          ignore (Ir.Interp.run ~fuel:Tv.default_fuel m input);
          true)
        inputs)

(* -- the pass registry ------------------------------------------------------ *)

let test_passdb_covers_registry () =
  (* every transform pass and obfuscator, the pipelines and the
     compositions; the engine and codec oracles key each entry's rng on its
     position, so the order is part of the contract *)
  Alcotest.(check (list string))
    "entries, in order"
    ([ "O0"; "O1"; "O2"; "O3" ]
    @ List.map
        (fun (p : Yali.Transforms.Pipeline.pass) -> p.pname)
        Yali.Transforms.Pipeline.all_passes
    @ [ "sub"; "bcf"; "fla"; "ollvm" ]
    @ [ "O2+sub"; "O2+bcf"; "O2+fla"; "O3+ollvm"; "fla+O2"; "ollvm+O3" ])
    (List.map (fun (e : Passdb.entry) -> e.ename) Passdb.all)

(* -- per-pass translation validation ---------------------------------------- *)

let test_validate_real_pass () =
  let entry = Option.get (Passdb.find "constfold") in
  List.iter
    (fun seed ->
      let rng = Rng.make seed in
      let p = Check.Gen.program (Rng.split_ix rng 0) in
      match Tv.validate entry (Rng.split_ix rng 1) p with
      | Tv.Valid -> ()
      | Tv.Bad_baseline e -> Alcotest.failf "bad baseline (seed %d): %s" seed e
      | Tv.Miscompiled k ->
          Alcotest.failf "constfold miscompiled (seed %d): %s" seed
            (Tv.failure_kind_to_string k))
    [ 21; 22; 23 ];
  (* O0 applies no stage, so a program printing NaN must validate *)
  match
    Tv.validate (Option.get (Passdb.find "O0")) (Rng.make 1)
      (Yali.parse Helpers.prints_nan)
  with
  | Tv.Valid -> ()
  | Tv.Bad_baseline e -> Alcotest.failf "NaN program: bad baseline: %s" e
  | Tv.Miscompiled k ->
      Alcotest.failf "NaN program fails O0: %s" (Tv.failure_kind_to_string k)

(* A deliberately planted miscompile, as a test-only entry: an off-by-one
   "strength reduction" that rewrites [x + c] into [x + (c+1)].
   Structurally valid SSA — only the differential run can see it.  Unlike a
   fold-to-zero bug it cannot stall loop counters, so modest fuel
   suffices. *)
let off_by_one (m : Ir.Irmod.t) : Ir.Irmod.t =
  Ir.Irmod.map_funcs
    (Ir.Func.map_blocks (fun (b : Ir.Block.t) ->
         {
           b with
           instrs =
             List.map
               (fun (i : Ir.Instr.t) ->
                 match i.kind with
                 | Ir.Instr.Ibin
                     (Ir.Instr.Add, (Ir.Value.Var _ as x), Ir.Value.IConst (t, c))
                   when Int64.compare c 0L > 0 ->
                     {
                       i with
                       kind =
                         Ir.Instr.Ibin
                           (Ir.Instr.Add, x, Ir.Value.IConst (t, Int64.add c 1L));
                     }
                 | _ -> i)
               b.instrs;
         }))
    m

let broken_entry = Passdb.pure "planted-off-by-one" off_by_one

let broken_campaign () =
  Tv.run
    {
      Tv.default with
      seed = 5;
      per_pass = 6;
      entries =
        [ broken_entry ]
        @ List.map
            (fun n -> Option.get (Passdb.find n))
            [ "constfold"; "fla+O2" ];
      fuel = 200_000;
      vectors = 2;
      shrink = true;
      shrink_checks = 300;
      corpus_dir = None;
      log = ignore;
    }

let test_planted_miscompile_caught () =
  let r = broken_campaign () in
  Alcotest.(check bool) "the miscompile is caught" true (r.Tv.c_failures <> []);
  List.iter
    (fun (f : Tv.failure) ->
      (* localized to the planted pass, never blamed on the honest one *)
      Alcotest.(check string) "localized to the planted pass"
        "planted-off-by-one" f.f_pass;
      match f.f_minimized with
      | None -> Alcotest.failf "failure %s was not minimized" f.f_origin
      | Some p ->
          let n = Check.Shrink.stmt_count p in
          if n > 10 then
            Alcotest.failf "%s minimized to %d statements (> 10):\n%s"
              f.f_origin n (Pp.program_to_string p);
          (* the minimized program still witnesses the miscompile *)
          match
            Tv.validate ~fuel:200_000 ~vectors:2 broken_entry
              (Rng.make 0) p
          with
          | Tv.Miscompiled _ -> ()
          | Tv.Valid | Tv.Bad_baseline _ ->
              Alcotest.failf "minimized %s no longer reproduces" f.f_origin)
    r.Tv.c_failures

(* A two-stage entry whose first stage inserts an unused [add] reading an
   SSA id nothing defines, and whose second stage ([dce]) deletes it again:
   the final module verifies, so only verification after every stage sees
   the broken intermediate. *)
let plant_undefined_use (m : Ir.Irmod.t) : Ir.Irmod.t =
  let f = Ir.Irmod.find_func_exn m "main" in
  let id, f = Ir.Func.fresh_ids f 2 in
  let entry = Ir.Func.entry f in
  let add =
    Ir.Instr.mk ~id ~ty:Ir.Types.I64
      (Ir.Instr.Ibin (Ir.Instr.Add, Ir.Value.var (id + 1), Ir.Value.i64 1))
  in
  Ir.Irmod.update_func m
    (Ir.Func.update_block f { entry with instrs = add :: entry.instrs })

let plant_then_dce =
  {
    Passdb.ename = "plant+dce";
    efuel = 4;
    estages =
      [
        {
          sname = "plant-undefined-use";
          srun = (fun _ -> plant_undefined_use);
        };
        { sname = "dce"; srun = (fun _ -> Yali.Transforms.Pipeline.dce.prun) };
      ];
  }

let test_verify_after_every_stage () =
  let p = Check.Gen.program (Rng.make 21) in
  let final = Passdb.apply plant_then_dce (Rng.make 0) (Yali.lower p) in
  Alcotest.(check int) "the final module verifies" 0
    (List.length (Ir.Verify.check_module final));
  match Tv.validate plant_then_dce (Rng.make 1) p with
  | Tv.Miscompiled (Tv.Verify_failed { stage; _ }) ->
      Alcotest.(check string) "blamed on the first stage"
        "plant-undefined-use" stage
  | Tv.Miscompiled k ->
      Alcotest.failf "expected a verifier failure, got %s"
        (Tv.failure_kind_to_string k)
  | Tv.Valid -> Alcotest.fail "only the final module was verified"
  | Tv.Bad_baseline e -> Alcotest.failf "bad baseline: %s" e

let test_tv_jobs_deterministic () =
  let render (r : Tv.report) =
    List.map
      (fun (f : Tv.failure) ->
        ( f.f_pass,
          f.f_origin,
          Option.fold ~none:"" ~some:Pp.program_to_string f.f_minimized ))
      r.Tv.c_failures
  in
  let campaign jobs =
    Yali.Exec.Pool.with_jobs jobs (fun () -> broken_campaign ())
  in
  let r1 = campaign 1 and r4 = campaign 4 in
  Alcotest.(check int) "validations" r1.Tv.c_validations r4.Tv.c_validations;
  Alcotest.(check (list (triple string string string)))
    "identical findings at --jobs 1 and 4" (render r1) (render r4)

(* -- the engine's smoke tier ------------------------------------------------ *)

let test_engine_smoke_clean () =
  let module Engine = Check.Engine in
  let r =
    Engine.run
      {
        Engine.default with
        seed = 42;
        per_pass = Some 2;
        prop_count = Some 8;
        corpus_dir = None;
        log = ignore;
      }
  in
  Alcotest.(check (list string))
    "no translation-validation failures" []
    (List.map (fun (f : Tv.failure) -> f.f_pass) r.Engine.e_tv.Tv.c_failures);
  Alcotest.(check (list string))
    "no oracle failures" []
    (List.map (fun (p : Prop.result) -> p.Prop.r_name)
       (Prop.failed r.Engine.e_props));
  Alcotest.(check bool) "engine verdict ok" true r.Engine.e_ok;
  Alcotest.(check int) "every entry validated" (List.length Passdb.all)
    r.Engine.e_tv.Tv.c_passes

(* -- the regression corpus -------------------------------------------------- *)

(* [f] gets a path that does not exist yet ([Corpus.save] mkdir-ps it) *)
let with_temp_dir f =
  Yali.Util.Fs.with_temp_dir "check-corpus" (fun d ->
      f (Filename.concat d "corpus"))

let write_garbage dir =
  let oc = open_out (Filename.concat dir "garbage.c") in
  output_string oc "int main( { ][ }";
  close_out oc

let test_corpus_roundtrip () =
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
      write_garbage dir;
      let errors =
        List.filter (fun (_, e) -> Result.is_error e) (Check.Corpus.load dir)
      in
      Alcotest.(check int) "unparseable entries surface as errors" 1
        (List.length errors))

let test_corpus_replayed_first () =
  with_temp_dir (fun dir ->
      let p = Check.Gen.program (Rng.make 9) in
      ignore (Check.Corpus.save ~dir p);
      let r =
        Tv.run
          {
            Tv.default with
            seed = 5;
            per_pass = 0;
            corpus_dir = Some dir;
            entries = [ Option.get (Passdb.find "O2") ];
          }
      in
      Alcotest.(check int) "corpus entry replayed" 1 r.Tv.c_corpus;
      Alcotest.(check int) "no fresh generation" 1 r.Tv.c_programs;
      Alcotest.(check (list string)) "clean replay" []
        (List.map (fun (f : Tv.failure) -> f.f_origin) r.Tv.c_failures))

(* [--save] persists reproducers of failing programs; a corpus file that
   does not parse has none, and saving an empty one would fail every later
   run on [main] missing *)
let test_save_skips_unparsed () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      write_garbage dir;
      let module Engine = Check.Engine in
      let r =
        Engine.run
          {
            Engine.default with
            seed = 1;
            per_pass = Some 0;
            prop_count = Some 0;
            corpus_dir = Some dir;
            save_findings = true;
          }
      in
      Alcotest.(check bool) "the unparseable file fails the run" false
        r.Engine.e_ok;
      Alcotest.(check (list string))
        "nothing saved beside it" [ "garbage.c" ]
        (Array.to_list (Sys.readdir dir)))

let suite =
  [
    Alcotest.test_case "minimize: greedy, deterministic" `Quick
      test_minimize_lists;
    Alcotest.test_case "minimize: max_checks cap" `Quick
      test_minimize_respects_max_checks;
    Alcotest.test_case "prop: passing law" `Quick test_prop_pass;
    Alcotest.test_case "prop: failure + replay" `Quick
      test_prop_fail_and_replay;
    Alcotest.test_case "prop: exception reported" `Quick
      test_prop_exception_reported;
    Alcotest.test_case "prop: integrated shrinking" `Quick
      test_prop_integrated_shrinking;
    Alcotest.test_case "prop: deterministic runs" `Quick
      test_prop_run_deterministic;
    qtest gen_deterministic;
    qtest gen_valid;
    Alcotest.test_case "passdb: covers the pass registry" `Quick
      test_passdb_covers_registry;
    Alcotest.test_case "tv: real pass validates" `Quick test_validate_real_pass;
    Alcotest.test_case "tv: planted miscompile caught + minimized" `Quick
      test_planted_miscompile_caught;
    Alcotest.test_case "tv: verifies after every stage" `Quick
      test_verify_after_every_stage;
    Alcotest.test_case "tv: jobs-deterministic" `Quick
      test_tv_jobs_deterministic;
    Alcotest.test_case "engine: smoke tier clean" `Quick
      test_engine_smoke_clean;
    Alcotest.test_case "corpus: save/load roundtrip" `Quick
      test_corpus_roundtrip;
    Alcotest.test_case "corpus: replayed before generation" `Quick
      test_corpus_replayed_first;
    Alcotest.test_case "corpus: --save skips unparsed files" `Quick
      test_save_skips_unparsed;
  ]
