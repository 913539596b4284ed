(** The correctness-tooling layer: the property engine's determinism,
    replay and shrinking contracts; the pass-registration table; per-pass
    translation validation — including a deliberately planted miscompile
    that must be caught, localized to its pass, and minimized; and the
    smoke tier of the engine coming back clean. *)

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

(* -- the pass-registration table -------------------------------------------- *)

let test_passdb_covers_registry () =
  let names = List.map (fun (e : Passdb.entry) -> e.ename) Passdb.builtin in
  List.iter
    (fun (p : Yali.Transforms.Pipeline.pass) ->
      Alcotest.(check bool)
        (Printf.sprintf "pass %s registered" p.pname)
        true
        (List.mem p.pname names))
    Yali.Transforms.Pipeline.all_passes;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "obfuscator %s registered" n)
        true (List.mem n names))
    [ "sub"; "bcf"; "fla"; "ollvm" ]

let test_passdb_feeds_fuzzer () =
  (* the fuzzer's single-pass variants are derived from this table: every
     built-in entry must be reachable as a pipeline variant of its name *)
  List.iter
    (fun (e : Passdb.entry) ->
      match Check.Pipelines.find e.ename with
      | Some v ->
          Alcotest.(check string) "variant name" e.ename
            v.Check.Pipelines.vname
      | None ->
          Alcotest.failf "pass %s has no fuzz pipeline variant" e.ename)
    Passdb.builtin

let test_passdb_register_unregister () =
  let entry = Passdb.pure ~kind:Passdb.Test "tmp-identity" Fun.id in
  Fun.protect
    ~finally:(fun () -> Passdb.unregister "tmp-identity")
    (fun () ->
      Passdb.register entry;
      Alcotest.(check bool) "findable" true (Passdb.find "tmp-identity" <> None);
      Alcotest.(check bool) "listed" true
        (List.mem "tmp-identity" (Passdb.names ()));
      Alcotest.(check bool) "not builtin" false
        (List.exists
           (fun (e : Passdb.entry) -> e.ename = "tmp-identity")
           Passdb.builtin);
      (* re-registering replaces rather than duplicates *)
      Passdb.register { entry with efuel = 9 };
      Alcotest.(check int) "single entry after re-register" 1
        (List.length
           (List.filter
              (fun (e : Passdb.entry) -> e.ename = "tmp-identity")
              (Passdb.all ()))));
  Alcotest.(check bool) "gone after unregister" true
    (Passdb.find "tmp-identity" = None)

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
    [ 21; 22; 23 ]

(* A deliberately planted miscompile, registered as a [Test] entry: an
   off-by-one "strength reduction" that rewrites [x + c] into [x + (c+1)].
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

let broken_entry =
  Passdb.pure ~kind:Passdb.Test ~fuel:4 "planted-off-by-one" off_by_one

let broken_campaign () =
  Tv.run
    {
      Tv.default with
      seed = 5;
      per_pass = 6;
      entries = [ broken_entry; Option.get (Passdb.find "constfold") ];
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
  (* every pass and the three pipeline compositions were covered *)
  let expected = List.length (Engine.entries ()) in
  Alcotest.(check int) "every entry validated" expected r.Engine.e_tv.Tv.c_passes

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
    Alcotest.test_case "passdb: covers the pass registry" `Quick
      test_passdb_covers_registry;
    Alcotest.test_case "passdb: feeds the fuzzer" `Quick
      test_passdb_feeds_fuzzer;
    Alcotest.test_case "passdb: register/unregister" `Quick
      test_passdb_register_unregister;
    Alcotest.test_case "tv: real pass validates" `Quick test_validate_real_pass;
    Alcotest.test_case "tv: planted miscompile caught + minimized" `Quick
      test_planted_miscompile_caught;
    Alcotest.test_case "tv: jobs-deterministic" `Quick
      test_tv_jobs_deterministic;
    Alcotest.test_case "engine: smoke tier clean" `Quick
      test_engine_smoke_clean;
  ]
