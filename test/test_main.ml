(** Test entry point: all suites, `dune runtest`. *)

let () =
  Alcotest.run "yali"
    [
      ("rng", Test_rng.suite);
      ("ir", Test_ir.suite);
      ("interp", Test_interp.suite);
      ("semantics", Test_semantics.suite);
      ("minic", Test_minic.suite);
      ("irparser", Test_irparser.suite);
      ("loops", Test_loops.suite);
      ("transforms", Test_transforms.suite);
      ("licm", Test_licm.suite);
      ("obfuscation", Test_obfuscation.suite);
      ("embeddings", Test_embeddings.suite);
      ("ml", Test_ml.suite);
      ("nn", Test_nn.suite);
      ("fmat", Test_fmat.suite);
      ("dataset", Test_dataset.suite);
      ("gen_dsl", Test_gen_dsl.suite);
      ("exec", Test_exec.suite);
      ("vm", Test_vm.suite);
      ("check", Test_check.suite);
      ("games", Test_games.suite);
      ("antivirus", Test_antivirus.suite);
      ("integration", Test_integration.suite);
      ("serve", Test_serve.suite);
      ("corpus", Test_corpus.suite);
      ("adapt", Test_adapt.suite);
    ]
