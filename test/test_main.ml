let () =
  Alcotest.run "tessera"
    [
      (* protocol first: its two-process test forks, and Unix.fork is
         illegal once any suite has spawned a domain (the pool and
         obs domain-safety tests do) *)
      ("protocol", Test_protocol.suite);
      ("serve", Test_serve.suite);
      ("util", Test_util.suite);
      ("bytes", Test_bytes.suite);
      ("il", Test_il.suite);
      ("vm", Test_vm.suite);
      ("codegen", Test_codegen.suite);
      ("interp", Test_interp.suite);
      ("lang", Test_lang.suite);
      ("lexer", Test_lexer.suite);
      ("opt", Test_opt.suite);
      ("analysis", Test_analysis.suite);
      ("features", Test_features.suite);
      ("modifiers", Test_modifiers.suite);
      ("collect", Test_collect.suite);
      ("dataproc", Test_dataproc.suite);
      ("svm", Test_svm.suite);
      ("faults", Test_faults.suite);
      ("jit", Test_jit.suite);
      ("workloads", Test_workloads.suite);
      ("engines", Test_engines.suite);
      ("properties", Test_properties.suite);
      ("harness", Test_harness.suite);
      ("cache", Test_cache.suite);
      ("obs", Test_obs.suite);
      ("flat", Test_flat.suite);
    ]
