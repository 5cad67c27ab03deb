let () =
  Alcotest.run "rgs"
    [
      ("sequence", Test_sequence.suite);
      ("pattern", Test_pattern.suite);
      ("core-units", Test_core_units.suite);
      ("csr", Test_csr.suite);
      ("store", Test_store.suite);
      ("perf-guard", Test_perf_guard.suite);
      ("paper-examples", Test_paper_examples.suite);
      ("baselines", Test_baselines.suite);
      ("datagen", Test_datagen.suite);
      ("post", Test_post.suite);
      ("miner", Test_miner.suite);
      ("query", Test_query.suite);
      ("extensions", Test_extensions.suite);
      ("parallel", Test_parallel.suite);
      ("shards", Test_shards.suite);
      ("trace", Test_trace.suite);
      ("properties", Test_properties.suite);
      ("robustness", Test_robustness.suite);
      ("chaos", Test_chaos.suite);
      ("daemon", Test_daemon.suite);
      ("supervise", Test_supervise.suite);
      ("experiments", Test_experiments.suite);
      ("export", Test_export.suite);
      ("regressions", Test_regressions.suite);
    ]
