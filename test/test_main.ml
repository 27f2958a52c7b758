let () =
  Alcotest.run "skil"
    (Test_index.suite @ Test_topology.suite @ Test_machine.suite
   @ Test_trace.suite @ Test_faults.suite
   @ Test_collectives.suite @ Test_distribution.suite @ Test_darray.suite
   @ Test_skeletons.suite @ Test_apps.suite
   @ Test_baselines.suite @ Test_lang.suite
   @ Test_skil_programs.suite @ Test_engines.suite @ Test_specialize.suite
   @ Test_optimize.suite @ Test_pdes.suite @ Test_paths.suite
   @ Test_harness.suite @ Test_pool.suite
   @ Test_properties.suite @ Test_native.suite @ Test_service.suite)
