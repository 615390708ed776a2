let () =
  (* The dune runtest alias drives this binary twice, with XCV_TEST_WORKERS
     set to 1 and 2, so every verifier-driving suite exercises both the
     sequential and the parallel scheduler path (see Testutil.test_workers). *)
  Printf.eprintf "[xcverifier tests] XCV_TEST_WORKERS=%d\n%!"
    Testutil.test_workers;
  Alcotest.run "xcverifier"
    [
      ("testutil", Test_testutil.suite);
      ("rat", Test_rat.suite);
      ("expr", Test_expr.suite);
      ("eval-compile-parse", Test_eval.suite);
      ("deriv", Test_deriv.suite);
      ("simplify-subst", Test_simplify.suite);
      ("interval", Test_interval.suite);
      ("transcend", Test_transcend.suite);
      ("solver", Test_solver.suite);
      ("itape", Test_itape.suite);
      ("taylor", Test_taylor.suite);
      ("adjoint", Test_adjoint.suite);
      ("functionals", Test_functionals.suite);
      ("spin", Test_spin.suite);
      ("conditions", Test_conditions.suite);
      ("verifier", Test_verifier.suite);
      ("outcome", Test_outcome.suite);
      ("witness", Test_witness.suite);
      ("pb-baseline", Test_pb.suite);
      ("report", Test_report.suite);
      ("parallel", Test_parallel.suite);
      ("serialize", Test_serialize.suite);
      ("resilience", Test_resilience.suite);
      ("shard", Test_shard.suite);
      ("trace", Test_trace.suite);
      ("mutate", Test_mutate.suite);
      ("obs", Test_obs.suite);
      ("codegen", Test_codegen.suite);
      ("jit", Test_jit.suite);
      ("service", Test_service.suite);
    ]
