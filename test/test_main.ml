let () =
  Alcotest.run "improvement-queries"
    [
      ("geom.vec", Test_vec.suite);
      ("geom.hyperplane", Test_hyperplane.suite);
      ("geom.box", Test_box.suite);
      ("geom.chull", Test_chull.suite);
      ("rtree.heap", Test_heap.suite);
      ("rtree", Test_rtree.suite);
      ("bloom", Test_bloom.suite);
      ("lp.simplex", Test_simplex.suite);
      ("lp.projection", Test_projection.suite);
      ("relation", Test_relation.suite);
      ("sql", Test_sql.suite);
      ("sql.joins", Test_sql_joins.suite);
      ("sql.roundtrip", Test_sql_roundtrip.suite);
      ("topk", Test_topk.suite);
      ("topk.indexes", Test_indexes.suite);
      ("workload", Test_workload.suite);
      ("core.basics", Test_core_basics.suite);
      ("core.subdomain", Test_subdomain.suite);
      ("core.subdomain.updates", Test_subdomain_updates.suite);
      ("core.ese", Test_ese.suite);
      ("core.search", Test_search.suite);
      ("core.extensions", Test_extensions.suite);
      ("core.properties", Test_properties.suite);
      ("core.engine", Test_engine.suite);
      ("core.hotpath", Test_hotpath.suite);
      ("resilience", Test_resilience.suite);
      ("serve", Test_serve.suite);
      ("durable", Test_durable.suite);
      ("parallel", Test_parallel.suite);
      ("lint", Test_lint.suite);
      ("edge-cases", Test_edge_cases.suite);
    ]
