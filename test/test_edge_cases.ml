(* Edge cases and failure injection across the stack. *)

open Iq

(* --- degenerate geometry --- *)

let test_duplicate_objects () =
  (* Coinciding objects create no intersection and must not break ESE. *)
  let data = [| [| 0.5; 0.5 |]; [| 0.5; 0.5 |]; [| 0.1; 0.9 |] |] in
  let queries =
    [ Topk.Query.make ~id:0 ~k:1 [| 1.; 0. |]; Topk.Query.make ~id:1 ~k:2 [| 0.5; 0.5 |] ]
  in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  for t = 0 to 2 do
    let ese = Evaluator.ese idx ~target:t in
    let naive = Evaluator.naive inst ~target:t in
    Alcotest.(check int)
      (Printf.sprintf "dup base t=%d" t)
      naive.Evaluator.base_hits ese.Evaluator.base_hits;
    let s = [| -0.2; 0.1 |] in
    Alcotest.(check int)
      (Printf.sprintf "dup eval t=%d" t)
      (naive.Evaluator.hit_count s) (ese.Evaluator.hit_count s)
  done

let test_single_object () =
  (* One object hits every query trivially; improvement changes nothing. *)
  let data = [| [| 0.3; 0.3 |] |] in
  let queries = [ Topk.Query.make ~k:1 [| 1.; 0. |] ] in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  let ese = Evaluator.ese idx ~target:0 in
  Alcotest.(check int) "hits all" 1 ese.Evaluator.base_hits;
  Alcotest.(check int) "still hits all" 1 (ese.Evaluator.hit_count [| 5.; 5. |])

let test_zero_weight_query () =
  (* An all-zero weight vector scores everything 0; ids break ties. *)
  let data = [| [| 0.9; 0.9 |]; [| 0.1; 0.1 |] |] in
  let queries = [ Topk.Query.make ~k:1 [| 0.; 0. |] ] in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  Alcotest.(check bool) "id 0 wins tie" true (Query_index.member idx ~q:0 0);
  Alcotest.(check bool) "id 1 loses tie" false (Query_index.member idx ~q:0 1)

let test_identical_queries () =
  let data =
    Workload.Datagen.generate (Workload.Rng.make 3) Workload.Datagen.Independent
      ~n:50 ~d:2
  in
  let w = [| 0.4; 0.6 |] in
  let queries = List.init 10 (fun i -> Topk.Query.make ~id:i ~k:3 w) in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  (* All ten queries share one subdomain group. *)
  Alcotest.(check int) "one group" 1 (Query_index.n_groups idx)

let test_min_cost_trivial_tau () =
  (* tau <= 0 is trivially satisfied: zero strategy, zero iterations.
     (Goal validation with typed errors lives in Engine.) *)
  let data = [| [| 0.5 |]; [| 0.6 |] |] in
  let queries = [ Topk.Query.make ~k:1 [| 1. |] ] in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  let ev = Evaluator.ese idx ~target:0 in
  match Min_cost.search ~evaluator:ev ~cost:(Cost.euclidean 1) ~target:0 ~tau:0 () with
  | None -> Alcotest.fail "tau=0 must be satisfiable"
  | Some o ->
      Alcotest.(check int) "no iterations" 0 o.Min_cost.iterations;
      Alcotest.(check (float 0.)) "zero cost" 0. o.Min_cost.total_cost;
      Alcotest.(check int) "hits unchanged" o.Min_cost.hits_before
        o.Min_cost.hits_after

let test_max_hit_negative_budget_buys_nothing () =
  (* beta < 0 buys nothing: the zero strategy comes back untouched.
     (Engine reports Budget_exhausted for negative budgets.) *)
  let data = [| [| 0.5 |]; [| 0.6 |] |] in
  let queries = [ Topk.Query.make ~k:1 [| 1. |] ] in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  let ev = Evaluator.ese idx ~target:0 in
  let o =
    Max_hit.search ~evaluator:ev ~cost:(Cost.euclidean 1) ~target:0
      ~beta:(-1.) ()
  in
  Alcotest.(check int) "no iterations" 0 o.Max_hit.iterations;
  Alcotest.(check (float 0.)) "nothing spent" 0. o.Max_hit.incremental_cost;
  Alcotest.(check int) "hits unchanged" o.Max_hit.hits_before
    o.Max_hit.hits_after

(* --- cost function edge cases --- *)

let test_weighted_cost_end_to_end () =
  let rng = Workload.Rng.make 12 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:80 ~d:3 in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5)
      ~m:40 ~d:3 ()
  in
  let inst = Instance.create ~data ~queries () in
  let idx = Query_index.build inst in
  (* Attribute 0 is 100x more expensive: strategies should barely move it. *)
  let cost = Cost.weighted_euclidean [| 100.; 1.; 1. |] in
  let ev = Evaluator.ese idx ~target:0 in
  match Min_cost.search ~evaluator:ev ~cost ~target:0 ~tau:5 () with
  | None -> Alcotest.fail "search failed"
  | Some o ->
      let s = o.Min_cost.strategy in
      Alcotest.(check bool)
        (Printf.sprintf "expensive attr small (%.4f vs %.4f)" (abs_float s.(0))
           (abs_float s.(1) +. abs_float s.(2)))
        true
        (abs_float s.(0) <= abs_float s.(1) +. abs_float s.(2) +. 1e-9)

let test_desc_order_end_to_end () =
  (* In Desc order, improving means increasing the score: the strategy
     should push weighted-positive attributes up. *)
  let rng = Workload.Rng.make 13 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:60 ~d:2 in
  let queries =
    List.init 30 (fun i ->
        Topk.Query.make ~id:i
          ~k:(1 + Workload.Rng.int rng 4)
          [| Workload.Rng.uniform rng; Workload.Rng.uniform rng |])
  in
  let inst = Instance.create ~order:Topk.Utility.Desc ~data ~queries () in
  let idx = Query_index.build inst in
  let ev = Evaluator.ese idx ~target:5 in
  match Min_cost.search ~evaluator:ev ~cost:(Cost.euclidean 2) ~target:5 ~tau:5 () with
  | None -> Alcotest.fail "search failed"
  | Some o ->
      (* The improvement must point upward overall (the feature space
         negates weights, so a feature-space decrease = raw increase).
         Strategies live in the negated space here; interpret sign. *)
      Alcotest.(check bool) "achieved" true (o.Min_cost.hits_after >= 5)

(* --- CSV failure injection --- *)

let test_csv_ragged_rows () =
  (* Short rows pad with NULL; long rows drop extras — never crash. *)
  let t = Relation.Csv.table_of_string "a,b,c\n1,2\n1,2,3,4\n" in
  Alcotest.(check int) "rows" 2 (Relation.Table.length t);
  Alcotest.(check bool)
    "padded null" true
    (Relation.Value.is_null (Relation.Table.get t 0).(2))

let test_csv_empty_rejected () =
  Alcotest.(check bool)
    "empty doc rejected" true
    (try
       ignore (Relation.Csv.table_of_string "");
       false
     with Invalid_argument _ -> true)

let test_csv_unterminated_quote_lenient () =
  let fields = Relation.Csv.parse_line "\"abc" in
  Alcotest.(check (list string)) "lenient" [ "abc" ] fields

(* --- R-tree pathological inputs --- *)

let test_rtree_identical_points () =
  let t = Rtree.create ~dim:2 () in
  for i = 0 to 99 do
    Rtree.insert_point t [| 0.5; 0.5 |] i
  done;
  Rtree.check_invariants t;
  Alcotest.(check int) "all stored" 100 (Rtree.size t);
  let found = Rtree.search t (Geom.Box.of_point [| 0.5; 0.5 |]) in
  Alcotest.(check int) "all found" 100 (List.length found)

let test_rtree_collinear_points () =
  let t = Rtree.create ~dim:2 () in
  for i = 0 to 199 do
    Rtree.insert_point t [| float_of_int i /. 200.; 0. |] i
  done;
  Rtree.check_invariants t;
  let window = Geom.Box.make ~lo:[| 0.25; -0.1 |] ~hi:[| 0.5; 0.1 |] in
  let found = Rtree.search t window in
  Alcotest.(check int) "range on a line" 51 (List.length found)

(* --- simplex numerical robustness --- *)

let test_simplex_tiny_coefficients () =
  match
    Lp.Simplex.minimize ~objective:[| 1e-8; 1. |]
      ~constraints:[ ([| 1e-8; 1. |], Lp.Simplex.Ge, 1e-8) ]
  with
  | Lp.Simplex.Optimal (_, v) ->
      Alcotest.(check bool) "finite optimum" true (Float.is_finite v)
  | _ -> Alcotest.fail "expected optimum"

(* --- non-finite input --- *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Engine.Error.to_string e)

let expect_non_finite what = function
  | Error (Engine.Error.Non_finite { what = w; _ }) ->
      Alcotest.(check string) "rejected input" what w
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e)
  | Ok _ -> Alcotest.failf "a non-finite %s was accepted" what

let test_engine_rejects_non_finite () =
  (* A NaN breaks the ranking order, after which the maintained index
     no longer matches a fresh build of the same instance (and recovery,
     which rebuilds, would disagree with the writer). Every mutation
     must refuse such input before it is journaled. *)
  for seed = 1 to 20 do
    let rng = Workload.Rng.make seed in
    let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:40 ~d:2 in
    let queries =
      Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5)
        ~m:30 ~d:2 ()
    in
    let e = ok (Engine.create (Instance.create ~data ~queries ())) in
    expect_non_finite "object attribute"
      (Engine.update_object e (seed mod 40) [| Float.nan; 0.5 |]);
    expect_non_finite "object attribute"
      (Engine.add_object e [| 0.2; Float.infinity |]);
    expect_non_finite "query weight"
      (Engine.add_query e (Topk.Query.make ~k:2 [| Float.nan; 0.3 |]));
    Alcotest.(check int) "no generation published" 0 (Engine.generation e);
    let fresh = ok (Engine.create (Engine.instance e)) in
    for target = 0 to 39 do
      Alcotest.(check int)
        (Printf.sprintf "seed %d target %d hits = fresh build" seed target)
        (ok (Engine.hits fresh ~target))
        (ok (Engine.hits e ~target))
    done
  done

let test_instance_rejects_non_finite () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  let queries = [ Topk.Query.make ~k:1 [| 0.5; 0.5 |] ] in
  Alcotest.(check bool)
    "NaN attribute" true
    (raises (fun () ->
         Instance.create ~data:[| [| 0.1; Float.nan |] |] ~queries ()));
  Alcotest.(check bool)
    "infinite weight" true
    (raises (fun () ->
         Instance.create ~data:[| [| 0.1; 0.2 |] |]
           ~queries:[ Topk.Query.make ~k:1 [| Float.neg_infinity; 0.5 |] ]
           ()))

let test_loader_rejects_non_finite () =
  let line_of load contents =
    let path = Filename.temp_file "iq_non_finite" ".csv" in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    let r = load path in
    Sys.remove path;
    match r with
    | Error (`Parse_error e) -> e.Workload.Loader.line
    | Ok _ -> Alcotest.fail "a non-finite cell was accepted"
  in
  Alcotest.(check int)
    "NaN object cell -> its line" 3
    (line_of Workload.Loader.load_objects "a,b\n0.1,0.2\n0.3,nan\n0.4,0.5\n");
  Alcotest.(check int)
    "infinite weight -> its line" 4
    (line_of Workload.Loader.load_queries "k,w0,w1\n1,0.5,0.5\n2,0.1,0.9\n2,inf,0.1\n")

let suite =
  [
    Alcotest.test_case "duplicate objects" `Quick test_duplicate_objects;
    Alcotest.test_case "single object" `Quick test_single_object;
    Alcotest.test_case "zero-weight query ties" `Quick test_zero_weight_query;
    Alcotest.test_case "identical queries share group" `Quick test_identical_queries;
    Alcotest.test_case "tau trivial" `Quick test_min_cost_trivial_tau;
    Alcotest.test_case "beta buys nothing" `Quick
      test_max_hit_negative_budget_buys_nothing;
    Alcotest.test_case "weighted cost steers" `Quick test_weighted_cost_end_to_end;
    Alcotest.test_case "Desc order end-to-end" `Quick test_desc_order_end_to_end;
    Alcotest.test_case "csv ragged rows" `Quick test_csv_ragged_rows;
    Alcotest.test_case "csv empty rejected" `Quick test_csv_empty_rejected;
    Alcotest.test_case "csv unterminated quote" `Quick test_csv_unterminated_quote_lenient;
    Alcotest.test_case "rtree identical points" `Quick test_rtree_identical_points;
    Alcotest.test_case "rtree collinear points" `Quick test_rtree_collinear_points;
    Alcotest.test_case "simplex tiny coefficients" `Quick test_simplex_tiny_coefficients;
    Alcotest.test_case "engine rejects non-finite input" `Quick
      test_engine_rejects_non_finite;
    Alcotest.test_case "instance rejects non-finite input" `Quick
      test_instance_rejects_non_finite;
    Alcotest.test_case "loaders reject non-finite cells" `Quick
      test_loader_rejects_non_finite;
  ]
