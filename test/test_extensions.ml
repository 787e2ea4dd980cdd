open Iq

(* --- Nonlinear (Sections 5.2 / 5.3) --- *)

let test_monomial_utility () =
  let map =
    [| { Nonlinear.attr = 0; degree = 2 }; { Nonlinear.attr = 1; degree = 1 } |]
  in
  let u = Nonlinear.monomial_utility ~dim_in:2 map in
  let f = u.Topk.Utility.features [| 3.; 5. |] in
  Alcotest.(check (float 1e-9)) "x0^2" 9. f.(0);
  Alcotest.(check (float 1e-9)) "x1" 5. f.(1)

let test_invert_strategy_roundtrip () =
  let map =
    [| { Nonlinear.attr = 0; degree = 3 }; { Nonlinear.attr = 1; degree = 2 } |]
  in
  let u = Nonlinear.monomial_utility ~dim_in:2 map in
  let raw = [| 0.5; 0.8 |] in
  let s_feature = [| 0.2; -0.1 |] in
  match Nonlinear.invert_strategy map ~raw ~s_feature with
  | None -> Alcotest.fail "expected inversion"
  | Some s_raw ->
      (* Applying the raw adjustment must reproduce the improved
         feature vector. *)
      let raw' = Geom.Vec.add raw s_raw in
      let f' = u.Topk.Utility.features raw' in
      let expected = Geom.Vec.add (u.Topk.Utility.features raw) s_feature in
      Alcotest.(check bool)
        "features match after inversion" true
        (Geom.Vec.equal ~eps:1e-9 f' expected)

let test_invert_no_real_root () =
  let map = [| { Nonlinear.attr = 0; degree = 2 } |] in
  (* New feature value 0.04 - 0.5 < 0 with even degree: no real root. *)
  Alcotest.(check bool)
    "even-degree negative rejected" true
    (Nonlinear.invert_strategy map ~raw:[| 0.2 |] ~s_feature:[| -0.5 |] = None)

let test_invert_odd_root_negative () =
  let map = [| { Nonlinear.attr = 0; degree = 3 } |] in
  match Nonlinear.invert_strategy map ~raw:[| 0.0 |] ~s_feature:[| -0.008 |] with
  | None -> Alcotest.fail "odd roots of negatives exist"
  | Some s -> Alcotest.(check (float 1e-9)) "cube root" (-0.2) s.(0)

let test_generic_function () =
  (* Two heterogeneous families over the Car dataset (Section 5.3). *)
  let u = Topk.Utility.custom ~name:"u" ~dim_in:3 [ Topk.Utility.sqrt_term 0 ] in
  let v =
    Topk.Utility.custom ~name:"v" ~dim_in:3
      [ (fun c -> c.(2) /. Float.max 1e-9 c.(0)); (fun c -> c.(1) ** 2.) ]
  in
  let g = Nonlinear.generic [ u; v ] in
  Alcotest.(check int) "combined dims" 3 g.Topk.Utility.dim_out;
  (* A query in family u zero-pads family v's block. *)
  let q = Topk.Query.make ~k:1 [| 2. |] in
  let embedded = Nonlinear.embed_query ~families:[ u; v ] ~family:0 q in
  Alcotest.(check int) "embedded arity" 3 (Geom.Vec.dim embedded.Topk.Query.weights);
  Alcotest.(check (float 0.)) "block v zero" 0. embedded.Topk.Query.weights.(1);
  let car = [| 4.; 3.; 8. |] in
  Alcotest.(check (float 1e-9))
    "embedded score = family score" (2. *. sqrt 4.)
    (Topk.Utility.score g ~weights:embedded.Topk.Query.weights car)

let test_generic_end_to_end () =
  (* Mixed workload: some users rank by family u, others by family v;
     IQ processing works in the unified space. *)
  let rng = Workload.Rng.make 55 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:60 ~d:2 in
  let u = Topk.Utility.linear 2 in
  let v = Topk.Utility.polynomial ~dim_in:2 ~terms:[ [ (0, 2) ]; [ (1, 2) ] ] in
  let g = Nonlinear.generic [ u; v ] in
  let queries =
    List.init 30 (fun i ->
        let fam = i mod 2 in
        let q =
          Topk.Query.make ~id:i ~k:(1 + Workload.Rng.int rng 4)
            (Array.init 2 (fun _ -> Workload.Rng.uniform rng))
        in
        Nonlinear.embed_query ~families:[ u; v ] ~family:fam q)
  in
  let inst = Instance.create ~utility:g ~data ~queries () in
  let idx = Query_index.build inst in
  let ev = Evaluator.ese idx ~target:0 in
  let naive = Evaluator.naive inst ~target:0 in
  Alcotest.(check int) "ESE = naive on generic" naive.Evaluator.base_hits ev.Evaluator.base_hits;
  match
    Min_cost.search ~evaluator:ev ~cost:(Cost.euclidean 4) ~target:0 ~tau:5 ()
  with
  | Some o -> Alcotest.(check bool) "tau reached" true (o.Min_cost.hits_after >= 5)
  | None -> Alcotest.fail "generic-function search failed"

(* --- Data updating (Section 4.3) --- *)

let fresh_index seed =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n:80 ~d:3 in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 6)
      ~m:60 ~d:3 ()
  in
  let inst = Instance.create ~data ~queries () in
  Query_index.build inst

(* What an update must leave intact in its argument index: the
   membership matrix, group count and footprint. *)
let observe idx =
  let inst = Query_index.instance idx in
  ( Array.init (Instance.n_queries inst) (fun q ->
        Array.init (Instance.n_objects inst) (fun id ->
            Query_index.member idx ~q id)),
    Query_index.n_groups idx,
    Query_index.size_words idx )

let assert_index_consistent ?parent idx =
  (* Compare every membership against a freshly built index. *)
  let inst = Query_index.instance idx in
  let fresh = Query_index.build inst in
  for id = 0 to Instance.n_objects inst - 1 do
    for q = 0 to Instance.n_queries inst - 1 do
      if Query_index.member idx ~q id <> Query_index.member fresh ~q id then
        Alcotest.failf "stale membership id=%d q=%d" id q
    done
  done;
  match parent with
  | None -> ()
  | Some (parent, before) ->
      if observe parent <> before then
        Alcotest.fail "the update changed its parent index"

(* Apply a functional update, then check the successor against a fresh
   build and the parent against what it held before the update. *)
let updated parent update =
  let before = observe parent in
  let idx, r = update parent in
  assert_index_consistent ~parent:(parent, before) idx;
  (idx, r)

let unit_update f idx = (f idx, ())

let test_add_query () =
  let idx, qi =
    updated (fresh_index 101) (fun idx ->
        Query_index.with_query_added idx
          (Topk.Query.make ~k:3 [| 0.2; 0.3; 0.5 |]))
  in
  Alcotest.(check int) "appended" (Instance.n_queries (Query_index.instance idx) - 1) qi

let test_add_query_hint_hits_for_duplicate () =
  let parent = fresh_index 102 in
  let inst = Query_index.instance parent in
  (* Re-adding an existing query point must verify via the kNN hint. *)
  let w = Geom.Vec.copy inst.Instance.queries.(0).Topk.Query.weights in
  let k = inst.Instance.queries.(0).Topk.Query.k in
  let idx, _ =
    updated parent (fun idx ->
        Query_index.with_query_added idx (Topk.Query.make ~k w))
  in
  let hits, misses = Query_index.hint_stats idx in
  Alcotest.(check bool)
    (Printf.sprintf "hint hit (%d/%d)" hits misses)
    true (hits >= 1);
  Alcotest.(check (pair int int))
    "parent counters untouched" (0, 0)
    (Query_index.hint_stats parent)

let test_add_query_k_guard () =
  let idx = fresh_index 103 in
  Alcotest.(check bool)
    "too-deep k rejected" true
    (try
       ignore
         (Query_index.with_query_added idx
            (Topk.Query.make ~k:100 [| 1.; 1.; 1. |]));
       false
     with Invalid_argument _ -> true)

let test_remove_query () =
  let parent = fresh_index 104 in
  let before = Instance.n_queries (Query_index.instance parent) in
  let idx, () =
    updated parent (unit_update (fun idx -> Query_index.with_query_removed idx 10))
  in
  Alcotest.(check int)
    "one fewer" (before - 1)
    (Instance.n_queries (Query_index.instance idx))

let test_add_object () =
  (* A dominant object must enter many prefixes. *)
  let idx, id =
    updated (fresh_index 105) (fun idx ->
        Query_index.with_object_added idx [| 0.01; 0.01; 0.01 |])
  in
  Alcotest.(check int) "id appended" (Instance.n_objects (Query_index.instance idx) - 1) id;
  (* It should now hit top-1 for every query (it dominates everything). *)
  let inst = Query_index.instance idx in
  for q = 0 to Instance.n_queries inst - 1 do
    Alcotest.(check bool)
      "dominant object hits all" true
      (Query_index.member idx ~q id)
  done

let test_add_object_mediocre () =
  let parent = fresh_index 106 in
  (* A dominated object should change nothing. *)
  let idx, _ =
    updated parent (fun idx ->
        Query_index.with_object_added idx [| 0.99; 0.99; 0.99 |])
  in
  Alcotest.(check int) "groups unchanged" (Query_index.n_groups parent)
    (Query_index.n_groups idx)

let test_remove_object () =
  let parent = fresh_index 107 in
  (* Remove an object that appears in prefixes (pick a rival). *)
  let victim = (Query_index.candidate_rivals parent).(0) in
  ignore
    (updated parent
       (unit_update (fun idx -> Query_index.with_object_removed idx victim)))

let test_remove_uninvolved_object () =
  let parent = fresh_index 108 in
  let inst = Query_index.instance parent in
  let rivals = Query_index.candidate_rivals parent in
  let is_rival id = Array.exists (fun r -> r = id) rivals in
  let victim = ref (-1) in
  for id = Instance.n_objects inst - 1 downto 0 do
    if !victim < 0 && not (is_rival id) then victim := id
  done;
  if !victim >= 0 then
    ignore
      (updated parent
         (unit_update (fun idx -> Query_index.with_object_removed idx !victim)))

let test_update_sequence () =
  (* A realistic mixed maintenance sequence stays consistent, and every
     step leaves its parent as it was. *)
  let idx = fresh_index 109 in
  let idx, _ =
    updated idx (fun idx -> Query_index.with_object_added idx [| 0.3; 0.1; 0.5 |])
  in
  let idx, _ =
    updated idx (fun idx ->
        Query_index.with_query_added idx (Topk.Query.make ~k:2 [| 0.5; 0.5; 0.1 |]))
  in
  let idx, () =
    updated idx (unit_update (fun idx -> Query_index.with_object_removed idx 3))
  in
  let idx, () =
    updated idx
      (unit_update (fun idx ->
           Query_index.with_object_updated idx 5 [| 0.02; 0.4; 0.1 |]))
  in
  let idx, () =
    updated idx (unit_update (fun idx -> Query_index.with_query_removed idx 0))
  in
  let idx, _ =
    updated idx (fun idx ->
        Query_index.with_query_added idx (Topk.Query.make ~k:4 [| 0.1; 0.8; 0.3 |]))
  in
  ignore
    (updated idx (fun idx ->
         Query_index.with_object_added idx [| 0.05; 0.6; 0.2 |]))

let test_rivals_sorted_and_complete () =
  (* [candidate_rivals] is exactly the sorted set of ids in some cached
     prefix; the update path looks ids up in it by binary search. *)
  let idx = fresh_index 110 in
  let from_prefixes =
    Array.fold_left
      (fun acc (g : Query_index.group) -> Array.to_list g.Query_index.prefix @ acc)
      [] (Query_index.groups idx)
    |> List.sort_uniq Int.compare
  in
  Alcotest.(check (list int))
    "rivals = sorted prefix ids" from_prefixes
    (Array.to_list (Query_index.candidate_rivals idx))

(* A random trace of functional updates, replayed against a fresh build
   at the same depth after every step. Removes may shrink the object
   count below the depth, where every prefix holds all objects. *)
type op =
  | Add_query of int * float array
  | Remove_query of int
  | Add_object of float array
  | Update_object of int * float array
  | Remove_object of int

let d = 2

let op_gen =
  QCheck.Gen.(
    let point = array_size (return d) (float_range 0. 1.) in
    let slot = int_range 0 1_000 in
    frequency
      [
        (2, map2 (fun k w -> Add_query (k, w)) (int_range 1 3) point);
        (1, map (fun i -> Remove_query i) slot);
        (2, map (fun p -> Add_object p) point);
        (3, map2 (fun i p -> Update_object (i, p)) slot point);
        (3, map (fun i -> Remove_object i) slot);
      ])

let trace_gen =
  QCheck.Gen.(
    let* seed = int_range 1 10_000 in
    let* n = int_range 6 14 in
    let* ops = list_size (int_range 1 14) op_gen in
    return (seed, n, ops))

let print_trace (seed, n, ops) =
  Printf.sprintf "seed=%d n=%d ops=[%s]" seed n
    (String.concat "; "
       (List.map
          (function
            | Add_query (k, _) -> Printf.sprintf "add_query k=%d" k
            | Remove_query i -> Printf.sprintf "remove_query %d" i
            | Add_object _ -> "add_object"
            | Update_object (i, _) -> Printf.sprintf "update_object %d" i
            | Remove_object i -> Printf.sprintf "remove_object %d" i)
          ops))

let apply idx op =
  let inst = Query_index.instance idx in
  let n = Instance.n_objects inst and m = Instance.n_queries inst in
  match op with
  | Add_query (k, w) -> fst (Query_index.with_query_added idx (Topk.Query.make ~k w))
  | Remove_query i when m > 1 -> Query_index.with_query_removed idx (i mod m)
  | Add_object p -> fst (Query_index.with_object_added idx p)
  | Update_object (i, p) -> Query_index.with_object_updated idx (i mod n) p
  | Remove_object i when n > 1 -> Query_index.with_object_removed idx (i mod n)
  | Remove_query _ | Remove_object _ -> idx

let prefixes idx =
  Array.init
    (Instance.n_queries (Query_index.instance idx))
    (fun q -> (Query_index.group_of idx q).Query_index.prefix)

let prop_trace_matches_build =
  QCheck.Test.make ~name:"with_* trace = fresh build; parents unchanged"
    ~count:60
    (QCheck.make ~print:print_trace trace_gen)
    (fun (seed, n, ops) ->
      let rng = Workload.Rng.make seed in
      let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
      let queries =
        Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 3)
          ~m:8 ~d ()
      in
      let idx0 = Query_index.build ~depth_slack:1 (Instance.create ~data ~queries ()) in
      let depth = Query_index.depth idx0 in
      let step (current, history) op =
        let idx = apply current op in
        let inst = Query_index.instance idx in
        let depth_slack = depth - 1 - Instance.max_k inst in
        let fresh = Query_index.build ~depth_slack inst in
        if prefixes idx <> prefixes fresh then
          QCheck.Test.fail_report "maintained prefixes differ from a fresh build";
        if Query_index.n_groups idx <> Query_index.n_groups fresh then
          QCheck.Test.fail_report "group count differs from a fresh build";
        List.iter
          (fun (earlier, seen) ->
            if observe earlier <> seen then
              QCheck.Test.fail_report "an update changed an earlier index")
          history;
        (idx, (idx, observe idx) :: history)
      in
      ignore (List.fold_left step (idx0, [ (idx0, observe idx0) ]) ops);
      true)

let suite =
  [
    Alcotest.test_case "monomial utility" `Quick test_monomial_utility;
    Alcotest.test_case "invert strategy round trip" `Quick test_invert_strategy_roundtrip;
    Alcotest.test_case "no real root" `Quick test_invert_no_real_root;
    Alcotest.test_case "odd root of negative" `Quick test_invert_odd_root_negative;
    Alcotest.test_case "generic function (Sec 5.3)" `Quick test_generic_function;
    Alcotest.test_case "generic end-to-end" `Quick test_generic_end_to_end;
    Alcotest.test_case "add query" `Quick test_add_query;
    Alcotest.test_case "add query kNN hint" `Quick test_add_query_hint_hits_for_duplicate;
    Alcotest.test_case "add query k guard" `Quick test_add_query_k_guard;
    Alcotest.test_case "remove query" `Quick test_remove_query;
    Alcotest.test_case "add dominant object" `Quick test_add_object;
    Alcotest.test_case "add dominated object" `Quick test_add_object_mediocre;
    Alcotest.test_case "remove rival object" `Quick test_remove_object;
    Alcotest.test_case "remove uninvolved object" `Quick test_remove_uninvolved_object;
    Alcotest.test_case "mixed update sequence" `Quick test_update_sequence;
    Alcotest.test_case "rivals sorted and complete" `Quick
      test_rivals_sorted_and_complete;
    QCheck_alcotest.to_alcotest prop_trace_matches_build;
  ]
