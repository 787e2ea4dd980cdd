(* Tests for the benchmark's own helpers: the tail-percentile rule, the
   read classification, generator determinism and the challenger rule. *)

open Perfbench

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  Alcotest.(check (float 0.)) "median of 1..9" 5. (Stats.median (samples 9));
  Alcotest.(check (float 0.)) "p90 of 1..100" 90. (Stats.percentile 90. (samples 100));
  Alcotest.(check (float 0.)) "p100 is the max" 7. (Stats.percentile 100. (samples 7));
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.median [||]))

let test_tail_choice () =
  let check n p = Alcotest.(check (float 0.)) (Printf.sprintf "n=%d" n) p (Stats.tail_percentile n) in
  check 10 50.;
  check 39 50.;
  check 40 75.;
  check 100 90.;
  check 99 75.;
  check 149 90.;
  check 150 90.;
  check 199 90.;
  check 200 95.;
  check 1000 99.;
  check 10_000 99.9;
  (* The chosen percentile always leaves at least ten samples beyond. *)
  List.iter
    (fun n ->
      let p = Stats.tail_percentile n in
      if p > 50. then
        Alcotest.(check bool) (Printf.sprintf "n=%d p%g" n p) true (Stats.beyond p n >= 10))
    [ 20; 57; 123; 300; 1234 ]

let test_classify () =
  let w = `W and r = `R in
  let got = Stats.classify (fun op -> op = `W) [| r; w; w; r; r; w; r; r |] in
  let expect =
    Stats.[ Some Warm; None; None; Some After_write; Some Warm; None; Some After_write; Some Warm ]
  in
  Alcotest.(check bool) "classes" true (Array.to_list got = expect)

let small = { (Option.get (Gen.shape ~name:"churn" ~seconds:1)) with n = 400; m = 60; blocks = 30; reach_anchor = 6 }

let test_determinism () =
  let a = Gen.make small ~seed:7 and b = Gen.make small ~seed:7 in
  Alcotest.(check string) "same ops" (Gen.digest_ops a.ops) (Gen.digest_ops b.ops);
  Alcotest.(check bool) "same data" true (a.data = b.data);
  Alcotest.(check bool) "same hot set" true (a.hot = b.hot);
  let c = Gen.make small ~seed:8 in
  Alcotest.(check bool) "another seed differs" false
    (String.equal (Gen.digest_ops a.ops) (Gen.digest_ops c.ops))

let test_churn_shape () =
  let g = Gen.make small ~seed:3 in
  let writes = Array.to_list g.ops |> List.filter Gen.is_write |> List.length in
  (* 30 blocks: 24 single moves and 6 add/remove pairs, 4 reads each. *)
  Alcotest.(check int) "writes" 36 writes;
  Alcotest.(check int) "ops" (36 + 120) (Array.length g.ops);
  let hot = Array.to_list g.hot in
  Array.iter
    (function
      | Gen.Update { id; _ } ->
          Alcotest.(check bool) "moves touch cold objects" false (List.mem id hot)
      | Gen.Read { target; _ } ->
          Alcotest.(check bool) "reads target hot objects" true (List.mem target hot)
      | Gen.Add_query _ | Gen.Remove_query _ -> ())
    g.ops;
  (* Each read class holds as many Min-Cost as Max-Hit requests, give or
     take one. *)
  let classes = Stats.classify Gen.is_write g.ops in
  List.iter
    (fun cls ->
      let balance = ref 0 in
      Array.iteri
        (fun i op ->
          match (op, classes.(i)) with
          | Gen.Read { kind = Gen.Min_cost; _ }, Some c when c = cls -> incr balance
          | Gen.Read { kind = Gen.Max_hit; _ }, Some c when c = cls -> decr balance
          | _ -> ())
        g.ops;
      Alcotest.(check bool) "kinds balanced" true (abs !balance <= 1))
    Stats.[ Warm; After_write ]

(* Brute force: rank every object for every query. *)
let test_challengers () =
  let g = Gen.make small ~seed:5 in
  let n = Array.length g.data in
  let ranks =
    List.map
      (fun (q : Topk.Query.t) ->
        let score id = Array.fold_left ( +. ) 0. (Array.map2 ( *. ) q.weights g.data.(id)) in
        let sorted = List.sort (fun a b -> compare (score a, a) (score b, b)) (List.init n Fun.id) in
        let rank = Array.make n 0 in
        List.iteri (fun r id -> rank.(id) <- r) sorted;
        (q.k, rank))
      g.queries
  in
  let count p id = List.length (List.filter (fun (k, rank) -> p k rank.(id)) ranks) in
  let hits = count (fun k r -> r < k) and near = count (fun k r -> r >= k && r < k + Gen.margin) in
  let reach = count (fun k r -> r >= k && r < k + Gen.reach_depth) in
  let anchor = g.shape.reach_anchor in
  let challengers = List.filter (fun id -> hits id = 0 && near id > 0) (List.init n Fun.id) in
  let by_distance =
    List.sort
      (fun a b -> compare (abs (reach a - anchor), a) (abs (reach b - anchor), b))
      challengers
  in
  let expect = List.sort compare (List.filteri (fun i _ -> i < Gen.hot_size) by_distance) in
  Alcotest.(check (list int)) "challenger rule" expect (Array.to_list g.hot);
  Alcotest.(check bool) "a full hot set" true (List.length challengers > Gen.hot_size);
  Alcotest.(check int) "hot set size" Gen.hot_size (Array.length g.hot)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "tail choice" `Quick test_tail_choice;
          Alcotest.test_case "read-after-write classification" `Quick test_classify;
        ] );
      ( "gen",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "churn shape" `Quick test_churn_shape;
          Alcotest.test_case "challenger rule" `Quick test_challengers;
        ] );
    ]
