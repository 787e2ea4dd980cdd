(* Tests for the onion-layer top-k index. *)

let rng () = Workload.Rng.make 404

let random_data n d =
  Workload.Datagen.generate (rng ()) Workload.Datagen.Independent ~n ~d

(* --- Onion --- *)

let test_onion_2d_is_hull_based () =
  let t = Topk.Onion.build (random_data 100 2) in
  Alcotest.(check bool)
    "2-D uses hulls" true
    (Topk.Onion.kind t = Topk.Onion.Convex_hull_2d)

let test_onion_highd_fallback () =
  let t = Topk.Onion.build (random_data 50 4) in
  Alcotest.(check bool)
    "4-D falls back" true
    (Topk.Onion.kind t = Topk.Onion.Dominance_fallback)

let test_onion_topk_matches_eval_2d () =
  let data = random_data 300 2 in
  let t = Topk.Onion.build data in
  let r = rng () in
  for _ = 1 to 25 do
    (* Hull layers admit arbitrary-sign weights. *)
    let w = Array.init 2 (fun _ -> Workload.Rng.uniform r -. 0.5) in
    let k = 1 + Workload.Rng.int r 10 in
    Alcotest.(check (list int))
      "onion = scan"
      (Topk.Eval.top_k data ~weights:w ~k)
      (Topk.Onion.top_k t ~data ~weights:w ~k)
  done

let test_onion_topk_matches_eval_4d () =
  let data = random_data 200 4 in
  let t = Topk.Onion.build data in
  let r = rng () in
  for _ = 1 to 20 do
    let w = Array.init 4 (fun _ -> Workload.Rng.uniform r) in
    let k = 1 + Workload.Rng.int r 8 in
    Alcotest.(check (list int))
      "fallback onion = scan"
      (Topk.Eval.top_k data ~weights:w ~k)
      (Topk.Onion.top_k t ~data ~weights:w ~k)
  done

let test_onion_layers_partition () =
  let data = random_data 150 2 in
  let t = Topk.Onion.build data in
  let seen = Array.make 150 0 in
  Array.iter
    (fun layer -> Array.iter (fun id -> seen.(id) <- seen.(id) + 1) layer)
    (Topk.Onion.layers t);
  Array.iteri
    (fun id c -> Alcotest.(check int) (Printf.sprintf "id %d" id) 1 c)
    seen

let test_onion_outer_layer_optimal () =
  (* The best object for any linear function is on layer 0. *)
  let data = random_data 120 2 in
  let t = Topk.Onion.build data in
  let r = rng () in
  for _ = 1 to 20 do
    let w = Array.init 2 (fun _ -> Workload.Rng.uniform r -. 0.5) in
    match Topk.Eval.top_k data ~weights:w ~k:1 with
    | [ best ] ->
        Alcotest.(check int) "top-1 on outer layer" 0 (Topk.Onion.layer_of t best)
    | _ -> Alcotest.fail "no top-1"
  done

let suite =
  [
    Alcotest.test_case "onion 2d kind" `Quick test_onion_2d_is_hull_based;
    Alcotest.test_case "onion 4d fallback" `Quick test_onion_highd_fallback;
    Alcotest.test_case "onion top-k exact (2d)" `Quick test_onion_topk_matches_eval_2d;
    Alcotest.test_case "onion top-k exact (4d)" `Quick test_onion_topk_matches_eval_4d;
    Alcotest.test_case "onion layers partition" `Quick test_onion_layers_partition;
    Alcotest.test_case "outer layer optimal" `Quick test_onion_outer_layer_optimal;
  ]
