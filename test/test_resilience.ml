(* The resilience layer and its integration with Iq.Engine: budget
   trip semantics, deterministic fault schedules, injected faults
   surfacing as typed errors that leave no cached state behind, the
   anytime (degraded-partial) contract, and the promise that no raw
   exception crosses the serving boundary no matter what the fault
   schedule does. *)

open Iq
module Budget = Resilience.Budget
module Fault = Resilience.Fault

let pool1 = Parallel.create ~domains:1 ()

let make_instance ?(seed = 77) ?(n = 80) ?(m = 40) ?(d = 3) () =
  let rng = Workload.Rng.make seed in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 5) ~m
      ~d ()
  in
  Instance.create ~data ~queries ()

let ok = function
  | Ok v -> v
  | Error e ->
      Alcotest.failf "unexpected engine error: %s" (Engine.Error.to_string e)

(* All chaos engines run on the sequential pool: fault-site consult
   counts are then independent of scheduling, so the same seed gives
   the same injections and the same outcomes, run after run. *)
let engine ?fault ?(pool = pool1) inst = ok (Engine.create ?fault ~pool inst)

(* --- Budget ----------------------------------------------------------- *)

let test_budget_unlimited () =
  Alcotest.(check bool) "live" true (Budget.live Budget.unlimited);
  Budget.step Budget.unlimited 1_000_000;
  Alcotest.(check bool) "still live" true (Budget.live Budget.unlimited);
  Alcotest.(check bool)
    "never tripped" true
    (Budget.tripped Budget.unlimited = None)

let test_budget_steps () =
  let b = Budget.create ~max_steps:3 () in
  Budget.step b 2;
  Alcotest.(check bool) "under limit" true (Budget.live b);
  Budget.step b 1;
  (match Budget.check b with
  | Some (Budget.Steps { used = 3; limit = 3 }) -> ()
  | _ -> Alcotest.fail "expected Steps {used=3; limit=3}");
  (* Sticky: more steps don't change the recorded trip. *)
  Budget.step b 5;
  (match Budget.tripped b with
  | Some (Budget.Steps { used = 3; _ }) -> ()
  | _ -> Alcotest.fail "trip must be sticky");
  Alcotest.(check int) "steps_used keeps counting" 8 (Budget.steps_used b)

let test_budget_deadline_pre_expired () =
  let b = Budget.create ~deadline_ms:(-1.) () in
  (match Budget.check b with
  | Some (Budget.Deadline { elapsed_ms }) ->
      Alcotest.(check bool) "elapsed >= 0" true (elapsed_ms >= 0.)
  | _ -> Alcotest.fail "pre-expired deadline must trip at first check");
  Alcotest.(check bool) "live is false" false (Budget.live b)

let test_budget_cancel_wins () =
  let tok = Budget.token () in
  Alcotest.(check bool) "not cancelled" false (Budget.is_cancelled tok);
  (* Both the token and the step limit are tripped; the documented
     check order reports Cancelled. *)
  let b = Budget.create ~max_steps:0 ~token:tok () in
  Budget.cancel tok;
  Budget.cancel tok;
  Alcotest.(check bool) "cancelled" true (Budget.is_cancelled tok);
  match Budget.check b with
  | Some Budget.Cancelled -> ()
  | _ -> Alcotest.fail "cancellation must win the check order"

let test_now_ms_monotone () =
  let prev = ref (Resilience.now_ms ()) in
  for _ = 1 to 1000 do
    let t = Resilience.now_ms () in
    if t < !prev then Alcotest.fail "now_ms went backwards";
    prev := t
  done

(* --- Fault schedules -------------------------------------------------- *)

let test_spec_parsing () =
  let f =
    match
      Fault.of_spec
        "seed=7;backend.ese.prepare:exn@0.5;index.*:latency(2)@0.25;pool.task:exn@0.1"
    with
    | Ok f -> f
    | Error msg -> Alcotest.failf "spec should parse: %s" msg
  in
  Alcotest.(check int) "seed" 7 (Fault.seed f);
  List.iter
    (fun bad ->
      match Fault.of_spec bad with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" bad
      | Error _ -> ())
    [
      "";
      "no-colon-here";
      "site:wat";
      "site:exn@1.5";
      "site:transient";
      "site:exn@nope";
      "seed=xyz;site:exn";
      "site:latency(-3)";
      ":exn";
    ]

let test_schedule_deterministic () =
  let spec = "seed=42;backend.ese.prepare:exn@0.5;index.*:exn@0.3" in
  let f1 = Result.get_ok (Fault.of_spec spec) in
  let f2 = Result.get_ok (Fault.of_spec spec) in
  let sites = [ "backend.ese.prepare"; "index.build"; "index.rebuild" ] in
  List.iter
    (fun site ->
      for n = 0 to 199 do
        if Fault.would_inject f1 ~site ~n <> Fault.would_inject f2 ~site ~n
        then Alcotest.failf "schedule differs at %s #%d" site n
      done)
    sites;
  (* p=0.5 must neither always nor never inject over 200 consults. *)
  let hits =
    List.init 200 (fun n ->
        Fault.would_inject f1 ~site:"backend.ese.prepare" ~n)
    |> List.filter Fun.id |> List.length
  in
  Alcotest.(check bool) "p=0.5 mixes" true (hits > 0 && hits < 200);
  (* Unmatched site never injects; p=1 always does. *)
  Alcotest.(check bool)
    "unmatched site" false
    (Fault.would_inject f1 ~site:"backend.rta.eval" ~n:0);
  let always = Fault.make ~seed:1 [ ("s", Fault.Exn, 1.) ] in
  for n = 0 to 99 do
    if not (Fault.would_inject always ~site:"s" ~n) then
      Alcotest.fail "p=1 must always inject"
  done

let test_point_semantics () =
  Fault.point None ~site:"anything";
  let f =
    Fault.make ~seed:3
      [
        ("a.exn", Fault.Exn, 1.);
        ("a.torn", Fault.Torn, 1.);
        ("a.latency", Fault.Latency 0., 1.);
      ]
  in
  (match Fault.point (Some f) ~site:"a.exn" with
  | () -> Alcotest.fail "exn site must raise"
  | exception Fault.Injected { site = "a.exn" } -> ()
  | exception _ -> Alcotest.fail "wrong exception");
  (match Fault.point (Some f) ~site:"a.torn" with
  | () -> Alcotest.fail "torn site must raise"
  | exception Fault.Torn_write { site = "a.torn"; frac } ->
      Alcotest.(check bool) "frac in [0,1)" true (frac >= 0. && frac < 1.)
  | exception _ -> Alcotest.fail "wrong exception");
  Fault.point (Some f) ~site:"a.latency";
  Fault.point (Some f) ~site:"unmatched";
  Alcotest.(check int) "consults count matched sites" 3 (Fault.consults f);
  Alcotest.(check int) "injections" 3 (Fault.injections f)

(* --- Engine under injected faults ------------------------------------ *)

let same_mincost (a : Min_cost.outcome) (b : Min_cost.outcome) =
  a.Min_cost.strategy = b.Min_cost.strategy
  && a.Min_cost.hits_after = b.Min_cost.hits_after
  && a.Min_cost.total_cost = b.Min_cost.total_cost

let cached e ~target =
  let snap = Engine.snapshot e in
  Snapshot.locked snap (fun () -> Snapshot.find_entry snap target)

let expect_internal what = function
  | Error (Engine.Error.Internal _) -> ()
  | Ok _ -> Alcotest.failf "%s: answered through a failed prepare" what
  | Error err ->
      Alcotest.failf "%s: wrong error: %s" what (Engine.Error.to_string err)

(* A seed whose prepare schedule fires on the first three consults and
   on none of the next five — found by search so it stays correct if
   the hash function ever changes. *)
let seed_first_three site =
  let rec go seed =
    if seed > 100_000 then Alcotest.fail "no first-three seed found";
    let f = Fault.make ~seed [ (site, Fault.Exn, 0.5) ] in
    let fires n = Fault.would_inject f ~site ~n in
    if List.for_all fires [ 0; 1; 2 ]
       && not (List.exists fires [ 3; 4; 5; 6; 7 ])
    then f
    else go (seed + 1)
  in
  go 0

let test_prepare_fault_is_internal () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let target = 0 and tau = 3 in
  let site = "backend.ese.prepare" in
  (* Every prepare fails: each entry point reports the injection as
     [Internal] and caches nothing, so no later call can answer from a
     half-built evaluator. *)
  let always = Fault.make ~seed:1 [ (site, Fault.Exn, 1.) ] in
  let e = engine ~fault:always inst in
  expect_internal "hits" (Engine.hits e ~target);
  Alcotest.(check bool) "hits cached nothing" true (cached e ~target = None);
  expect_internal "min_cost" (Engine.min_cost e ~cost ~target ~tau);
  Alcotest.(check bool) "min_cost cached nothing" true (cached e ~target = None);
  expect_internal "prepare" (Engine.prepare e ~target);
  Alcotest.(check bool) "prepare cached nothing" true (cached e ~target = None);
  Alcotest.(check int) "three injections" 3
    (Engine.stats e).Engine.faults_injected;
  (* Once the schedule stops firing, the same engine answers exactly
     as a clean one: the failed prepares left nothing to poison it. *)
  let clean = engine inst in
  let f = seed_first_three site in
  let e = engine ~fault:f inst in
  expect_internal "hits" (Engine.hits e ~target);
  expect_internal "min_cost" (Engine.min_cost e ~cost ~target ~tau);
  expect_internal "prepare" (Engine.prepare e ~target);
  Alcotest.(check int) "hits after recovery"
    (ok (Engine.hits clean ~target))
    (ok (Engine.hits e ~target));
  Alcotest.(check bool) "min_cost after recovery" true
    (same_mincost
       (ok (Engine.min_cost clean ~cost ~target ~tau))
       (ok (Engine.min_cost e ~cost ~target ~tau)));
  let s = Geom.Vec.make (Instance.dim inst) 0.05 in
  Alcotest.(check int) "prepared handle after recovery"
    (ok (Engine.evaluate clean (ok (Engine.prepare clean ~target)) ~s))
    (ok (Engine.evaluate e (ok (Engine.prepare e ~target)) ~s));
  Alcotest.(check int) "one successful prepare consult" 4 (Fault.consults f);
  Alcotest.(check int) "no injection after the third" 3 (Fault.injections f)

(* --- Deadlines, cancellation, anytime partials ----------------------- *)

let test_deadline_error () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let budget = Budget.create ~max_steps:1 () in
  (match
     Engine.min_cost ~budget e ~cost ~target:0 ~tau:(Instance.n_queries inst)
   with
  | Error (Engine.Error.Deadline_exceeded { elapsed_ms; partial = Some p }) ->
      Alcotest.(check bool) "elapsed >= 0" true (elapsed_ms >= 0.);
      Alcotest.(check bool) "flag" true (p.Engine.p_flag = `Degraded);
      (* The anytime contract: the partial carries whole iterations
         only, and its hit count is exact — the ground-truth rescan of
         the partial strategy agrees. *)
      let s = List.assoc 0 p.Engine.p_strategies in
      Alcotest.(check int) "partial hits are exact"
        ((Evaluator.naive inst ~target:0).Evaluator.hit_count s)
        p.Engine.p_hits
  | Ok _ -> Alcotest.fail "a 1-step budget cannot finish"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e));
  Alcotest.(check int) "trip counted" 1 (Engine.stats e).Engine.deadline_trips

let test_cancel_error () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let tok = Budget.token () in
  Budget.cancel tok;
  let budget = Budget.create ~token:tok () in
  (match Engine.max_hit ~budget e ~cost ~target:0 ~beta:0.5 with
  | Error (Engine.Error.Cancelled { partial = Some _ }) -> ()
  | Ok _ -> Alcotest.fail "cancelled search cannot complete"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e));
  Alcotest.(check int) "cancellation counted" 1
    (Engine.stats e).Engine.cancellations

let test_deadline_env_knob () =
  (* IQ_DEADLINE_MS applies when no explicit budget/deadline is given;
     a 0ms deadline trips the very first check. *)
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  Unix.putenv "IQ_DEADLINE_MS" "0.000001";
  let r =
    Engine.min_cost e ~cost ~target:0 ~tau:(Instance.n_queries inst)
  in
  Unix.putenv "IQ_DEADLINE_MS" "";
  match r with
  | Error (Engine.Error.Deadline_exceeded _) -> ()
  | Ok _ -> Alcotest.fail "a 1ns deadline cannot finish"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e)

let test_multi_degrades () =
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let e = engine inst in
  let costs = [ (0, cost); (1, cost) ] in
  let budget = Budget.create ~max_steps:1 () in
  match Engine.min_cost_multi ~budget e ~costs ~tau:(Instance.n_queries inst) with
  | Error (Engine.Error.Deadline_exceeded { partial = Some p; _ }) ->
      Alcotest.(check int) "one strategy per target" 2
        (List.length p.Engine.p_strategies)
  | Ok _ -> Alcotest.fail "1-step multi search cannot finish"
  | Error e -> Alcotest.failf "wrong error: %s" (Engine.Error.to_string e)

(* --- Error taxonomy under interleaved mutation ------------------------ *)

let test_mutation_taxonomy_matrix () =
  let check_kind name mutate =
    let inst = make_instance ~seed:123 () in
    let e = engine inst in
    let target = 0 in
    let d = Instance.dim inst in
    ignore (ok (Engine.evaluator e ~target));
    let handle = ok (Engine.prepare e ~target) in
    let gen0 = Engine.generation e in
    let repreps0 = (Engine.stats e).Engine.repreparations in
    mutate e;
    Alcotest.(check int)
      (name ^ ": generation bumped")
      (gen0 + 1) (Engine.generation e);
    (* Cached evaluator: transparent re-preparation, typed Ok. *)
    ignore (ok (Engine.evaluator e ~target));
    Alcotest.(check int)
      (name ^ ": repreparation recorded")
      (repreps0 + 1)
      (Engine.stats e).Engine.repreparations;
    (* Prepared handle: exact Stale_state. *)
    (match Engine.evaluate e handle ~s:(Geom.Vec.zero d) with
    | Error (Engine.Error.Stale_state { held; current })
      when held = gen0 && current = gen0 + 1 ->
        ()
    | Error err ->
        Alcotest.failf "%s: wrong stale error: %s" name
          (Engine.Error.to_string err)
    | Ok _ -> Alcotest.failf "%s: stale handle must not answer" name);
    (* Deadline-bounded search right after the mutation: the fresh
       entry serves it and the trip is the typed anytime error, not a
       staleness artifact. *)
    (match
       Engine.min_cost
         ~budget:(Budget.create ~deadline_ms:(-1.) ())
         e
         ~cost:(Cost.euclidean d) ~target ~tau:3
     with
    | Error (Engine.Error.Deadline_exceeded { partial = Some _; _ }) -> ()
    | Error err ->
        Alcotest.failf "%s: wrong deadline error: %s" name
          (Engine.Error.to_string err)
    | Ok _ -> Alcotest.failf "%s: pre-expired deadline finished" name);
    (* Recovery: refresh yields a servable current-generation handle. *)
    let fresh = ok (Engine.refresh e handle) in
    ignore (ok (Engine.evaluate e fresh ~s:(Geom.Vec.zero d)))
  in
  let q d =
    Topk.Query.make ~id:999 ~k:1 (Array.init d (fun i -> 1. /. float_of_int (i + 1)))
  in
  check_kind "add_query" (fun e ->
      ignore (ok (Engine.add_query e (q (Instance.dim (Engine.instance e))))));
  check_kind "remove_query" (fun e -> ok (Engine.remove_query e 1));
  check_kind "add_object" (fun e ->
      ignore
        (ok
           (Engine.add_object e
              (Array.make (Instance.dim_raw (Engine.instance e)) 0.5))));
  check_kind "update_object" (fun e ->
      ok
        (Engine.update_object e 0
           (Array.make (Instance.dim_raw (Engine.instance e)) 0.25)));
  check_kind "remove_object" (fun e ->
      ok (Engine.remove_object e (Instance.n_objects (Engine.instance e) - 1)))

(* --- the degraded-hits oracle ---------------------------------------- *)

let prop_degraded_hits_exact =
  QCheck.Test.make
    ~name:"degraded partial's hits never exceed (and equal) true H(p+s)"
    ~count:30
    QCheck.(
      make
        ~print:(fun (seed, steps) -> Printf.sprintf "seed=%d steps=%d" seed steps)
        Gen.(
          let* seed = int_range 1 5_000 in
          let* steps = int_range 1 60 in
          return (seed, steps)))
    (fun (seed, steps) ->
      let inst = make_instance ~seed ~n:60 ~m:30 () in
      let d = Instance.dim inst in
      let cost = Cost.euclidean d in
      let target = 0 in
      let e = engine inst in
      let budget = Budget.create ~max_steps:steps () in
      match
        Engine.min_cost ~budget e ~cost ~target ~tau:(Instance.n_queries inst)
      with
      | Ok _ | Error Engine.Error.Infeasible -> true
      | Error (Engine.Error.Deadline_exceeded { partial = Some p; _ }) -> (
          match p.Engine.p_strategies with
          | [ (t, s) ] when t = target ->
              let truth = (Evaluator.naive inst ~target).Evaluator.hit_count s in
              p.Engine.p_hits <= truth && p.Engine.p_hits = truth
          | _ -> false)
      | Error _ -> false)

(* --- nothing raw crosses the boundary --------------------------------- *)

let test_chaos_boundary () =
  (* Aggressive schedule over every engine site; every entry point must
     return a result — never raise. *)
  let inst = make_instance () in
  let cost = Cost.euclidean (Instance.dim inst) in
  let no_raise name g =
    match g () with
    | (_ : (unit, Engine.Error.t) result) -> ()
    | exception ex ->
        Alcotest.failf "%s leaked exception %s" name (Printexc.to_string ex)
  in
  let build = Fault.make ~seed:5 [ ("index.build", Fault.Exn, 1.) ] in
  no_raise "create" (fun () ->
      match Engine.create ~fault:build ~pool:pool1 inst with
      | Error (Engine.Error.Internal _) -> Ok ()
      | Ok _ -> Alcotest.fail "create answered through a failed index build"
      | Error err -> Error err);
  let f =
    Result.get_ok
      (Fault.of_spec
         "seed=5;backend.*:exn@0.4;search.iteration:exn@0.2;pool.task:exn@0.2")
  in
  let e = engine ~fault:f inst in
  for target = 0 to 9 do
    no_raise "evaluator" (fun () ->
        Result.map ignore (Engine.evaluator e ~target));
    no_raise "hits" (fun () -> Result.map ignore (Engine.hits e ~target));
    no_raise "member" (fun () ->
        Result.map ignore (Engine.member e ~target ~q:0));
    no_raise "min_cost" (fun () ->
        Result.map ignore (Engine.min_cost e ~cost ~target ~tau:3));
    no_raise "max_hit" (fun () ->
        Result.map ignore (Engine.max_hit e ~cost ~target ~beta:0.2));
    no_raise "prepare+evaluate" (fun () ->
        match Engine.prepare e ~target with
        | Error err -> Error err
        | Ok h ->
            Result.map ignore
              (Engine.evaluate e h ~s:(Geom.Vec.zero (Instance.dim inst))))
  done;
  no_raise "min_cost_multi" (fun () ->
      Result.map ignore
        (Engine.min_cost_multi e ~costs:[ (0, cost); (1, cost) ] ~tau:3));
  Alcotest.(check bool) "the schedule fired" true (Fault.injections f > 0)

let test_chaos_deterministic () =
  (* Same spec, same driver, sequential pool: two runs must agree on
     every outcome and on the number of injected faults. *)
  let spec = "seed=11;backend.ese.prepare:exn@0.5;search.iteration:exn@0.1" in
  let run () =
    let f = Result.get_ok (Fault.of_spec spec) in
    let inst = make_instance () in
    let cost = Cost.euclidean (Instance.dim inst) in
    let e = engine ~fault:f inst in
    let outcomes =
      List.init 6 (fun target ->
          match Engine.min_cost e ~cost ~target ~tau:3 with
          | Ok o -> Printf.sprintf "ok:%d:%.9f" o.Min_cost.hits_after o.Min_cost.total_cost
          | Error err -> "err:" ^ Engine.Error.to_string err)
    in
    (outcomes, (Engine.stats e).Engine.faults_injected)
  in
  let ((outcomes, injected) as a) = run () in
  let b = run () in
  Alcotest.(check bool) "identical chaos runs" true (a = b);
  Alcotest.(check bool) "some searches failed" true
    (injected > 0 && List.exists (String.starts_with ~prefix:"err:") outcomes);
  Alcotest.(check bool) "some searches answered" true
    (List.exists (String.starts_with ~prefix:"ok:") outcomes)

let suite =
  [
    Alcotest.test_case "budget: unlimited never trips" `Quick
      test_budget_unlimited;
    Alcotest.test_case "budget: step limit trips sticky" `Quick
      test_budget_steps;
    Alcotest.test_case "budget: pre-expired deadline" `Quick
      test_budget_deadline_pre_expired;
    Alcotest.test_case "budget: cancellation wins check order" `Quick
      test_budget_cancel_wins;
    Alcotest.test_case "now_ms monotone" `Quick test_now_ms_monotone;
    Alcotest.test_case "fault: spec parsing" `Quick test_spec_parsing;
    Alcotest.test_case "fault: schedule deterministic" `Quick
      test_schedule_deterministic;
    Alcotest.test_case "fault: point semantics" `Quick test_point_semantics;
    Alcotest.test_case "engine: prepare fault is Internal, caches nothing"
      `Quick test_prepare_fault_is_internal;
    Alcotest.test_case "engine: deadline -> typed partial" `Quick
      test_deadline_error;
    Alcotest.test_case "engine: cancellation -> typed partial" `Quick
      test_cancel_error;
    Alcotest.test_case "engine: IQ_DEADLINE_MS knob" `Quick
      test_deadline_env_knob;
    Alcotest.test_case "engine: multi-target degrades" `Quick
      test_multi_degrades;
    Alcotest.test_case "mutation taxonomy matrix" `Quick
      test_mutation_taxonomy_matrix;
    QCheck_alcotest.to_alcotest prop_degraded_hits_exact;
    Alcotest.test_case "chaos: no raw exception at boundary" `Quick
      test_chaos_boundary;
    Alcotest.test_case "chaos: same seed, same outcomes" `Quick
      test_chaos_deterministic;
  ]
