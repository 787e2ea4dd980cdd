(* Domain-pool speedup table: Query_index build and end-to-end
   Min-Cost search at domains = 1/2/4/8 on the scaled Table-2
   workload. domains=1 is the sequential bypass (no domains spawned),
   so its column is the exact pre-parallel-layer behaviour; the other
   columns must return byte-identical strategies (checked here, and
   property-tested in test/test_parallel.ml).

   Results also land in BENCH_parallel.json so future changes have a
   perf trajectory to regress against.

   (This module is not named bench/parallel.ml: that would shadow the
   lib/parallel library module `Parallel` across the whole bench
   executable and make the pool API unreachable.) *)

let domain_counts = [ 1; 2; 4; 8 ]

let make_workload () =
  let cfg = Harness.defaults in
  let n = cfg.Workload.Config.n_objects in
  let m = cfg.Workload.Config.n_queries in
  let d = cfg.Workload.Config.dimension in
  let rng = Harness.rng 4242 in
  let data = Workload.Datagen.generate rng Workload.Datagen.Independent ~n ~d in
  let queries =
    Workload.Querygen.linear rng Workload.Querygen.Uniform ~k_range:(1, 50) ~m
      ~d ()
  in
  Iq.Instance.create ~data ~queries ()

(* A few deterministic search targets; per-IQ times are summed so one
   row = one end-to-end "answer these IQs" session. *)
let n_targets = 3
let candidate_cap = Some 24

let search_session engine ~tau =
  let inst = Iq.Engine.instance engine in
  let d = Iq.Instance.dim inst in
  let cost = Iq.Cost.euclidean d in
  List.init n_targets (fun target ->
      match Iq.Engine.min_cost ?candidate_cap engine ~cost ~target ~tau with
      | Ok o -> Some o
      | Error Iq.Engine.Error.Infeasible -> None
      | Error e -> failwith (Iq.Engine.Error.to_string e))

let strategies_equal a b =
  List.for_all2
    (fun (o1 : Iq.Min_cost.outcome option) o2 ->
      match (o1, o2) with
      | None, None -> true
      | Some o1, Some o2 ->
          o1.Iq.Min_cost.strategy = o2.Iq.Min_cost.strategy
          && o1.Iq.Min_cost.total_cost = o2.Iq.Min_cost.total_cost
          && o1.Iq.Min_cost.hits_after = o2.Iq.Min_cost.hits_after
      | _ -> false)
    a b

(* One timed session on a fresh [dc]-domain pool: index build plus
   the search session, with the pool shut down afterwards. domains=1
   creates the sequential-bypass pool: no domains are spawned and
   every task runs inline. *)
let measure inst ~tau dc =
  let pool = Parallel.create ~domains:dc () in
  Fun.protect
    ~finally:(fun () -> Parallel.shutdown pool)
    (fun () ->
      let engine, build_s =
        Harness.time (fun () ->
            match Iq.Engine.create ~pool inst with
            | Ok e -> e
            | Error e -> failwith (Iq.Engine.Error.to_string e))
      in
      let outcomes, search_s =
        Harness.time (fun () -> search_session engine ~tau)
      in
      (build_s, outcomes, search_s))

(* Rounds of the oversubscription gate. Each round times domains=1 and
   then domains=2 back to back, so a slow spell of a shared host lands
   on both sides of the comparison instead of on one lone sample. *)
let gate_rounds = 5

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let run () =
  Harness.header
    "Parallel: Domain-pool speedups (index build & Min-Cost search)";
  Printf.printf
    "host cores: %d recommended domains; IQ_DOMAINS default here: %d\n"
    (Domain.recommended_domain_count ())
    (Workload.Config.domains ());
  let inst = make_workload () in
  let tau = Harness.defaults.Workload.Config.tau in
  Harness.row
    [
      "  domains"; "   build(s)"; " build-spd"; "  search(s)"; "search-spd";
      " identical";
    ];
  let baseline = ref None (* (build_s, search_s, outcomes) at domains=1 *) in
  let rows =
    List.map
      (fun dc ->
        let build_s, outcomes, search_s = measure inst ~tau dc in
        let build_ref, search_ref, outcomes_ref =
          match !baseline with
          | None ->
              baseline := Some (build_s, search_s, outcomes);
              (build_s, search_s, outcomes)
          | Some b -> b
        in
        let identical = strategies_equal outcomes outcomes_ref in
        Harness.row
          [
            Printf.sprintf "%9d" dc;
            Printf.sprintf "%11.3f" build_s;
            Printf.sprintf "%9.2fx" (build_ref /. build_s);
            Printf.sprintf "%11.3f" search_s;
            Printf.sprintf "%9.2fx" (search_ref /. search_s);
            Printf.sprintf "%10s" (if identical then "yes" else "NO");
          ];
        (dc, build_s, search_s, identical))
      domain_counts
  in
  Harness.note
    "domains=1 is the sequential bypass; speedups need as many physical \
     cores (this host recommends %d)"
    (Domain.recommended_domain_count ());
  if List.exists (fun (_, _, _, ok) -> not ok) rows then
    failwith "parallel bench: outcomes diverged across domain counts";
  (* Oversubscription gate: a 2-domain pool must never pay for a worker
     the host cannot run — the pool caps active participants at the
     core count, so on a 1-CPU host domains=2 stays within noise of
     the sequential bypass (and on a real 2-core host it should be
     faster, which also passes). Noise model: the medians of
     [gate_rounds] interleaved build+search samples per side, so one
     descheduled sample cannot fail (or pass) the gate on its own; the
     1.10x + 50 ms bound absorbs the rest. *)
  let sample dc =
    let build_s, outcomes, search_s = measure inst ~tau dc in
    (match !baseline with
    | Some (_, _, outcomes_ref) when not (strategies_equal outcomes outcomes_ref)
      ->
        failwith "parallel bench: outcomes diverged across domain counts"
    | Some _ | None -> ());
    build_s +. search_s
  in
  let rounds =
    List.init gate_rounds (fun _ ->
        let t1 = sample 1 in
        (t1, sample 2))
  in
  let t1 = median (List.map fst rounds) and t2 = median (List.map snd rounds) in
  Printf.printf
    "oversubscription gate: median build+search over %d interleaved \
     rounds: domains=1 %.3fs, domains=2 %.3fs\n"
    gate_rounds t1 t2;
  if t2 > (t1 *. 1.10) +. 0.05 then
    failwith
      (Printf.sprintf
         "parallel bench: domains=2 (median %.3fs) slower than domains=1 \
          (median %.3fs) beyond noise — oversubscription cap regressed"
         t2 t1);
  Harness.write_json ~name:"parallel"
    (Harness.Obj
       [
         ("bench", Harness.String "parallel");
         ("scale", Harness.Float Harness.scale);
         ("n_objects", Harness.Int (Iq.Instance.n_objects inst));
         ("n_queries", Harness.Int (Iq.Instance.n_queries inst));
         ("tau", Harness.Int tau);
         ("n_targets", Harness.Int n_targets);
         ("gate_rounds", Harness.Int gate_rounds);
         ("gate_median_seconds_domains1", Harness.Float t1);
         ("gate_median_seconds_domains2", Harness.Float t2);
         ( "recommended_domains",
           Harness.Int (Domain.recommended_domain_count ()) );
         ( "rows",
           Harness.List
             (List.map
                (fun (dc, build_s, search_s, identical) ->
                  Harness.Obj
                    [
                      ("domains", Harness.Int dc);
                      ("build_seconds", Harness.Float build_s);
                      ("search_seconds", Harness.Float search_s);
                      ("identical_outcomes", Harness.Bool identical);
                    ])
                rows) );
       ])
