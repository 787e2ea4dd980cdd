open Geom

type status = [ `Complete | `Degraded of Resilience.Budget.trip ]

type outcome = {
  strategy : Strategy.t;
  total_cost : float;
  incremental_cost : float;
  hits_before : int;
  hits_after : int;
  iterations : int;
  evaluations : int;
  status : status;
}

let ratio (c : Candidates.t) =
  if c.Candidates.hits <= 0 then infinity
  else c.Candidates.step_cost /. float_of_int c.Candidates.hits

(* Same deterministic argmin as Min_cost: ties keep the lowest
   candidate index, and Candidates.collect preserves order under a
   Parallel pool, so parallel and sequential searches accumulate the
   same strategy. *)
let best_by score = function
  | [] -> invalid_arg "Max_hit.best_by: no candidates"
  | c :: cs ->
      List.fold_left (fun acc c -> if score c < score acc then c else acc) c cs

let search ?limits ?max_iterations ?candidate_cap ?pool ?budget ?fault
    ~(evaluator : Evaluator.t) ~(cost : Cost.t) ~target ~beta () =
  let inst = evaluator.Evaluator.instance in
  let d = Instance.dim inst in
  if cost.Cost.dim <> d then invalid_arg "Max_hit.search: cost arity";
  let budget =
    match budget with Some b -> b | None -> Resilience.Budget.unlimited
  in
  let limits =
    match limits with Some l -> l | None -> Strategy.unrestricted d
  in
  let max_iterations =
    match max_iterations with Some n -> n | None -> 256
  in
  let p0 = inst.Instance.features.(target) in
  let total_bounds = Strategy.bounds_for limits ~p:p0 in
  let s_star = ref (Strategy.zero d) in
  let spent = ref 0. in
  let hits = ref evaluator.Evaluator.base_hits in
  let iterations = ref 0 in
  let stop = ref false in
  let degraded = ref None in
  while
    Option.is_none !degraded
    && (not !stop)
    && !iterations < max_iterations
    && !spent < beta
  do
    (* Same anytime discipline as Min_cost: a budget trip discards the
       in-flight iteration whole, so the returned strategy and hit
       count only reflect fully evaluated, fully applied steps. *)
    match Resilience.Budget.check budget with
    | Some trip -> degraded := Some trip
    | None -> (
        Resilience.Fault.point fault ~site:"search.iteration";
        incr iterations;
        let current = Vec.add p0 !s_star in
        let bounds = Candidates.remaining_bounds total_bounds !s_star in
        let budget_left = beta -. !spent in
        let candidates =
          Candidates.collect ?pool ~budget ?fault ~evaluator ~cost ~bounds
            ~current ~s_star:!s_star ~cap:candidate_cap
            ~max_step_cost:budget_left ()
        in
        Log.debug (fun m ->
            m "max-hit iteration %d: %d candidates, spent %.4f of %.4f"
              !iterations (List.length candidates) !spent beta);
        match Resilience.Budget.check budget with
        | Some trip -> degraded := Some trip
        | None -> (
            match candidates with
            | [] -> stop := true
            | cs -> (
                let best = best_by ratio cs in
                if !spent +. best.Candidates.step_cost <= beta then begin
                  s_star := Vec.add !s_star best.Candidates.step;
                  spent := !spent +. best.Candidates.step_cost;
                  hits := best.Candidates.hits
                end
                else begin
                  (* Final fill: cheapest-first, apply whatever still
                     fits. *)
                  let by_cost =
                    List.sort
                      (fun (a : Candidates.t) b ->
                        Float.compare a.Candidates.step_cost
                          b.Candidates.step_cost)
                      cs
                  in
                  List.iter
                    (fun (c : Candidates.t) ->
                      if !spent +. c.Candidates.step_cost <= beta then begin
                        s_star := Vec.add !s_star c.Candidates.step;
                        spent := !spent +. c.Candidates.step_cost
                      end)
                    by_cost;
                  hits := evaluator.Evaluator.hit_count !s_star;
                  stop := true
                end)))
  done;
  {
    strategy = !s_star;
    total_cost = cost.Cost.eval !s_star;
    incremental_cost = !spent;
    hits_before = evaluator.Evaluator.base_hits;
    hits_after = !hits;
    iterations = !iterations;
    evaluations = evaluator.Evaluator.evaluations ();
    status =
      (match !degraded with
      | Some trip -> `Degraded trip
      | None -> `Complete);
  }
