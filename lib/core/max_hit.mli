(** Max-Hit Improvement Query — Algorithm 4.

    Same greedy cost-per-hit search as Algorithm 3, but driven by a
    budget [beta]: apply best-ratio steps while they fit; once the best
    ratio no longer fits, sweep the remaining candidates cheapest-first
    and apply any that still fit, then stop. Budget accounting uses the
    per-step (incremental) costs, as the paper's pseudocode does. *)

type status = [ `Complete | `Degraded of Resilience.Budget.trip ]
(** As in {!Min_cost.status}: a degraded outcome is the anytime
    answer, exact but possibly short of what a full run would buy. *)

type outcome = {
  strategy : Strategy.t;
  total_cost : float;  (** [Cost(s)] of the accumulated strategy *)
  incremental_cost : float;  (** budget actually consumed *)
  hits_before : int;
  hits_after : int;
  iterations : int;
  evaluations : int;
  status : status;
}

val search :
  ?limits:Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?pool:Parallel.pool ->
  ?budget:Resilience.Budget.t ->
  ?fault:Resilience.Fault.t ->
  evaluator:Evaluator.t ->
  cost:Cost.t ->
  target:int ->
  beta:float ->
  unit ->
  outcome
(** Always returns: a budget that buys nothing — including [beta <= 0]
    — yields the zero strategy with nothing spent. Budget validation
    lives in {!Engine}, which reports a typed [Budget_exhausted] error
    for negative budgets instead of raising.
    [pool] parallelizes each iteration's candidate evaluations with
    order preserved and lowest-index tie-breaking, so outcomes are
    identical for any pool size.
    [budget]/[fault] behave as in {!Min_cost.search}: a tripped budget
    returns the strategy accumulated so far with
    [status = `Degraded _].
    @raise Invalid_argument when the cost arity differs from the
    instance's feature dimension (a wiring bug, not an input error). *)
