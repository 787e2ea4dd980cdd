(** Min-Cost Improvement Query — Algorithm 3.

    Greedy ratio search: each iteration computes, for every query the
    target does not yet hit, the cheapest single step that would hit it
    (Equations 13–14 via the cost's min-step oracle), evaluates each
    candidate's total hit count with the plugged evaluator, applies the
    candidate with the best cost-per-hit ratio, and stops once at least
    [tau] queries are hit — switching to the cheapest
    [tau]-reaching candidate when the ratio choice would overshoot. *)

type status = [ `Complete | `Degraded of Resilience.Budget.trip ]
(** [`Degraded trip]: the budget tripped mid-search and the outcome is
    the anytime answer — the best strategy accumulated from fully
    evaluated iterations, with exact (never over-reported) hit counts;
    it just may not reach the goal. *)

type outcome = {
  strategy : Strategy.t;  (** the accumulated strategy [s], feature space *)
  total_cost : float;  (** [Cost(s)] of the accumulated strategy *)
  incremental_cost : float;  (** sum of per-iteration step costs *)
  hits_before : int;
  hits_after : int;
  iterations : int;
  evaluations : int;  (** candidate evaluations performed *)
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
  tau:int ->
  unit ->
  outcome option
(** [None] when [tau] hits are unreachable (no feasible candidate
    remains or the iteration cap — default [4*tau + 16] — is hit).
    A [tau] the target already meets — including [tau <= 0] — is
    trivially satisfied: the zero strategy comes back after zero
    iterations. Goal validation lives in {!Engine}, which reports
    typed errors instead of raising.
    [candidate_cap], when given, fully evaluates only that many
    cheapest candidate steps per iteration (a benchmark-scale knob; the
    default evaluates all, as the paper does).
    [pool] parallelizes each iteration's candidate evaluations across
    a {!Parallel} Domain pool. Candidate order is preserved and ties
    break on the lowest candidate index, so the search returns the
    {e same} strategy for any pool size (see [test/test_parallel.ml]).
    [budget] (default {!Resilience.Budget.unlimited}) is checked at
    iteration boundaries and inside candidate evaluation; a trip ends
    the search with [status = `Degraded _] — the iteration in flight
    is discarded whole, so the partial strategy's hit count is exact.
    [fault] consults the [search.iteration] site each iteration and
    threads into {!Candidates.collect}; injected exceptions escape to
    the caller ({!Engine} reports them as [Error (Internal _)]).
    @raise Invalid_argument when the cost arity differs from the
    instance's feature dimension (a wiring bug, not an input error). *)

val per_hit_cost : outcome -> float
(** The experiments' quality metric: total cost / hits achieved. *)
