(** Efficient Strategy Evaluation — Algorithm 2.

    Given a target object, the per-target state caches the target's
    current hit set ([TP(p_i)]). Evaluating a candidate strategy [s]
    then touches only the queries inside some affected subspace — the
    slab between an intersection involving the target and its
    post-strategy image (Equations 4–5) — and re-scores each such query
    in O(d) using the cached rank-k rival ("switch the rank of f_i and
    f_l" rather than re-evaluating the query). *)

open Geom

type state

val prepare : ?layers:(int -> int) -> Query_index.t -> target:int -> state
(** Compute the target's base memberships from the index cache, plus
    the per-query rank-k rival and threshold (so {!member_after} and
    {!hit_constraint} run in O(d) with no index walk).

    [layers] enables geometric rival pruning: it maps an object id to
    its 0-based onion/dominance layer (see [Topk.Onion.layer_of]).
    When provided {e and} the layer certificate holds — all query
    weights non-negative and every rank-k rival within its query's
    first [k+1] layers — candidate evaluation iterates only the exact
    kth-rival set instead of every cached prefix object, returning
    bit-for-bit identical counts. A failed certificate (e.g. a
    [Desc]-order instance, whose weights are negated) silently falls
    back to the unpruned path. *)

val base_hits : state -> int
(** [H(p_i)] before any improvement. *)

val member : state -> q:int -> bool
(** Base membership of the target in query [q]'s result. *)

val evaluate : state -> s:Strategy.t -> int
(** [H(p_i + s)] — Algorithm 2. [s] lives in feature space. *)

val member_after : state -> s:Strategy.t -> q:int -> bool
(** Whether the improved target hits query [q]; O(d) via the cached
    threshold rival. *)

val hit_constraint :
  state -> q:int -> current:Vec.t -> (Vec.t * float) option
(** The linear constraint [(a, b)] such that a step [s] from [current]
    (the target's current feature vector) makes the target hit query
    [q] iff [a . s <= b] (Equation 14, with a small strict-inequality
    margin). [None] when the target hits [q] unconditionally (fewer
    than k other objects). *)

val dirty_queries : state -> s:Strategy.t -> int list
(** The affected-subspace query set for [s] (exposed for tests). *)

val dirty_between :
  state -> s_from:Strategy.t -> s_to:Strategy.t -> int list
(** Queries whose result can differ between the target improved by
    [s_from] and by [s_to] — the slab between the two strategy
    positions. Incremental searches (Section 5.1) use this to keep
    per-target membership caches exact across accumulated steps. *)

val evaluations : state -> int
(** Number of [evaluate] calls so far (benchmark instrumentation). *)

val pruned : state -> bool
(** Whether this state evaluates against the pruned kth-rival set
    (the [layers] certificate held at {!prepare} time). *)

val rival_count : state -> int
(** Rivals the slab classification loop visits per evaluation: the
    distinct rank-k rivals when pruned, the full cached prefix set
    otherwise. *)
