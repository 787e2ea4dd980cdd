(** The serving facade: one value that owns the whole IQ pipeline.

    [Engine.create] takes an {!Instance}, builds the {!Query_index},
    borrows the process-wide {!Parallel} pool, and from then on every
    improvement query, evaluation and dataset update goes through the
    engine — callers never wire [build]/[prepare]/[search] by hand (and
    nothing outside [lib/core] should).

    {b Generations and MVCC.} The engine's state lives in immutable
    per-generation {!Snapshot} bundles. Every mutation ({!add_query},
    {!add_object}, {!update_object}, …) builds the {e next} bundle
    through the functional [Query_index.with_*] copy-on-write paths
    and publishes it atomically — the previous bundle is never patched
    in place, so a reader that obtained a snapshot (a serving session,
    or any search mid-flight) keeps a consistent view for as long as
    it holds it. Reads default to the current snapshot; passing
    [?snap] pins one explicitly. Evaluators are cached per snapshot
    and re-prepared transparently when a search first touches a target
    on a new generation. Only explicit {!prepared} handles can observe
    staleness: evaluating one whose generation is behind yields
    [Error (Stale_state _)] rather than a silently wrong count.

    {b Serving sessions.} The [Serve.Session] layer (library [serve])
    drives multi-client serving: {!acquire_session} admits a caller
    (bounded by [IQ_MAX_SESSIONS], waiting within the caller's budget)
    and pins the current snapshot; {!release_session} unpins it. A few
    recently retired generations stay reachable via the
    [IQ_SNAPSHOT_KEEP] ring; anything older is reclaimed by the GC
    once its last session unpins it.

    {b Errors.} Entry points validate their inputs and return typed
    [result]s instead of raising — the [invalid_arg]s of the inner
    layers remain only for wiring bugs the engine has already ruled
    out.

    {b Backends.} Evaluation is pluggable via first-class modules:
    Efficient-IQ's subdomain index ({!Ese_backend}, the default), a
    full rescan ({!Scan_backend}) and reverse-top-k ({!Rta_backend}).
    [IQ_BACKEND] selects one at {!create} time (see
    [Workload.Config.backend]). An engine serves through its one
    backend; the scan backend is the ground-truth oracle the others
    are tested against.

    {b Resilience.} Every improvement query accepts an optional
    deadline or {!Resilience.Budget}; a tripped budget returns the
    best strategies from fully completed iterations as a typed
    [Deadline_exceeded]/[Cancelled] error carrying a {!partial} —
    anytime semantics, exact but possibly under-achieved, never
    silently wrong. A {!Resilience.Fault} schedule (loaded from
    [IQ_FAULT]) injects failures at named sites for chaos testing; an
    injected failure surfaces exactly like a genuine backend bug, as
    [Error (Internal _)], and leaves no cached evaluator behind. *)

open Geom

(* The anytime payload of a deadline/cancellation trip: the best
   strategies found in fully completed iterations. *)
type partial = {
  p_strategies : (int * Strategy.t) list;
      (** per-target accumulated strategies (singleton for the
          single-target searches) *)
  p_hits : int;
      (** the {e exact} hit (or union-hit) count of [p_strategies] —
          never an estimate *)
  p_total_cost : float;
  p_iterations : int;  (** fully completed greedy iterations *)
  p_flag : [ `Degraded ];
      (** marks the value as an anytime answer, so it cannot be
          confused with a complete outcome in downstream code *)
}

(** Typed failure taxonomy of the serving boundary. *)
module Error : sig
  type t =
    | Dim_mismatch of { expected : int; got : int }
        (** vector arity differs from the engine's space *)
    | Unknown_target of { id : int; n_objects : int }
        (** object id out of range *)
    | Unknown_query of { q : int; n_queries : int }
        (** query index out of range *)
    | Depth_exceeded of { k : int; depth : int }
        (** an added query's [k] needs a deeper prefix than the index
            keeps — rebuild with [depth_slack] *)
    | Non_finite of { what : string; coordinate : int }
        (** a mutation carried a NaN or infinite [what] (object
            attribute, object feature or query weight) at
            [coordinate]; it is rejected before it is journaled *)
    | Budget_exhausted of float  (** negative Max-Hit budget *)
    | Infeasible  (** Min-Cost: [tau] hits unreachable *)
    | Stale_state of { held : int; current : int }
        (** a {!prepared} handle outlived a mutation *)
    | Unknown_backend of string  (** unrecognized [IQ_BACKEND] name *)
    | Empty_targets  (** a combinatorial call with no targets *)
    | Deadline_exceeded of { elapsed_ms : float; partial : partial option }
        (** the request's wall-clock deadline or step budget ran out;
            [partial] is the anytime answer. Also the admission-wait
            timeout of {!acquire_session} (with [partial = None]). *)
    | Cancelled of { partial : partial option }
        (** the request's cancellation token fired *)
    | Fault_spec of { spec : string; msg : string }
        (** [IQ_FAULT] didn't parse — reported rather than silently
            running a chaos experiment without its faults *)
    | Wal_corrupt of { path : string; offset : int }
        (** the durable mutation log failed its frame checks at
            [offset] — a checksum mismatch or an impossible length.
            Recovery ([Durable.Recovery]) reports it after replaying
            the intact prefix; it never surfaces as a raw exception. *)
    | Internal of string
        (** an unexpected exception escaped an internal layer; carries
            [Printexc.to_string]. Entry points catch-and-wrap rather
            than leak raw exceptions across the serving boundary. *)

  val to_string : t -> string
end

(** An evaluation backend. [prepare] builds the per-target evaluator
    (and, when the backend has one, the underlying {!Ese} state so
    multi-target searches can reuse it instead of re-preparing).
    [layers] is the snapshot's dominance-layer map (object id → 0-based
    onion layer, [Some] when pruning is enabled); backends without a
    geometric hot path ignore it. *)
module type BACKEND = sig
  val name : string

  val prepare :
    layers:(int -> int) option ->
    index:Query_index.t ->
    pool:Parallel.pool ->
    target:int ->
    Evaluator.t * Ese.state option
end

type backend = (module BACKEND)

module Ese_backend : BACKEND
(** Efficient-IQ: Algorithm 2 over the subdomain index (default). *)

module Scan_backend : BACKEND
(** Ground-truth full rescan ({!Evaluator.naive}). *)

module Rta_backend : BACKEND
(** Reverse top-k recomputation ({!Evaluator.rta}). *)

val backend_of_name : string -> (backend, Error.t) result
(** ["ese"]/["efficient-iq"], ["scan"]/["naive"], ["rta"]/["rta-iq"]
    (case-insensitive); anything else is [Unknown_backend]. *)

type t

val create :
  ?backend:backend ->
  ?fault:Resilience.Fault.t ->
  ?prune:bool ->
  ?generation:int ->
  ?depth_slack:int ->
  ?method_:Query_index.build_method ->
  ?pool:Parallel.pool ->
  Instance.t ->
  (t, Error.t) result
(** Build the index (sharded over [pool], default the shared
    {!Parallel.default} pool — engines never create pools of their
    own) and start at generation 0 ([?generation] overrides the start —
    recovery resumes the crashed engine's count; see
    [Durable.Recovery]). Without [?backend] the [IQ_BACKEND]
    environment selects one; [Error (Unknown_backend _)] when it names
    nothing. [?fault] is the injection schedule every fault site of
    this engine consults; without it the schedule is parsed from
    [IQ_FAULT] (none when unset), and a malformed [IQ_FAULT] is
    [Error (Fault_spec _)]. The index build consults the [index.build]
    fault site; an injection there is [Error (Internal _)]. [prune] (default
    [Workload.Config.prune ()], the [IQ_PRUNE] knob) enables
    dominance-layer rival pruning on the ESE hot path — results are
    identical either way; see {!Ese.prepare}. *)

val of_index :
  ?backend:backend ->
  ?fault:Resilience.Fault.t ->
  ?prune:bool ->
  ?generation:int ->
  ?pool:Parallel.pool ->
  Query_index.t ->
  (t, Error.t) result
(** Adopt an already-built index (e.g. a sibling engine's, to serve it
    through another backend). Indexes are immutable values, so sharing
    one is safe: each engine's mutations build successors through
    [Query_index.with_*] and leave the adopted index untouched. *)

val create_exn :
  ?backend:backend ->
  ?fault:Resilience.Fault.t ->
  ?prune:bool ->
  ?depth_slack:int ->
  ?method_:Query_index.build_method ->
  ?pool:Parallel.pool ->
  Instance.t ->
  t
(** {!create}, raising [Invalid_argument] on error — for programs whose
    only sensible reaction to a config error is to die (benchmarks,
    examples). *)

(** {2 Inspection} *)

val snapshot : t -> Snapshot.t
(** The currently published generation bundle. Reading it is one
    atomic load; holding it keeps that generation's state alive (and
    consistent) regardless of later mutations, but does {e not} count
    as a pinned session — see {!acquire_session}. *)

val instance : t -> Instance.t
(** The current snapshot's instance (follows mutations). *)

val index : t -> Query_index.t
(** The current snapshot's index, read-only access for diagnostics
    ([size_words], [build_seconds], …). Mutate only through the
    engine. *)

val pool : t -> Parallel.pool

val generation : t -> int
(** Bumped by every successful mutation. *)

val backend_name : t -> string

val pruning_enabled : t -> bool
(** Whether this engine hands backends a dominance-layer map (the
    [?prune] argument / [IQ_PRUNE] knob). Note a pruned engine still
    evaluates unpruned when the per-instance layer certificate fails
    (e.g. [Desc]-order workloads) — see {!Ese.prepare}. *)

val dominance_stats : t -> (int * int) option
(** [(built_generation, layer_count)] of the most recently built onion
    layer index, [None] while nothing has been prepared yet (or
    pruning is off). A [built_generation] behind {!generation} means
    the live snapshot has not built its onion yet and will on the next
    prepare — exposed so tests can observe the invalidation protocol. *)

type stats = {
  generation : int;
  backend : string;
  prune : bool;  (** dominance-layer pruning enabled *)
  domains : int;  (** pool size *)
  n_objects : int;
  n_queries : int;
  n_groups : int;  (** index subdomain groups *)
  index_words : int;  (** approximate index footprint *)
  cached_targets : int;  (** targets with a prepared evaluator, ever *)
  stale_cached : int;  (** of those, last prepared at an older generation *)
  repreparations : int;  (** evaluators rebuilt after mutations *)
  evaluations : int;  (** candidate evaluations served, process total *)
  deadline_trips : int;  (** searches ended by deadline/step budget *)
  cancellations : int;  (** searches ended by a cancelled token *)
  faults_injected : int;  (** total injections from the loaded schedule *)
  active_sessions : int;  (** sessions currently admitted *)
  queue_depth : int;  (** callers waiting for an admission slot *)
  admission_rejections : int;
      (** admission waits that tripped their budget *)
  pinned_snapshots : int;  (** distinct generations pinned by sessions *)
  oldest_pinned : int option;  (** oldest pinned generation, if any *)
  wal_bytes : int;
      (** durable-log bytes appended since the last checkpoint (0 when
          no journal is attached) *)
  last_checkpoint_generation : int option;
      (** generation of the most recent successful checkpoint, [None]
          before the first one *)
  replayed_records : int;
      (** log records replayed into this engine at recovery time (0
          for engines born fresh) *)
}
(** Every counter is readable concurrently with a writer: the scalars
    are [Atomic]s (or read under their own small lock) and the record
    is assembled from one published snapshot — no torn values. *)

val stats : t -> stats

(** {2 Evaluation}

    All reads below default to the current snapshot; [?snap] pins an
    explicit one (a session's, typically), whose cache they then use. *)

val evaluator : ?snap:Snapshot.t -> t -> target:int -> (Evaluator.t, Error.t) result
(** The snapshot's cached evaluator for a target — prepared on first
    use, re-prepared transparently on the first touch of a new
    generation. A prepare that fails (an injected
    [backend.<name>.prepare] fault included) is [Error (Internal _)]
    and caches nothing, so the next call prepares afresh. *)

val hits : ?snap:Snapshot.t -> t -> target:int -> (int, Error.t) result
(** [H(p_target)]: how many workload queries the target hits now. *)

val member : ?snap:Snapshot.t -> t -> target:int -> q:int -> (bool, Error.t) result
(** Whether [target] is in query [q]'s top-k. *)

val dirty_queries :
  ?snap:Snapshot.t -> t -> target:int -> s:Strategy.t -> (int list, Error.t) result
(** The queries whose membership the move [s] can affect — ESE's
    affected subdomains. Backends without ESE state conservatively
    report every query. *)

(** {3 Prepared handles}

    A {!prepared} pins a target's evaluator to the generation it was
    made at. Unlike the implicit cache — which silently re-prepares —
    a handle is a promise of {e that} snapshot: evaluating it after a
    mutation reports [Stale_state] instead of answering from data the
    caller no longer holds. (Serving sessions, which pin a whole
    snapshot instead, never go stale mid-search — their refresh is
    opt-in; see [Serve.Session].) *)

type prepared

val prepare : t -> target:int -> (prepared, Error.t) result

val prepared_target : prepared -> int

val prepared_generation : prepared -> int

val evaluate : t -> prepared -> s:Strategy.t -> (int, Error.t) result
(** [H(p_target + s)] under the handle's snapshot.
    [Error (Stale_state _)] when the engine has moved on;
    [Dim_mismatch] when [s] has the wrong arity. *)

val refresh : t -> prepared -> (prepared, Error.t) result
(** A current-generation handle for the same target (the stale-handle
    recovery path). *)

(** {2 Improvement queries}

    All four searches share the budget plumbing: an explicit [?budget]
    wins, else [?deadline_ms] starts a fresh deadline, else the
    [IQ_DEADLINE_MS] environment knob, else the request is unbounded.
    A tripped budget yields [Error (Deadline_exceeded _)] (wall-clock
    {e or} step budget) or [Error (Cancelled _)], each carrying the
    anytime {!partial}. With no budget and no fault schedule the
    results are byte-identical to an engine without resilience at any
    pool size. Each call runs against one snapshot ([?snap], default
    the current one at entry): a mutation landing mid-search never
    forces a re-prepare or mixes generations. *)

val min_cost :
  ?limits:Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  cost:Cost.t ->
  target:int ->
  tau:int ->
  (Min_cost.outcome, Error.t) result
(** Algorithm 3 through the cached evaluator and shared pool.
    [Error Infeasible] when [tau] hits are unreachable. The outcome's
    [evaluations] counts this call only (the cache accumulates across
    calls; the engine reports the delta). *)

val max_hit :
  ?limits:Strategy.limits ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  cost:Cost.t ->
  target:int ->
  beta:float ->
  (Max_hit.outcome, Error.t) result
(** Algorithm 4. [Error (Budget_exhausted beta)] when [beta < 0]. *)

val min_cost_multi :
  ?limits:(int * Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  costs:(int * Cost.t) list ->
  tau:int ->
  (Combinatorial.outcome, Error.t) result
(** Section 5.1 multi-target Min-Cost. Cached ESE states are passed
    through, so repeated combinatorial queries over the same targets
    prepare each state once. An injected fault inside the search
    surfaces as [Error (Internal _)], as in the single-target
    searches. *)

val max_hit_multi :
  ?limits:(int * Strategy.limits) list ->
  ?max_iterations:int ->
  ?candidate_cap:int ->
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  ?snap:Snapshot.t ->
  t ->
  costs:(int * Cost.t) list ->
  beta:float ->
  (Combinatorial.outcome, Error.t) result

(** {2 Dataset maintenance — Section 4.3}

    Maintenance is copy-on-write: one writer at a time (they serialise
    on the engine's write lock) validates against the generation it
    extends, derives the next index through the functional
    [Query_index.with_*] paths, and publishes the successor snapshot
    atomically. Readers — including every pinned session — keep the
    generation they hold; nothing they can reach is modified. *)

val add_query : t -> Topk.Query.t -> (int, Error.t) result
(** Returns the new query's index. Like {!add_object} and
    {!update_object}, returns [Error (Non_finite _)] for a NaN or
    infinite input before anything is journaled. *)

val remove_query : t -> int -> (unit, Error.t) result
(** Later query indices shift down by one (in the new generation). *)

val add_object : t -> Vec.t -> (int, Error.t) result
(** Raw attributes; returns the new object's id. *)

val update_object : t -> int -> Vec.t -> (unit, Error.t) result
(** Replace object [id]'s raw attributes; its id is stable. *)

val remove_object : t -> int -> (unit, Error.t) result
(** Later object ids shift down by one (in the new generation). *)

(** {2 Durability — the write-ahead journal hook}

    The engine itself knows nothing about file formats; it exposes a
    {e journal}: a pair of callbacks invoked under the write lock. The
    [Durable] library supplies the standard implementation (CRC-framed
    write-ahead log + atomic checkpoints); [Durable.Store.attach] is
    the entry point application code should use. *)

(** A logical dataset mutation — exactly the information needed to
    re-execute one maintenance call. [Durable.Codec] serialises these;
    {!apply_mutation} replays them through the very same validated
    code paths the original call took. *)
type mutation =
  | M_add_object of Vec.t
  | M_update_object of { id : int; raw : Vec.t }
  | M_remove_object of int
  | M_add_query of Topk.Query.t
  | M_remove_query of int

type journal = {
  j_append : generation:int -> mutation -> int;
      (** persist one mutation, stamped with the generation it
          produces, {e before} the successor snapshot is published;
          returns the bytes written. Raising aborts the mutation —
          nothing is published, the caller sees the error — so an
          acknowledged mutation is always durable. *)
  j_checkpoint : Snapshot.t -> int;
      (** persist a full snapshot and truncate the log; returns the
          checkpoint's size in bytes. Called under the write lock. *)
  j_every : int option;
      (** automatic checkpoint cadence in mutations, [None] for
          manual-only (the [IQ_CHECKPOINT_EVERY] knob, resolved by
          [Durable.Store]) *)
}

val attach_journal :
  ?replayed_records:int ->
  ?checkpoint_generation:int ->
  ?wal_bytes:int ->
  t ->
  journal ->
  unit
(** Start journaling every subsequent mutation. The optional carry-ins
    seed the durability counters in {!stats} when attaching over a
    recovered engine (records replayed, the generation of the
    checkpoint recovery started from, bytes already in the log
    tail). *)

val detach_journal : t -> unit
(** Stop journaling (already-written files are left alone). *)

val journaled : t -> bool

val checkpoint : t -> (unit, Error.t) result
(** Force a checkpoint now: persists the current snapshot through the
    journal and resets {!stats}'s [wal_bytes]. A no-op (and [Ok ()])
    without an attached journal. *)

val apply_mutation : t -> mutation -> (unit, Error.t) result
(** Re-execute a logical mutation through its maintenance entry point
    (replay). New ids are recomputed, not trusted from the record —
    determinism of the copy-on-write paths makes them land on the same
    values the original run produced. *)

(** {2 Serving sessions — admission control and snapshot pinning}

    The raw material of [Serve.Session]; application code should use
    that library rather than these directly. *)

val acquire_session :
  ?deadline_ms:float ->
  ?budget:Resilience.Budget.t ->
  t ->
  (Snapshot.t, Error.t) result
(** Admit a serving session and pin the current snapshot. At most
    [IQ_MAX_SESSIONS] sessions are active at once; beyond that the
    caller waits (polling, 1ms) until a slot frees or its budget
    trips — the trip is returned as [Deadline_exceeded]/[Cancelled]
    with no partial and counted as an admission rejection in
    {!stats}. Budget precedence matches the searches'. *)

val release_session : t -> Snapshot.t -> unit
(** Unpin a session's snapshot and free its admission slot. Call
    exactly once per successful {!acquire_session} (sessions do this
    in their [close]). *)

val repin : t -> Snapshot.t -> Snapshot.t
(** Exchange a session's pinned snapshot for the current one (the
    opt-in refresh): pins the new generation, unpins the old, keeps
    the admission slot. Returns the snapshot now pinned (the same one
    when no mutation has landed). *)
