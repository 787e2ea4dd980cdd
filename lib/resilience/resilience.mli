(** Request budgets and deterministic fault injection for the serving
    layer.

    This library is the resilience substrate of {!Iq.Engine}: a
    {!Budget} bounds a request by wall-clock deadline, evaluation-step
    budget and a cooperative cancellation token, and a {!Fault}
    schedule injects failures at named sites so chaos tests are
    byte-reproducible from a seed. It deliberately depends only on
    [workload] (for {!Workload.Rng} and {!Workload.Config}) and [unix]
    (for the clock) — the search layers thread budgets {e down} and
    the engine converts trips into typed errors {e up}, so nothing
    here knows about strategies or evaluators. *)

val now_ms : unit -> float
(** Milliseconds from an arbitrary process-local origin. Backed by
    [Unix.gettimeofday] with a monotonic guard: successive calls never
    observe time going backwards (a wall-clock step back is clamped to
    the latest value seen by any domain). *)

(** A per-request budget: deadline, step limit and cancellation,
    checked cooperatively at loop and chunk boundaries.

    {b Trip semantics.} A budget is {e sticky}: the first {!check}
    that observes an exceeded limit records a {!trip}, and every later
    check returns that same trip — concurrent checkers from several
    pool domains agree on a single cause. Checks are designed to cost
    a few atomic reads (and at most one clock read) so the clean path
    stays well under the documented 2% overhead budget. *)
module Budget : sig
  type token
  (** A cooperative cancellation flag, shareable across domains. *)

  val token : unit -> token

  val cancel : token -> unit
  (** Request cancellation: every budget carrying this token trips
      [Cancelled] at its next check. Idempotent. *)

  val is_cancelled : token -> bool

  type trip =
    | Deadline of { elapsed_ms : float }
        (** wall-clock deadline exceeded; [elapsed_ms] measured at the
            tripping check *)
    | Steps of { used : int; limit : int }
        (** evaluation-step budget exhausted *)
    | Cancelled  (** the token was cancelled *)

  type t

  val create :
    ?deadline_ms:float -> ?max_steps:int -> ?token:token -> unit -> t
  (** A fresh budget whose clock starts now. A negative [deadline_ms]
      or non-positive [max_steps] trips at the first check. Omitted
      limits are unenforced. *)

  val unlimited : t
  (** The shared never-tripping budget: no deadline, no step limit, no
      token. Search layers default to it so the unbudgeted path pays
      only its (few-atomic-read) checks. *)

  val step : t -> int -> unit
  (** Record [n] evaluation steps (candidate hit-count evaluations in
      the searches). Never trips by itself — the next {!check} does. *)

  val steps_used : t -> int

  val elapsed_ms : t -> float
  (** Milliseconds since {!create}. Meaningless for {!unlimited}. *)

  val check : t -> trip option
  (** [None] while within budget. Checked in order: cancellation, then
      steps, then deadline — so a simultaneously cancelled and expired
      budget deterministically reports [Cancelled]. Sticky (see
      above). Deadline checks throttle the clock read to every 16th
      check (the first check always reads, so a pre-expired deadline
      trips immediately); a wall-clock trip may therefore be observed
      up to 15 checks late — cooperative budgets tolerate that by
      design, and step/cancellation checks are never throttled. *)

  val live : t -> bool
  (** [check t = None]. *)

  val tripped : t -> trip option
  (** The recorded trip, without re-checking limits. *)
end

(** Deterministic fault injection: a seeded schedule of failures that
    instrumented code consults at named sites.

    {b Site naming.} Sites are dotted lowercase paths,
    [layer.component.event]: the engine consults
    [backend.<name>.prepare] before each evaluator prepare, index
    construction consults [index.build], the searches consult
    [search.iteration], pool tasks consult [pool.task] at chunk
    boundaries, and the durability layer consults [wal.append],
    [wal.fsync], [checkpoint.write], [checkpoint.rename] and
    [checkpoint.dirsync] (see [Durable]). Rules match a site exactly
    or by a trailing-[*] prefix wildcard.

    {b Determinism.} Whether the [n]-th consult of a site injects is a
    pure function of [(seed, site, n)] — each site keeps its own
    consult counter, so the schedule does not depend on how consults
    from different sites interleave across domains. Same seed and
    spec, same per-site schedule, every run. *)
module Fault : sig
  type kind =
    | Exn  (** raise {!Injected} *)
    | Latency of float  (** sleep that many milliseconds, then return *)
    | Torn
        (** raise {!Torn_write} — the kill-mid-write mode for durable
            I/O sites: the consulting writer must persist only
            [frac] of the bytes it was about to write and then die,
            simulating a crash that tears the record *)

  exception Injected of { site : string }
  (** The simulated failure raised from {!point}. The engine reports
      it like any other internal failure, as [Error (Internal _)] — it
      must never cross the serving boundary raw. *)

  exception Torn_write of { site : string; frac : float }
  (** Raised by a [Torn] rule. [frac] (in [0,1), a pure function of
      (seed, site, consult number) like the schedule itself) tells the
      instrumented writer where to cut: it should write
      [floor (frac *. length)] bytes of its payload, flush, and then
      treat the process as dead (abort the operation). Only the WAL
      consults torn rules; everywhere else the exception is handled
      like {!Injected}. *)

  type t

  val make : ?seed:int -> (string * kind * float) list -> t
  (** [make ~seed rules] with rules [(site_pattern, kind, probability)];
      the first matching rule decides a site's behaviour. *)

  val of_spec : string -> (t, string) result
  (** Parse an [IQ_FAULT] spec:
      [seed=42;backend.ese.prepare:exn@0.5;index.*:latency(2)@0.1;wal.append:torn@0.2]
      — semicolon-separated clauses; each is [seed=N] or
      [site:kind\[@probability\]] with kind [exn], [latency(MS)] or
      [torn] and probability defaulting to [1]. *)

  val of_env : unit -> (t option, string) result
  (** [Workload.Config.fault ()] parsed with {!of_spec};
      [Ok None] when [IQ_FAULT] is unset or empty. *)

  val seed : t -> int

  val point : t option -> site:string -> unit
  (** Consult the schedule at [site]: no-op on [None] (the fast path —
      uninstrumented production runs pay one branch) and on sites no
      rule matches; otherwise draw the site's next scheduled decision
      and inject latency or raise {!Injected}. *)

  val would_inject : t -> site:string -> n:int -> bool
  (** The schedule itself: whether consult number [n] (0-based) of
      [site] injects. Pure — does not advance counters; chaos tests
      use it to assert byte-reproducibility. *)

  val consults : t -> int
  (** Total rule-matched consults so far. *)

  val injections : t -> int
  (** Total faults actually injected (including latency). *)
end
