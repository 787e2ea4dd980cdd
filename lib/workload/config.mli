(** Experiment configuration — Table 2 of the paper.

    | Parameter      | Default | Range           |
    |----------------|---------|-----------------|
    | |D|            | 100,000 | 50,000–200,000  |
    | |Q|            | 10,000  | 5,000–15,000    |
    | tau            | 250     | 100–500         |
    | beta           | 50      | 10–100          |
    | dimensionality | 3       | 1–5             |

    Benchmarks run the paper's sweeps scaled by [scale] (the
    [REPRO_SCALE] environment variable, default 0.05) so the full suite
    finishes in minutes on a laptop; the harness reports both paper and
    scaled coordinates. *)

type t = {
  n_objects : int;
  n_queries : int;
  tau : int;
  beta : float;
  dimension : int;
  seed : int;
}

val default : t
(** Table 2 defaults at scale 1. *)

val scale : unit -> float
(** [REPRO_SCALE] env var, default 0.05; clamped to (0, 1]. *)

val domains : unit -> int
(** Domain-pool size for the parallel layer: the [IQ_DOMAINS] env var
    when set to a positive integer, otherwise
    [Domain.recommended_domain_count () - 1] (min 1). A value of [1]
    bypasses domain spawning entirely — execution is byte-identical to
    the sequential code path. Alias of {!Parallel.default_domains}. *)

val backend : unit -> string
(** Evaluation backend for the serving engine: the [IQ_BACKEND] env var
    lowercased ("ese", "scan" or "rta"), default ["ese"]. Resolved to a
    backend module by [Iq.Engine.backend_of_name]; unknown names are
    rejected there, not here. *)

val deadline_ms : unit -> float option
(** Default per-request deadline for engine searches: the
    [IQ_DEADLINE_MS] env var when set to a positive float, otherwise
    [None] (no deadline). Explicit [?deadline_ms]/[?budget] arguments
    to [Iq.Engine] searches override it. *)

(* iqlint: allow dead-export — the end-to-end benchmark (perfbench/) prints it on its knobs line *)
val retries : unit -> int
(** The [IQ_RETRIES] env var when set to a non-negative integer,
    default [2]. Nothing in the libraries reads it: the engine retries
    nothing. Its only reader is the end-to-end benchmark's knobs line,
    which echoes every [IQ_*] setting of a run. *)

val fault : unit -> string option
(** The raw [IQ_FAULT] fault-injection spec, unparsed ([None] when
    unset or empty). Parsed by [Resilience.Fault.of_spec]; the format
    is documented there. *)

val prune : unit -> bool
(** Whether engines use dominance-layer rival pruning on the ESE hot
    path (see [Iq.Ese.prepare]'s [layers]): the [IQ_PRUNE] env var,
    default [true]; "0", "false", "off" and "no" (any case) disable
    it. Pruned and unpruned runs return identical results — the knob
    exists for benchmarking and bisection. *)

val max_sessions : unit -> int
(** Admission-control ceiling for concurrently open serving sessions:
    the [IQ_MAX_SESSIONS] env var when set to a positive integer,
    default [8]. Opening a session beyond the ceiling waits (bounded by
    the session's deadline budget) for a slot; an expired wait is a
    rejection, counted in [Iq.Engine.stats]. *)

val wal_sync : unit -> string
(** Fsync discipline of the durable write-ahead log: the [IQ_WAL_SYNC]
    env var lowercased — ["always"] (fsync every append), ["batch"]
    (group fsyncs, the default) or ["off"] (no fsync; OS flush only).
    Unrecognized values fall back to ["batch"]. Interpreted by
    [Durable.Wal]. *)

val checkpoint_every : unit -> int option
(** Automatic checkpoint cadence for durable engines: the
    [IQ_CHECKPOINT_EVERY] env var when set to a positive integer —
    after that many journaled mutations the engine checkpoints its
    snapshot and truncates the log. [None] (default, or on a
    non-positive value) means checkpoints happen only through
    [Iq.Engine.checkpoint]. *)

val snapshot_keep : unit -> int
(** How many {e retired} engine generations the MVCC layer keeps
    reachable beyond the current one (the [IQ_SNAPSHOT_KEEP] env var,
    default [2], [0] disables retention). Pinned snapshots are always
    kept alive by their sessions regardless of this knob; unpinned ones
    older than the ring are reclaimed by the GC. *)

val scaled : ?scale:float -> t -> t
(** Scale object/query counts and tau (budget and dimension are
    scale-free). Counts are kept >= 100 (objects), >= 50 (queries). *)

val object_sweep : t -> int list
(** The Figure 4/7–9 x-axis: 50k, 100k, 150k, 200k (before scaling). *)

val query_sweep : t -> int list
(** The Figure 5/10–11 x-axis: 5k, 10k, 15k (before scaling). *)

val dimension_sweep : int list
(** Figure 13 x-axis: 1–5 variables. *)

val pp : Format.formatter -> t -> unit
