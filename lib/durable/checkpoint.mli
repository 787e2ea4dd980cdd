(** Atomic engine-snapshot persistence.

    A checkpoint is a plain-data image of one generation — raw object
    rows, the workload queries in the user's (de-negated) weight
    convention, the order flag, the index depth, and the generation
    stamp — enough for [Recovery] to rebuild a byte-identical engine
    through [Instance.create] and the normal index build. No closures
    are stored, so only {e linear-utility} engines are checkpointable;
    feature-mapped engines get [Invalid_argument] from {!of_snapshot}.

    {b Atomicity.} {!write} goes tmp → flush → fsync → rename. A crash
    at any point (the [checkpoint.write] / [checkpoint.rename] fault
    sites) leaves the previous complete checkpoint in place; only the
    rename publishes. *)

type t

val path_in : string -> string
(** The checkpoint's path inside a durable directory
    ([<dir>/checkpoint.iqc]). *)

val of_snapshot : Iq.Snapshot.t -> t
(** Capture a published snapshot (called under the engine's write lock
    by the journal's checkpoint callback).
    @raise Invalid_argument on non-linear utilities. *)

val generation : t -> int
(** The generation the image was taken at — replay applies only log
    records {e above} it. *)

val instance : t -> Iq.Instance.t
(** Rebuild the problem instance. Weights round-trip exactly: saving
    de-negates [Desc] weights, [Instance.create ~order] re-negates
    them — float negation is lossless. *)

val depth_slack : t -> Iq.Instance.t -> int
(** The [depth_slack] to rebuild the index with so its prefix depth
    matches the checkpointed engine's. *)

val write : ?fault:Resilience.Fault.t -> string -> t -> int
(** Persist atomically to a path and fsync its directory, so the
    rename is durable before the caller truncates the log; returns
    bytes written. Consults [checkpoint.write] (before the tmp exists;
    torn rules spill a partial tmp), [checkpoint.rename] (tmp
    complete, unpublished) and [checkpoint.dirsync] (renamed, the
    directory not yet fsynced). Raises on injected crashes — the
    engine surfaces that as a typed error and the on-disk state stays
    recoverable either way. *)

val read : string -> (t, string) result
(** Load a checkpoint; [Error] on a missing file, bad magic or a
    truncated image. Never raises. *)
