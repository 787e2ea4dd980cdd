#!/usr/bin/env sh
# Bench smoke checks at a tiny scale.
#
# 1. Domain-pool bench with a 2-domain pool: exercises the pool, the
#    sharded index build, the parallel candidate fan-out, and the
#    cross-domain determinism check (the bench exits non-zero if
#    outcomes diverge across domain counts) and the oversubscription
#    gate (median domains=2 build+search over 5 interleaved rounds
#    within 1.10x + 50 ms of the domains=1 median).
# 2. Hot-path bench: flat SoA kernels vs the boxed baselines and
#    dominance-layer pruning vs the full rival set — exits non-zero if
#    any checksum diverges or a fast path is slower than its baseline
#    beyond noise; records ratios in BENCH_hotpath.json.
# 3. Engine bench: the serving facade vs direct search calls — exits
#    non-zero if their outcomes diverge, and records the facade
#    overhead in BENCH_engine.json.
# 4. Resilience bench: armed-budget overhead vs the clean path (exits
#    non-zero above the 2% budget) and the anytime degradation curve,
#    recorded in BENCH_resilience.json.
# 5. MVCC bench: snapshot-read overhead of a serving session vs the
#    direct engine call (exits non-zero above the few-percent gate)
#    and the pinned-generation copy-on-write memory ceiling, recorded
#    in BENCH_mvcc.json.
# 6. Durability bench: batch-mode WAL append overhead vs unjournaled
#    mutations (exits non-zero above the 5% gate), crash-recovery
#    replay throughput, and the checkpoint-image size ceiling,
#    recorded in BENCH_durability.json.
#
# Also available as a dune alias: `dune build @bench-smoke`.
set -eu
cd "$(dirname "$0")/.."
export REPRO_SCALE="${REPRO_SCALE:-0.02}"
export IQ_DOMAINS="${IQ_DOMAINS:-2}"
dune exec bench/main.exe -- --bench parallel
dune exec bench/main.exe -- --bench hotpath
dune exec bench/main.exe -- --bench engine
dune exec bench/main.exe -- --bench resilience
dune exec bench/main.exe -- --bench mvcc
dune exec bench/main.exe -- --bench durability
