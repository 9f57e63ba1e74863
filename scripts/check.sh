#!/usr/bin/env bash
# Tier-1 verification flow, plus optional sanitizer stages.
#
#   scripts/check.sh            # configure, build, run the full test suite
#                               # (including `ctest -L obs` explicitly, so a
#                               # label regression is caught even if the full
#                               # run is filtered down later)
#   TSAN=1 scripts/check.sh     # additionally build with -DAIMAI_SANITIZE=thread
#                               # and run the concurrency-sensitive suites
#                               # (obs, robustness, parallel, tuner,
#                               # inference, service, resilience, learning)
#                               # under ThreadSanitizer with an 8-thread pool
#   ASAN=1 scripts/check.sh     # additionally run the full suite under
#                               # ASan+UBSan (-DAIMAI_SANITIZE=ON)
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S . >/dev/null
cmake --build build -j
ctest --test-dir build --output-on-failure -j
# The observability suite must stay selectable by label.
ctest --test-dir build -L obs --output-on-failure -j
# So must the concurrency suite (the TSan stage below depends on it).
ctest --test-dir build -L parallel --output-on-failure -j
# And the inference fast-path suite (bit-identity of batched predict).
ctest --test-dir build -L inference --output-on-failure -j
# And the execution-engine suite (vectorized-vs-row bit-identity of
# results, actual cardinalities, and derived costs).
ctest --test-dir build -L exec --output-on-failure -j
# And the service runtime suite (multi-session determinism, hot swap,
# drain/checkpoint/resume).
ctest --test-dir build -L service --output-on-failure -j
# And the fault-tolerance suite (watchdog, journal recovery, tenant
# isolation, validated publish + rollback, chaos accounting).
ctest --test-dir build -L resilience --output-on-failure -j
# And the online learning loop (feedback harvest, drift-triggered
# background retrain, per-tenant adapted publish, runner-count
# bit-identity).
ctest --test-dir build -L learning --output-on-failure -j
# And the TPC-H-scale workload family (SF-proportional row counts,
# serial/parallel fill bit-identity, sorted dictionaries past 10^6
# entries, FK integrity).
ctest --test-dir build -L tpch_sf --output-on-failure -j
# And the open-loop traffic suite (arrival/schedule determinism, shed
# accounting balance, SLO deadline escalation, runner-count
# bit-identity, JobQueue aging).
ctest --test-dir build -L traffic --output-on-failure -j
# Chaos determinism stage: the same suite under an explicit fault-schedule
# seed — every fired injection must be accounted for at a non-default seed
# too (recovered + quarantined + shed == injected).
AIMAI_CHAOS_SEED=1337 ctest --test-dir build -L resilience \
  -R ChaosTest --output-on-failure
# Resilience overhead gate: watchdog + deadlines + journal must cost < 2%
# on a fault-free job stream (exits non-zero over the bar; emits
# BENCH_resilience.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_resilience)
# Learning gates: harvest overhead < 2% with bit-identical
# recommendations, retrain completes, adapted holdout F1 >= offline
# (exits non-zero over a bar; emits BENCH_learning.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_learning)
# Scale-factor gate: tpch_sf generation must be deterministic (same seed
# => identical per-table ContentFingerprints, pooled fill bit-identical
# to serial) while a tuning round runs per query family, and every plan
# it executes must run on the batch engine — a deterministic count,
# exec.plans_executed == exec.vectorized_plans (exits non-zero on a
# determinism break or a row-engine fallback; emits
# BENCH_tpch_scale.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_tpch_scale)
# Vectorized execution gate: the columnar pipeline must beat the row
# engine >= 3x on Q1/Q6-shaped lineitem plans while producing
# bit-identical results, cardinalities, costs, and tuning
# recommendations; Q3/Q14-shaped join plans are cross-checked for
# bit-identity too and report their speedup ungated (exits non-zero
# otherwise; emits BENCH_exec.json).
(cd build/bench && AIMAI_QUICK=1 ./bench_exec)
# Traffic gate: 1024 open-loop sessions with a flash-crowd overload
# window — shed accounting must balance exactly (engine, per tenant,
# and admission controller) and the steady phase at half capacity must
# hold its SLO-miss rate (exits non-zero otherwise; emits
# BENCH_traffic.json atomically).
(cd build/bench && AIMAI_QUICK=1 ./bench_traffic)

if [[ "${ASAN:-0}" == "1" ]]; then
  cmake -B build-san -S . -DAIMAI_SANITIZE=ON >/dev/null
  cmake --build build-san -j
  ctest --test-dir build-san --output-on-failure -j
  # The SF-scale generator suite must also be label-selectable under
  # ASan+UBSan (multi-million-element fills are where container misuse
  # would hide).
  ctest --test-dir build-san -L tpch_sf --output-on-failure -j
  # The batch kernels and arena allocator run the full exec parity suite
  # under ASan+UBSan (raw-pointer sweeps over column backing arrays).
  ctest --test-dir build-san -L exec --output-on-failure -j
  # The traffic engine suite runs its overload/accounting paths under
  # ASan+UBSan too (per-tenant maps mutated from the dispatch thread).
  ctest --test-dir build-san -L traffic --output-on-failure -j
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  cmake -B build-tsan -S . -DAIMAI_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j
  # AIMAI_THREADS=8 forces the shared pool wide so the tuner suites
  # exercise real fan-out under TSan even on small CI machines. The
  # service suite runs >= 4 concurrent sessions (16 in the big guard)
  # over the shared cache domain, registry, and runner fleet here.
  # resilience runs here too: the watchdog thread, runner fleet, and
  # journal interleave under injected faults with TSan watching.
  AIMAI_THREADS=8 ctest --test-dir build-tsan \
    -L 'obs|robustness|parallel|tuner|inference|service|resilience|learning|exec|traffic' \
    --output-on-failure -j
fi

echo "check.sh: all requested stages passed"
