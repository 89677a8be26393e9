#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, release build, full tests.
# Run from the repository root: scripts/verify.sh (it takes no arguments).
# No assertion on real elapsed time lives in the tests: every timing claim
# is a lab gate below, measured best-of-N over interleaved repeats.
set -euo pipefail
cd "$(dirname "$0")/.."
trap 'echo "verify.sh: ${SECONDS}s wall-clock (exit $?)"' EXIT

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
# Doc comments link items by name; a deleted or private item must not
# leave a dangling link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
cargo test -q

# The kernel backend guarantees bit-identical results for every thread
# count; re-run the whole suite with two workers to hold it to that.
# Both passes include every differential oracle, so none is listed
# again: serving_equivalence (continuous batching never changes a
# token), fleet_equivalence (nor do sharding, rerouting and
# crash-replay), tenant_equivalence (each tenant gets the tokens of a
# solo run with its adapter merged), decode_equivalence and
# spec_properties (self-speculative decode == greedy), parallel_oracle
# and packed_props (packed integer GEMM scalar == SIMD, serial ==
# parallel), weight_cache (no invalidation path ever serves stale bits).
EDGELLM_THREADS=2 cargo test -q

# Declarative experiment gates: run every committed spec under
# experiments/ through the lab runner, then hold the run to its committed
# generated baseline (experiments/baselines/<name>.json). The run itself
# fails on any differential-oracle miss (repeat identity, A/B variant
# equality); the check additionally fails if any deterministic metric
# drifted from the baseline (exact digest + per-row count/p50) or a
# spec-declared gate regressed. A gate that "passes" because its input
# vanished or turned to garbage is worse than one that fails, so the
# check first requires run.json, every trial's three records and every
# analysis row to exist, parse and carry their exact schema tag. This is
# the one gate path for the headline ratios. The runner executes each
# task repeat-major (A.r0 B.r0 A.r1 B.r1 ...), so a best-of-N ratio
# compares arms that ran under the same machine conditions:
#   telemetry     disabled probes <=1% of an adaptation step; the named
#                 tune.* phases cover >=95% of the step; recording
#                 on/off parameters bit-equal
#   spec_decode   spec/greedy >=1.0x tokens/s, acceptance 1.0 +/- 0.1,
#                 streams bit-equal
#   tenants       8-tenant resident bytes <=1.2x single-tenant
#   igemm         integer/dequant >=1.2x at W4 and >=1.0x at W2; four
#                 batched rows >=1.3x one row's tokens/s (timing_deltas),
#                 same stream
#   fleet         equal work across 1/2/4 workers (oracle only; the
#                 tokens/s per worker count is recorded in the timing
#                 tables, no scaling bar is claimed)
#   smoke         one toy task per family, deterministic gates only; run
#                 with two kernel threads so the baseline is also held
#                 across thread counts (the timing-gated specs are
#                 calibrated at one, whatever EDGELLM_THREADS says)
# Wall-clock lands in .lab/runs/<name>/analysis/timing{,_deltas}.jsonl.
# Refresh a baseline after an intentional change with:
#   cargo run --release -q --bin edgellm -- lab check \
#     --run .lab/runs/<name> --baseline experiments/baselines/<name>.json --update
for spec in experiments/*.jsonl; do
    name=$(basename "$spec" .jsonl)
    threads=1
    if [ "$name" = smoke ]; then threads=2; fi
    cargo run --release -q --bin edgellm -- \
        lab run --spec "$spec" --run-id "$name" --threads "$threads"
    cargo run --release -q --bin edgellm -- \
        lab check --run ".lab/runs/$name" --baseline "experiments/baselines/$name.json"
done

# Budget check: the quick report tier exists so a laptop can regenerate
# the headline tables in well under a coffee break. Hold it to a
# generous multiple of its measured runtime so a quadratic regression
# in the pipeline or serving engine fails loudly here.
QUICK_BUDGET_S=600
start=$(date +%s)
cargo run --release -q --bin report -- --quick >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "quick report tier: ${elapsed}s (budget ${QUICK_BUDGET_S}s)"
if [ "$elapsed" -gt "$QUICK_BUDGET_S" ]; then
    echo "error: quick report tier exceeded its ${QUICK_BUDGET_S}s budget" >&2
    exit 1
fi
