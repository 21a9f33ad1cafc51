#!/usr/bin/env bash
# Pre-PR gate: everything CI would complain about, in one command.
#
#   ./scripts/check.sh          # build + sim digests + tests + clippy + fmt + golden digest
#
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --offline --manifest-path oobench/Cargo.toml"
# The benchmark is a package of its own outside the workspace; building it
# here catches a change to the library API it compiles against.
cargo build --release --offline --manifest-path oobench/Cargo.toml

echo "==> oobench sim_digest (each workload and seed of scripts/sim_digests.txt)"
# A digest of everything each benchmark workload simulates: a change that
# only speeds the simulator up must leave every value alone, and one that
# moves them on purpose commits the new values with the change. Each line
# is `workload seed digest`; the held-out seed 1 checks that the digest
# holds beyond the pinned seed 0.
while read -r workload seed want; do
    got=$(cargo run -q --release --offline --manifest-path oobench/Cargo.toml -- \
        --workload "$workload" --seed "$seed" --seconds 1 --trace 0 </dev/null | sed -n 's/^sim_digest //p')
    if [ "$got" != "$want" ]; then
        echo "SIM DIGEST MISMATCH: $workload seed $seed sim_digest is '$got', scripts/sim_digests.txt has '$want'" >&2
        exit 1
    fi
    echo "    $workload seed $seed sim_digest $got"
done < scripts/sim_digests.txt

echo "==> cargo test -q --no-fail-fast"
cargo test -q --no-fail-fast

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo clippy --lib -W clippy::unwrap_used (library crates)"
# unwrap() on user-reachable library paths should go through OovrError
# instead; warn-level so legitimate internal invariants (with expect
# messages) don't block the gate, but new unwraps show up in review.
cargo clippy --lib -p oovr-scene -p oovr-mem -p oovr-gpu -p oovr-frameworks -p oovr \
    -- -W clippy::unwrap_used

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> figures verify (golden digest of fault-free tables)"
cargo run -q --release -p oovr-bench --bin figures -- verify

echo "==> figures smoke run (reduced scale: fig15 + resilience + cluster + chaos + temporal + metrics + health + edge)"
# Exercises the full table pipeline — scene cache, render memo, CSV
# emission — plus the fleet tier (capacity-vs-N and placement gates, the
# full chaos strictness sweep), the temporal-reuse sweep (reuse
# monotonicity and the OOVR+temporal capacity frontier gates), the
# metered serve table (which also refreshes results/metrics.prom, the
# source of the committed Prometheus golden), and the fleet health gate
# (SLO error budgets nominal and under link-down; run_health errors on
# any exhausted aggregate budget — including the edge tier's), and the
# split client-edge gates (degenerate-link identity, motion-to-photon
# ladder monotonicity, ATW strictly beating the bare client in every
# link-down chaos cell) at a scale small enough for a
# pre-commit hook. The run is timed against
# scripts/perf_baseline.txt (committed seconds for this smoke): a
# wall-clock blow-up past ~2x the baseline fails the gate loudly, so
# substrate regressions (a classifier that stops accepting, a
# cluster-scheduler rescan creeping back in, an unbounded
# per-session pose cache) surface here instead of in a multi-minute
# figures run.
SMOKE_START=$(date +%s.%N)
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 fig15 resilience cluster chaos temporal metrics health edge
SMOKE_SECS=$(awk -v a="$SMOKE_START" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
BASELINE=$(cat scripts/perf_baseline.txt)
awk -v t="$SMOKE_SECS" -v base="$BASELINE" 'BEGIN {
    limit = base * 2.0 + 1.0;  # 2x + 1s absolute slack for cold caches / load spikes
    printf "    smoke wall-clock %.2fs (baseline %.2fs, limit %.2fs)\n", t, base, limit;
    if (t > limit) {
        printf "PERF REGRESSION: fig15+resilience+cluster+chaos+temporal+metrics+health+edge smoke took %.2fs, over %.2fs (2x baseline %.2fs + 1s)\n", t, limit, base > "/dev/stderr";
        printf "If the slowdown is intentional, re-baseline scripts/perf_baseline.txt.\n" > "/dev/stderr";
        exit 1;
    }
}'

echo "==> figures serve (FULL scale: capacity table + QoS demo)"
# Runs the serving layer end to end — stream memoization, Eq. 3 admission,
# EDF scheduling, capacity search — and asserts OO-VR's capacity strictly
# exceeds the baseline's on every workload (run_serve errors otherwise).
# Full scale since the batched substrate made it affordable (~1 min on one
# core); this also regenerates results/serve.csv, which only happens at
# scale >= 1. serve.csv determinism and scheme ordering are pinned by
# tests/prop_serve.rs.
cargo run -q --release -p oovr-bench --bin figures -- serve

echo "==> figures trace-check (flight-recorder smoke: determinism + JSON validation)"
# Renders the demo frame traced twice: artifacts must be byte-identical,
# the Chrome JSON must parse and validate (monotone per-track timestamps,
# batch spans on every GPM, PA + steal instants), and the traced report
# must equal the untraced one.
cargo run -q --release -p oovr-bench --bin figures -- trace-check

echo "==> figures trace cluster (fleet failover smoke: link-down timeline)"
# Runs a small traced fleet under a seed-scanned link-down fault and
# fails unless the timeline actually shows server downs, failovers AND a
# missed per-paced-frame cluster_frame event — the cluster event
# vocabulary, which the fleet metrics are folded from, stays exercised
# end to end through all three exporters.
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 trace cluster hl2-640

echo "==> figures trace temporal (reuse smoke: per-frame reuse events fire)"
# Serves a small OOVR+temporal run traced end to end and fails unless the
# timeline carries temporal_reuse events with at least one reused object
# — the pose-delta pricing stays wired through the scheduler and all
# three exporters.
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 trace temporal hl2-640

echo "==> figures trace edge (split-rendering smoke: loss + reprojection events fire)"
# Runs a small traced client-edge session under a seed-scanned link-down
# fault and fails unless the timeline shows at least one FrameLost AND
# one FrameReprojected — the edge event vocabulary (sent / delivered /
# lost / reprojected / stale) stays exercised through all three
# exporters.
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 trace edge hl2-640

echo "==> figures trace oovr/baseline/serve demo (the committed demo-frame traces)"
# Regenerates the three demo traces committed under results/traces; the
# cluster, temporal and edge traces above are the other committed ones.
cargo run -q --release -p oovr-bench --bin figures -- \
    trace oovr demo trace baseline demo trace serve demo

echo "==> git diff --exit-code -- results/traces (committed traces are current)"
# Every trace step above rewrites its committed artifacts; a diff means a
# change moved a trace without the regenerated file being committed.
git diff --exit-code -- results/traces

echo "==> cargo bench --no-run (criterion benches stay compilable)"
cargo bench --no-run

echo "==> all checks passed"
