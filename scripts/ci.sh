#!/usr/bin/env bash
# Tier-1 gate (see README "Tests"): formatting, lints with warnings denied,
# release build, full test suite. Everything runs offline against the
# vendored dependency shims; there is nothing to download.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "=== cargo fmt --check ==="
cargo fmt --all -- --check

echo "=== cargo clippy (warnings denied) ==="
cargo clippy --workspace --all-targets -- -D warnings

echo "=== cargo build --release ==="
cargo build --release --workspace

echo "=== cargo test ==="
cargo test --workspace -q

echo "=== benchmark package (builds against the public API) ==="
# benchmark/ is a workspace of its own over ../crates/*: a public-API change
# that stops it compiling, or breaks its quick-size self-test, fails here
# and not first in the benchmark driver.
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "=== bench smoke (criterion --test mode) ==="
# Runs every channel and cache bench routine exactly once (no sampling),
# so the fast/reference bench pairs can't bit-rot without failing CI.
cargo bench -p semcom-bench --bench channel -- --test
cargo bench -p semcom-bench --bench cache -- --test
cargo bench -p semcom-bench --bench sync -- --test
# Observability overhead routines (disabled vs enabled recorder on the
# packed-transmit and sync-round hot paths, see BENCH_pr5.json; untraced
# vs traced trace_span and served-message pairs, see BENCH_pr10.json).
cargo bench -p semcom-bench --bench obs -- --test
# NN kernel + codec serving routines (SIMD vs scalar reference matmul,
# int8 vs fp32 encode, batched vs per-user; see BENCH_pr6.json).
cargo bench -p semcom-bench --bench matmul -- --test
cargo bench -p semcom-bench --bench codec -- --test
# send_stream routines (sequential vs send_stream at 1 and 4 workers, paced
# airtime; routine names as recorded in BENCH_pr7.json).
cargo bench -p semcom-bench --bench pipeline -- --test
# Sharded fleet routines (single-loop reference vs 4-shard streaming
# engine at 1 worker and at the natural count; see BENCH_pr8.json).
cargo bench -p semcom-bench --bench fleet -- --test
# The F14 adaptation loop sits on every serving ingress and fleet arrival:
# the policy step and the adaptive/offload fleet replays must keep running.
cargo bench -p semcom-bench --bench adapt -- --test
# `system` pre-trains a SemanticEdgeSystem and `vision` trains an ImageKb:
# both run the optimizer, loss and matmul kernels end to end (as does the
# `fit_pairs` routine of the codec bench above).
cargo bench -p semcom-bench --bench system -- --test
cargo bench -p semcom-bench --bench vision -- --test

echo "=== int8 accuracy gate (quantization loss < 1%) ==="
# Redundant with `cargo test --workspace` above but called out as its own
# gate: post-training int8 quantization must cost < 1% absolute task
# accuracy on the seeded eval before any benchmark may advertise its
# speedup (PR 6).
cargo test -q -p semcom-codec --test quant_accuracy

echo "=== wire fuzz (decode-never-panics) ==="
# Redundant with `cargo test --workspace` above but called out as its own
# gate: the sync wire decoder must stay a total function (PR 4).
cargo test -q -p semcom-fl --test wire_fuzz

echo "=== determinism goldens ==="
# The packed channel hot path and the O(log n)/O(1) cache engine must stay
# byte-identical to the recorded figures. Goldens were recorded at
# SEMCOM_THREADS=1 (F2's semantic-leg columns are thread-count-dependent;
# see CHANGES.md for PR 1; F4 is worker-count-invariant by construction
# and additionally asserted by crates/bench/tests/f4_workers.rs; T7 keeps
# the trainer out of the loop and is thread-count-invariant by design).
for fig in f2_snr_sweep f6_channel_ablation f4_cache_sweep t7_fault_sweep; do
    SEMCOM_THREADS=1 "./target/release/$fig" | diff -u "tests/goldens/$fig.stdout" - || {
        echo "ci: harness $fig (crates/bench/src/bin/$fig.rs) diverged from tests/goldens/$fig.stdout." >&2
        echo "ci: if the change is intentional, regenerate with:" >&2
        echo "ci:   SEMCOM_THREADS=1 ./target/release/$fig > tests/goldens/$fig.stdout" >&2
        exit 1
    }
    echo "$fig matches golden"
done

echo "=== fine-tune digest (training numerics pinned to the bit) ==="
# Redundant with `cargo test --workspace` above at the host's worker count;
# run here at 1 and 4 so a training kernel that moves one parameter bit, or
# starts to depend on the worker count, fails next to the goldens it would
# otherwise only reach through F2 and benchmark/expected/.
for threads in 1 4; do
    SEMCOM_THREADS=$threads cargo test -q --test finetune_digest
done

echo "=== observability golden (T8) + thread invariance ==="
# T8's stdout (including the deterministic snapshot section: counters,
# gauges, histogram counts, journal without timestamps) must match the
# golden AND stay byte-identical across worker counts — the semcom-obs
# determinism contract. The full timed snapshot goes to stderr, outside
# the golden.
for threads in 1 4; do
    SEMCOM_THREADS=$threads ./target/release/t8_observability 2>/dev/null \
        | diff -u tests/goldens/t8_observability.stdout - || {
        echo "ci: harness t8_observability (crates/bench/src/bin/t8_observability.rs) diverged from tests/goldens/t8_observability.stdout at SEMCOM_THREADS=$threads." >&2
        echo "ci: if the change is intentional, regenerate with:" >&2
        echo "ci:   SEMCOM_THREADS=1 ./target/release/t8_observability 2>/dev/null > tests/goldens/t8_observability.stdout" >&2
        echo "ci: then re-run this script — the golden must hold at every worker count." >&2
        exit 1
    }
    echo "t8_observability matches golden at SEMCOM_THREADS=$threads"
done

echo "=== causal tracing golden (T11) + thread invariance ==="
# T11 drives per-message tracing end-to-end: span-tree equality across the
# three send paths, the faulty-link sync transport's attempt/resync spans,
# a flash-crowd fleet with a Perfetto-export fingerprint + parse
# round-trip, the time-series table, asserted slo_breach events, the
# sharded merge, and a migration trace. Span ids are content-derived, so
# the stdout must be byte-identical at 1 AND 4 workers; wall-clock section
# timings go to stderr, outside the golden.
for threads in 1 4; do
    SEMCOM_THREADS=$threads ./target/release/t11_tracing 2>/dev/null \
        | diff -u tests/goldens/t11_tracing.stdout - || {
        echo "ci: harness t11_tracing (crates/bench/src/bin/t11_tracing.rs) diverged from tests/goldens/t11_tracing.stdout at SEMCOM_THREADS=$threads." >&2
        echo "ci: if the change is intentional, regenerate with:" >&2
        echo "ci:   SEMCOM_THREADS=1 ./target/release/t11_tracing 2>/dev/null > tests/goldens/t11_tracing.stdout" >&2
        echo "ci: then re-run this script — divergence at only SOME worker counts means span identity or the shard merge order broke determinism, not the golden." >&2
        exit 1
    }
    echo "t11_tracing matches golden at SEMCOM_THREADS=$threads"
done

echo "=== staged pipeline golden (T10) + thread invariance ==="
# T10 serves a mixed trace through send_stream (asserting bit-identity to
# send_message inside the harness) and replays the fleet DES dispatch loop
# through it. Its stdout — ending in the deterministic snapshot — must match
# the golden byte-for-byte at 1, 2, 3 AND 4 workers (3 splits a window into
# uneven chunks): the PR 7 contract that serving messages in parallel never
# changes what any user receives.
for threads in 1 2 3 4; do
    SEMCOM_THREADS=$threads ./target/release/t10_pipeline 2>/dev/null \
        | diff -u tests/goldens/t10_pipeline.stdout - || {
        echo "ci: harness t10_pipeline (crates/bench/src/bin/t10_pipeline.rs) diverged from tests/goldens/t10_pipeline.stdout at SEMCOM_THREADS=$threads." >&2
        echo "ci: if the change is intentional, regenerate with:" >&2
        echo "ci:   SEMCOM_THREADS=1 ./target/release/t10_pipeline 2>/dev/null > tests/goldens/t10_pipeline.stdout" >&2
        echo "ci: then re-run this script — divergence at only SOME worker counts means send_stream's window rules broke determinism, not the golden." >&2
        exit 1
    }
    echo "t10_pipeline matches golden at SEMCOM_THREADS=$threads"
done

echo "=== sharded fleet golden (F13) + thread invariance ==="
# F13 plans, replays, and merges the two-level sharded fleet — including a
# 1M-user / 10M-request streaming trace — and asserts sharded == reference
# inside the harness. Its stdout must match the golden byte-for-byte at 1
# AND 4 workers: the PR 8 contract that shard fan-out never changes any
# report. Wall-clock timings go to stderr, outside the golden.
for threads in 1 4; do
    SEMCOM_THREADS=$threads ./target/release/f13_fleet_scale 2>/dev/null \
        | diff -u tests/goldens/f13_fleet_scale.stdout - || {
        echo "ci: harness f13_fleet_scale (crates/bench/src/bin/f13_fleet_scale.rs) diverged from tests/goldens/f13_fleet_scale.stdout at SEMCOM_THREADS=$threads." >&2
        echo "ci: if the change is intentional, regenerate with:" >&2
        echo "ci:   SEMCOM_THREADS=1 ./target/release/f13_fleet_scale 2>/dev/null > tests/goldens/f13_fleet_scale.stdout" >&2
        echo "ci: then re-run this script — divergence at only SOME worker counts means the shard fan-out or merge order broke determinism, not the golden." >&2
        exit 1
    }
    echo "f13_fleet_scale matches golden at SEMCOM_THREADS=$threads"
done

echo "=== link-adaptive serving + offloading golden (F14) + thread invariance ==="
# F14 drives the adaptation policy, adaptive serving accuracy, user
# migration over the sync transport, and the flash-crowd offloading grid.
# Its SLO percentiles are simulated seconds (wall-clock goes to stderr),
# so the stdout must be byte-identical at 1 AND 4 workers; the harness
# also asserts adaptive-beats-fixed and offload-rescues-the-tail inline.
for threads in 1 4; do
    SEMCOM_THREADS=$threads ./target/release/f14_adaptive 2>/dev/null \
        | diff -u tests/goldens/f14_adaptive.stdout - || {
        echo "ci: harness f14_adaptive (crates/bench/src/bin/f14_adaptive.rs) diverged from tests/goldens/f14_adaptive.stdout at SEMCOM_THREADS=$threads." >&2
        echo "ci: if the change is intentional, regenerate with:" >&2
        echo "ci:   SEMCOM_THREADS=1 ./target/release/f14_adaptive 2>/dev/null > tests/goldens/f14_adaptive.stdout" >&2
        echo "ci: then re-run this script — divergence at only SOME worker counts means per-user link streams or the pipelined ingress broke determinism, not the golden." >&2
        exit 1
    }
    echo "f14_adaptive matches golden at SEMCOM_THREADS=$threads"
done

echo "ci: all gates passed"
