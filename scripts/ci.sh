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
# so the PHY stage routines and the cache engine's fast/reference pairs
# can't bit-rot without failing CI.
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
# send_stream routines (sequential vs send_stream at 1 and 4 workers;
# routine names as recorded in BENCH_pr7.json).
cargo bench -p semcom-bench --bench pipeline -- --test
# The F14 adaptation loop sits on every serving ingress and fleet arrival:
# the policy step and the adaptive/offload fleet replays must keep running.
cargo bench -p semcom-bench --bench adapt -- --test
# `system` pre-trains a SemanticEdgeSystem and `vision` trains an image
# KnowledgeBase: both run the optimizer, loss and matmul kernels end to end (as
# does the `fit_pairs` routine of the codec bench above).
cargo bench -p semcom-bench --bench system -- --test
cargo bench -p semcom-bench --bench vision -- --test

echo "=== fine-tune, serving, int8, fleet, noise + multimodal digests (numerics pinned to the bit) ==="
# Redundant with `cargo test --workspace` above at the host's worker count;
# run here at 1 and 4 so a training kernel that moves one parameter bit, a
# serving change that moves one decoded concept or counter, an int8 kernel
# that moves one logit bit, a fleet replay that moves one report bit, round
# or span, or any of them starting to depend on the worker count, fails
# next to the goldens it would otherwise only reach through F2, F12 (which
# has no golden) and benchmark/expected/.
for threads in 1 4; do
    SEMCOM_THREADS=$threads cargo test -q \
        --test finetune_digest --test serving_digest --test quant_digest \
        --test fleet_digest --test noise_digest --test multimodal_digest
done

echo "=== int8 kernel without the FMA target feature ==="
# .cargo/config.toml builds for the host CPU, so everything above took the
# fused branch of the int8 kernel's multiply-add wherever the host has FMA.
# Baseline x86-64 has none: the same equivalence suite must find the same
# integers through the unfused branch. Its own target directory, so the
# flag change does not rebuild the main one. (aarch64 always fuses.)
if [[ $(uname -m) == x86_64 ]]; then
    RUSTFLAGS='-C target-cpu=x86-64' CARGO_TARGET_DIR=target/baseline-cpu \
        cargo test -q -p semcom-nn --test simd_equivalence --test noise_equivalence
fi

echo "=== determinism goldens ==="
# check_golden <harness> <threads...>: the harness's stdout (stderr carries
# wall-clock timings and full snapshots, outside the golden) must match
# tests/goldens/<harness>.stdout byte for byte at every listed worker count.
check_golden() {
    local fig=$1 threads
    shift
    for threads in "$@"; do
        SEMCOM_THREADS=$threads "./target/release/$fig" 2>/dev/null \
            | diff -u "tests/goldens/$fig.stdout" - || {
            echo "ci: harness $fig (crates/bench/src/bin/$fig.rs) diverged from tests/goldens/$fig.stdout at SEMCOM_THREADS=$threads." >&2
            echo "ci: if the change is intentional, regenerate with SEMCOM_THREADS=1 ./target/release/$fig 2>/dev/null > tests/goldens/$fig.stdout" >&2
            echo "ci: and re-run: divergence at only SOME worker counts is a determinism bug, not a stale golden." >&2
            exit 1
        }
        echo "$fig matches golden at SEMCOM_THREADS=$threads"
    done
}
# Manifest, `harnesses: worker counts`.
while IFS=: read -r figs threads; do
    case $figs in '' | '#'*) continue ;; esac
    for fig in $figs; do
        # shellcheck disable=SC2086
        check_golden "$fig" $threads
    done
done <<'MANIFEST'
# Packed channel hot path and the O(log n)/O(1) cache engine. Recorded at 1
# worker: F2's semantic-leg columns depend on the thread count (CHANGES.md,
# PR 1); F4 is worker-count-invariant by construction (also asserted by
# crates/bench/tests/f4_workers.rs); T7 keeps the trainer out of the loop.
f2_snr_sweep f6_channel_ablation f4_cache_sweep t7_fault_sweep: 1
# Byte-identical at 1 AND 4 workers. T8: the deterministic snapshot
# (counters, gauges, histogram counts, journal without timestamps), the
# semcom-obs determinism contract. T11: span-tree equality across window
# widths, faulty-link attempt/resync spans, the flash-crowd Perfetto
# fingerprint, slo_breach events, the sharded merge, a migration trace —
# span ids are content-derived. F13: plans, replays and merges the sharded
# fleet (1M users / 10M requests), asserting sharded == reference inside.
# F14: adaptation policy, adaptive serving accuracy, migration over the
# sync transport, flash-crowd offloading; SLO percentiles are simulated.
t8_observability t11_tracing f13_fleet_scale f14_adaptive: 1 4
# The multimodal codecs (image, audio, video). They train, so their tables
# are recorded at 1 worker only; tests/multimodal_digest.rs pins the
# training itself at 1, 2 and 4.
f7_image_codec f10_audio_codec f11_video_codec: 1
# T6: decoder-sync updates over a BSC, unprotected, CRC-dropped and framed
# with ARQ. Recorded at 1 worker; its stdout is the same at 2 and 4.
t6_lossy_sync: 1
# T10: a mixed trace through send_stream (bit-identity to send_message is
# asserted inside) and the fleet DES dispatch loop; 3 workers split a
# window into uneven chunks.
t10_pipeline: 1 2 3 4
MANIFEST

echo "=== T9 trilemma smoke ==="
# Wall-clock, so no golden: run once for its exit status. It drives every
# fp32 and int8 KB (text, image, audio) and reads the text encoder's
# internals; its accuracy gate is crates/codec/tests/quant_accuracy.rs.
./target/release/t9_trilemma >/dev/null

echo "ci: all gates passed"
