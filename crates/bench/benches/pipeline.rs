//! Criterion benchmarks for `send_stream` (PR 7 routine names, so old
//! records stay comparable; the numbers of record are the `serve_stream`
//! rows of `benchmark/`).
//!
//! 1. `pipeline/send_stream_1worker` against
//!    `pipeline/sequential_send_message`: what window-wide encode/decode
//!    packing alone is worth, on one thread.
//! 2. `pipeline/send_stream_4workers`: the same trace with windows fanned
//!    out over four workers — a gain only where there are cores to run
//!    them.
//!
//! Training is disabled (threshold above buffer capacity) so every
//! iteration serves a stationary workload: no mid-trace training rounds,
//! whose cost would otherwise swamp the per-message numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use semcom::{ChannelModel, SemanticEdgeSystem, SystemConfig, UserId};
use semcom_codec::CodecConfig;
use semcom_text::Domain;

/// Messages per measured iteration.
const TRACE_LEN: usize = 64;

fn build() -> (SemanticEdgeSystem, Vec<UserId>) {
    let mut config = SystemConfig::tiny();
    config.n_edges = 3;
    config.channel = ChannelModel::Awgn { snr_db: 10.0 };
    // A deliberately beefy codec over the tiny language: the serving-side
    // encode/decode cost is what the workers share, so give it real work
    // per message. Pretraining accuracy is irrelevant to throughput,
    // so keep its epochs low and system builds fast.
    config.codec = CodecConfig {
        embed_dim: 256,
        feature_dim: 64,
        hidden_dim: 3072,
    };
    config.pretrain.epochs = 2;
    config.pretrain_sentences = 30;
    // Never reaches the threshold: no training rounds mid-bench.
    config.buffer_capacity = 1_000_000;
    config.buffer_threshold = 1_000_000;
    let mut system = SemanticEdgeSystem::build(config, 7);
    let users = (0..8)
        .map(|i| {
            system.register_user_at(
                Domain::ALL[i % Domain::ALL.len()],
                0.3 + 0.08 * i as f64,
                i % 3,
                (i + 1) % 3,
            )
        })
        .collect();
    (system, users)
}

fn trace(users: &[UserId]) -> Vec<UserId> {
    (0..TRACE_LEN)
        .map(|i| users[(i * 3 + 1) % users.len()])
        .collect()
}

fn bench_cpu_paths(c: &mut Criterion) {
    let (mut seq, users) = build();
    let order = trace(&users);
    c.bench_function("pipeline/sequential_send_message", |b| {
        b.iter(|| {
            for &u in &order {
                std::hint::black_box(seq.send_message(u));
            }
        })
    });

    let (mut stream1, users) = build();
    let order = trace(&users);
    semcom_par::set_workers(1);
    c.bench_function("pipeline/send_stream_1worker", |b| {
        b.iter(|| std::hint::black_box(stream1.send_stream(&order)))
    });

    let (mut stream4, users) = build();
    let order = trace(&users);
    semcom_par::set_workers(4);
    c.bench_function("pipeline/send_stream_4workers", |b| {
        b.iter(|| std::hint::black_box(stream4.send_stream(&order)))
    });
    semcom_par::reset_workers();
}

criterion_group!(benches, bench_cpu_paths);
criterion_main!(benches);
