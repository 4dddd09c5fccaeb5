//! Criterion microbenchmarks for the observability layer.
//!
//! Two questions are answered here, pinned by `BENCH_pr5.json`:
//!
//! 1. What does a single recorder operation cost? (`obs/span_*`,
//!    `obs/hist_record`)
//! 2. What overhead does an *enabled* recorder add to the real
//!    instrumented hot paths? The `obs/packed_transmit_*` and
//!    `obs/sync_round_*` pairs run the identical workload with the
//!    recorder disabled vs enabled; the delta is the instrumentation tax
//!    (required ≤ 5%).
//!
//! PR 10 extends the second question to causal tracing, pinned by
//! `BENCH_pr10.json`: `obs/trace_span_*` prices one `trace_span` call
//! with and without a buffer attached, and the `obs/send_message_*` pair
//! serves the identical message sequence with tracing off vs on — that
//! delta is the tracing tax (required ≤ 3%; the untraced call site being
//! a single branch is pinned by `tests/zero_alloc.rs`).

use criterion::{criterion_group, criterion_main, Criterion};
use semcom_channel::coding::HammingCode74;
use semcom_channel::{AwgnChannel, BitPipeline, BitVec, Modulation, TransmitScratch};
use semcom_fl::{
    run_sync_round, SyncProtocol, SyncReceiver, SyncSender, TransportConfig, TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_obs::{Histogram, Recorder, Stage};

fn bench_primitives(c: &mut Criterion) {
    let disabled = Recorder::disabled();
    c.bench_function("obs/span_disabled", |b| {
        b.iter(|| disabled.span(std::hint::black_box(Stage::Encode)))
    });
    let ticks = Recorder::with_ticks();
    c.bench_function("obs/span_tick_clock", |b| {
        b.iter(|| ticks.span(std::hint::black_box(Stage::Encode)))
    });
    let wall = Recorder::with_wall_clock();
    c.bench_function("obs/span_wall_clock", |b| {
        b.iter(|| wall.span(std::hint::black_box(Stage::Encode)))
    });
    let hist = Histogram::new();
    let mut v = 0u64;
    c.bench_function("obs/hist_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(std::hint::black_box(v >> 40));
        })
    });
}

fn bench_instrumented_transmit(c: &mut Criterion) {
    // 4096 information bits, Hamming(7,4) + 16-QAM over AWGN: the workload
    // the zero-alloc test pins, with and without an enabled recorder.
    let bits: Vec<u8> = (0..4096).map(|i| ((i * 7) % 2) as u8).collect();
    let packed = BitVec::from_u8_bits(&bits);
    let ch = AwgnChannel::new(8.0);

    let plain = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16);
    let mut scratch = TransmitScratch::new();
    let mut rng = seeded_rng(2);
    c.bench_function("obs/packed_transmit_4k_disabled", |b| {
        b.iter(|| {
            plain
                .transmit_packed(std::hint::black_box(&packed), &ch, &mut rng, &mut scratch)
                .len()
        })
    });

    let observed = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16)
        .with_recorder(Recorder::with_wall_clock());
    let mut scratch = TransmitScratch::new();
    let mut rng = seeded_rng(2);
    c.bench_function("obs/packed_transmit_4k_enabled", |b| {
        b.iter(|| {
            observed
                .transmit_packed(std::hint::black_box(&packed), &ch, &mut rng, &mut scratch)
                .len()
        })
    });
}

fn sync_fixture(n: usize) -> (ParamVec, ParamVec) {
    let before = ParamVec::from_parts(
        vec![(1, n)],
        (0..n).map(|i| (i as f32 * 0.37).sin()).collect(),
    )
    .expect("consistent layout");
    let after = ParamVec::from_parts(
        vec![(1, n)],
        (0..n)
            .map(|i| (i as f32 * 0.37).sin() + 0.01 * ((i % 13) as f32))
            .collect(),
    )
    .expect("consistent layout");
    (before, after)
}

fn bench_instrumented_sync(c: &mut Criterion) {
    let (before, after) = sync_fixture(12_000);
    for (tag, rec) in [
        ("disabled", Recorder::disabled()),
        ("enabled", Recorder::with_wall_clock()),
    ] {
        let mut rng = seeded_rng(3);
        let cfg = TransportConfig::default();
        c.bench_function(&format!("obs/sync_round_12k_{tag}"), |b| {
            b.iter(|| {
                // A fresh session per iteration keeps every round identical
                // (the receiver actually commits the delta each time).
                let mut sender = SyncSender::new(SyncProtocol::DenseDelta, before.clone());
                let mut receiver = SyncReceiver::new();
                let mut params = before.clone();
                let mut stats = TransportStats::default();
                run_sync_round(
                    &mut sender,
                    &mut receiver,
                    &mut params,
                    std::hint::black_box(&after),
                    &mut semcom_fl::PerfectLink,
                    &mut rng,
                    &cfg,
                    &mut stats,
                    &rec,
                    0,
                    None,
                )
            })
        });
    }
}

fn bench_tracing(c: &mut Criterion) {
    use semcom::{ChannelModel, SemanticEdgeSystem, SystemConfig};
    use semcom_obs::{SpanContext, TraceSpan};
    use semcom_text::Domain;

    // Primitive: one trace_span call site. Without a buffer attached it
    // is a single branch; with one it is a short mutex lock plus a push
    // into reserved storage (the bounded buffer is cleared periodically
    // so the loop never hits the drop path).
    let ctx = SpanContext::root(1);
    let span = TraceSpan::new(ctx.child(0), Some(ctx.span), "semantic_encode", 10, 5);
    let untraced = Recorder::with_ticks();
    c.bench_function("obs/trace_span_untraced", |b| {
        b.iter(|| untraced.trace_span(std::hint::black_box(span)))
    });
    let traced = Recorder::with_ticks_and_trace();
    let buf = traced.trace_buffer().expect("traced recorder has a buffer");
    let mut recorded = 0usize;
    c.bench_function("obs/trace_span_traced", |b| {
        b.iter(|| {
            recorded += 1;
            if recorded >= buf.capacity() {
                buf.clear();
                recorded = 0;
            }
            traced.trace_span(std::hint::black_box(span));
        })
    });

    // End to end: the full served message under an enabled recorder with
    // tracing off vs on — the PR 10 ≤3% tracing-tax gate. The workload is
    // identical either way; only the recorder differs.
    for (tag, rec) in [
        ("untraced", Recorder::with_ticks()),
        ("traced", Recorder::with_ticks_and_trace()),
    ] {
        let mut config = SystemConfig::tiny();
        config.channel = ChannelModel::Awgn { snr_db: 9.0 };
        let mut system = SemanticEdgeSystem::build(config, 77);
        system.attach_recorder(rec.clone());
        let user = system.register_user(Domain::It, 1.5);
        let buf = rec.trace_buffer();
        let mut served = 0usize;
        c.bench_function(&format!("obs/send_message_{tag}"), |b| {
            b.iter(|| {
                if let Some(buf) = &buf {
                    // ~6 spans/message worst case; stay inside the
                    // 65 536-span buffer so nothing is ever dropped.
                    served += 1;
                    if served >= 8_192 {
                        buf.clear();
                        served = 0;
                    }
                }
                system.send_message(std::hint::black_box(user))
            })
        });
    }
}

criterion_group!(
    benches,
    bench_primitives,
    bench_instrumented_transmit,
    bench_instrumented_sync,
    bench_tracing
);
criterion_main!(benches);
