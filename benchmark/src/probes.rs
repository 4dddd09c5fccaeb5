//! Layer probes: each times one crate's **public** function from outside,
//! for a fixed small budget, at the shapes the workload uses. A workload's
//! traced pass runs only the probes of layers it exercises.

use crate::measure::time_per_call;
use rand::RngCore;
use semcom::SemanticEdgeSystem;
use semcom_cache::policy::{Lru, SemanticCost};
use semcom_cache::workload::Workload;
use semcom_cache::ModelCache;
use semcom_channel::adapt::{AdaptSpec, LinkState};
use semcom_channel::coding::ConvolutionalCode;
use semcom_channel::{ArqPipeline, AwgnChannel, BitPipeline, BitVec, Modulation, TransmitScratch};
use semcom_codec::train::Trainer;
use semcom_codec::KnowledgeBase;
use semcom_fl::{SyncReceiver, SyncSender, SyncVerdict};
use semcom_nn::params::ParamVec;
use semcom_nn::quant::{QuantScratch, QuantizedLinear};
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use semcom_obs::{MonotonicClock, Recorder, SpanContext, Stage, TraceSpan};
use semcom_par::spsc;
use semcom_par::Pipeline;
use semcom_text::{Domain, Rendering};
use std::hint::black_box;

/// Seconds each probe measures for.
pub const PROBE_S: f64 = 0.06;

/// Token rows the matmul probes use: a typical message length.
const MSG_ROWS: usize = 10;

fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols)
        .map(|_| (rng.next_u32() as f32 / u32::MAX as f32) - 0.5)
        .collect();
    Tensor::from_vec(rows, cols, data).expect("shape matches data")
}

/// `Tensor::matmul_into` at the decoder's two shapes for one message
/// (`[rows, feature]·[feature, hidden]` then `[rows, hidden]·[hidden,
/// concepts]`), in GFLOP/s. FLOPs are computed from the shapes
/// (2·m·k·n per product), not measured.
pub fn matmul_gflops(kb: &KnowledgeBase, budget_s: f64) -> f64 {
    let (f, h) = (kb.config().feature_dim, kb.config().hidden_dim);
    let c = kb.decoder.concept_count();
    let x = pseudo(MSG_ROWS, f, 1);
    let (w1, w2) = (kb.decoder.l1().weight(), kb.decoder.l2().weight());
    let mut hid = Tensor::zeros(MSG_ROWS, h);
    let mut out = Tensor::zeros(MSG_ROWS, c);
    let s = time_per_call(budget_s, 8, || {
        x.matmul_into(w1, &mut hid);
        hid.matmul_into(w2, &mut out);
        black_box(&out);
    });
    2.0 * (MSG_ROWS * (f * h + h * c)) as f64 / s / 1e9
}

/// The same two products through `QuantizedLinear::forward_into` (int8
/// weights, per-row dynamic activations), in GOP/s computed from shapes.
pub fn qmatmul_gops(kb: &KnowledgeBase, budget_s: f64) -> f64 {
    let (f, h) = (kb.config().feature_dim, kb.config().hidden_dim);
    let c = kb.decoder.concept_count();
    let q1 = QuantizedLinear::from_linear(kb.decoder.l1());
    let q2 = QuantizedLinear::from_linear(kb.decoder.l2());
    let x = pseudo(MSG_ROWS, f, 1);
    let mut scratch = QuantScratch::new();
    let (mut hid, mut out) = (Vec::new(), Vec::new());
    let s = time_per_call(budget_s, 8, || {
        q1.forward_into(x.as_slice(), MSG_ROWS, &mut scratch, &mut hid);
        q2.forward_into(&hid, MSG_ROWS, &mut scratch, &mut out);
        black_box(&out);
    });
    2.0 * (MSG_ROWS * (f * h + h * c)) as f64 / s / 1e9
}

/// Push plus pop of one item across two threads on a bounded SPSC ring, ns.
pub fn spsc_handoff_ns() -> f64 {
    const ITEMS: u64 = 200_000;
    let (mut tx, mut rx) = spsc::channel::<u64>(256);
    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for i in 0..ITEMS {
                if tx.push(i).is_err() {
                    break;
                }
            }
        });
        let mut sum = 0u64;
        while let Some(v) = rx.pop() {
            sum += v;
        }
        black_box(sum);
    });
    t0.elapsed().as_secs_f64() * 1e9 / ITEMS as f64
}

/// Wall time per item through a four-stage `Pipeline` of no-op stages, µs:
/// what the staging itself costs a message.
pub fn pipeline_item_overhead_us() -> f64 {
    const ITEMS: u64 = 50_000;
    const IN_FLIGHT: u64 = 32;
    let t0 = std::time::Instant::now();
    Pipeline::<u64>::new(64)
        .stage(|x| x)
        .stage(|x| x)
        .stage(|x| x)
        .stage(|x| x)
        .run(|mut tx, mut rx| {
            let mut sum = 0u64;
            for i in 0..ITEMS {
                if i >= IN_FLIGHT {
                    sum += rx.pop().expect("one item out per item in");
                }
                tx.push(i)
                    .unwrap_or_else(|_| panic!("pipeline closed early"));
            }
            drop(tx);
            while let Some(v) = rx.pop() {
                sum += v;
            }
            black_box(sum);
        });
    t0.elapsed().as_secs_f64() * 1e6 / ITEMS as f64
}

/// Per-call costs of an enabled wall-clock recorder: a stage span (ns), a
/// causal trace span into the preallocated buffer (ns), `Recorder::add` by
/// name (ns).
pub fn obs_call_costs_ns() -> (f64, f64, f64) {
    let rec = Recorder::new_traced(Box::new(MonotonicClock::new()), 1024, 1 << 16);
    let span = time_per_call(PROBE_S, 1000, || {
        rec.span(Stage::Message).finish();
    });
    let buffer = rec.trace_buffer().expect("traced recorder");
    let root = SpanContext::root(1);
    let mut n = 0u64;
    let trace = time_per_call(PROBE_S, 1000, || {
        rec.trace_span(TraceSpan::new(
            root.child(n),
            Some(root.span),
            "probe",
            n,
            1,
        ));
        n += 1;
        if n.is_multiple_of(32_768) {
            buffer.clear();
        }
    });
    let add = time_per_call(PROBE_S, 1000, || rec.add("probe_counter", 1));
    (span * 1e9, trace * 1e9, add * 1e9)
}

/// Insert into a full cost-aware cache (every insert evicts), µs.
pub fn cache_insert_evict_us(kb_bytes: usize) -> f64 {
    let mut cache: ModelCache<u64, ()> =
        ModelCache::new(kb_bytes * 20, Box::new(SemanticCost::new()));
    let mut key = 0u64;
    for _ in 0..20 {
        cache.insert(key, (), kb_bytes, 0.72);
        key += 1;
    }
    let s = time_per_call(PROBE_S, 1000, || {
        black_box(cache.insert(key, (), kb_bytes, 0.72));
        key += 1;
    });
    assert!(
        cache.stats().evictions > 0,
        "the probe cache must be evicting"
    );
    s * 1e6
}

/// `Workload::replay_trace` over a Zipf(0.9) universe the size of the
/// fleet's, LRU, in million requests per second.
pub fn cache_replay_mreq_per_s(n_domains: usize, n_users: usize, seed: u64) -> f64 {
    const REQUESTS: usize = 300_000;
    let workload = Workload::standard(n_domains, n_users, 0.9);
    let trace = workload.draw_trace(REQUESTS, &mut seeded_rng(derive_seed(seed, 0xCAC4E)));
    let t0 = std::time::Instant::now();
    black_box(Workload::replay_trace(200_000_000, Lru::new(), &trace));
    REQUESTS as f64 / t0.elapsed().as_secs_f64() / 1e6
}

/// `LinkState::step` (Markov SNR draw, EWMA estimate, hysteresis policy), ns.
pub fn link_step_ns(spec: &AdaptSpec, seed: u64) -> f64 {
    let mut link = LinkState::new(spec, derive_seed(seed, 0x11E4));
    time_per_call(PROBE_S, 1000, || {
        black_box(link.step());
    }) * 1e9
}

/// The coded bit-level PHY the migration link uses: rate-1/2 convolutional
/// code + QPSK over AWGN 10 dB. Returns `BitPipeline::transmit_packed` µs
/// per KB of payload and ARQ attempts per delivered 1 KB frame.
pub fn coded_phy(seed: u64) -> (f64, f64) {
    let mut rng = seeded_rng(derive_seed(seed, 0xB17));
    let channel = AwgnChannel::new(10.0);
    let mut payload = BitVec::new();
    for _ in 0..128 {
        payload.push_bits(rng.next_u64(), 64);
    }
    let pipe = BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Qpsk);
    let mut scratch = TransmitScratch::new();
    let us_per_kb = time_per_call(PROBE_S, 4, || {
        black_box(pipe.transmit_packed(&payload, &channel, &mut rng, &mut scratch));
    }) * 1e6;

    let arq = ArqPipeline::new(
        BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Qpsk),
        8,
    );
    let bits = payload.to_u8_bits();
    let (mut attempts, mut delivered) = (0u64, 0u64);
    time_per_call(PROBE_S, 4, || {
        let out = arq.transmit(&bits, &channel, &mut rng);
        attempts += out.attempts as u64;
        delivered += out.delivered as u64;
    });
    (us_per_kb, attempts as f64 / delivered.max(1) as f64)
}

/// What one KB-establishment round costs, layer by layer.
pub struct TrainSync {
    /// `Trainer::fit_pairs` on one buffer-threshold's worth of pairs, ms.
    pub train_round_ms: f64,
    /// `SyncSender::next_frame` + `SyncFrame::to_bytes`, µs.
    pub frame_build_us: f64,
    /// `SyncReceiver::receive`, µs.
    pub frame_apply_us: f64,
}

/// Derives a user model from the general `It` KB, fine-tunes it on
/// `buffer_threshold` pairs drawn from the language (as `train_and_sync`
/// does from a full buffer), then builds and applies the decoder-sync frame.
pub fn train_and_sync(sys: &SemanticEdgeSystem, seed: u64) -> TrainSync {
    let cfg = sys.config();
    let general = sys.edge(0).general_kb(Domain::It);
    let mut gen = semcom_text::CorpusGenerator::new(sys.language(), derive_seed(seed, 0x7A1));
    let mut pairs = Vec::new();
    while pairs.len() < cfg.buffer_threshold {
        let s = gen.sentence(Domain::It, Rendering::Mixed(0.15));
        pairs.extend(
            s.tokens
                .iter()
                .zip(&s.concepts)
                .map(|(&t, c)| (t, c.index())),
        );
    }
    pairs.truncate(cfg.buffer_threshold);

    let mut baseline_kb = general.derive_user_model(1, Domain::It);
    let baseline = ParamVec::values_of(&baseline_kb.decoder.params_mut());
    let mut trained = general.derive_user_model(1, Domain::It);
    let mut round = 0u64;
    let train_s = time_per_call(PROBE_S * 2.0, 3, || {
        trained = general.derive_user_model(1, Domain::It);
        Trainer::new(cfg.finetune).fit_pairs(&mut trained, &pairs, derive_seed(seed, round));
        round += 1;
    });
    let after = ParamVec::values_of(&trained.decoder.params_mut());

    let mut bytes = Vec::new();
    let build_s = time_per_call(PROBE_S, 8, || {
        let mut sender = SyncSender::new(cfg.sync_protocol, baseline.clone());
        bytes = sender.next_frame(&after).to_bytes();
    });
    // Cloning the baseline is part of neither call; time it alone and take
    // it off both.
    let clone_s = time_per_call(PROBE_S / 2.0, 8, || {
        black_box(baseline.clone());
    });
    let apply_s = time_per_call(PROBE_S, 8, || {
        let mut params = baseline.clone();
        let verdict = SyncReceiver::new().receive(&bytes, &mut params);
        assert!(
            matches!(verdict, SyncVerdict::Applied { .. }),
            "a fresh receiver applies the first frame"
        );
    });
    TrainSync {
        train_round_ms: train_s * 1e3,
        frame_build_us: (build_s - clone_s).max(0.0) * 1e6,
        frame_apply_us: (apply_s - clone_s).max(0.0) * 1e6,
    }
}
