//! The five serving workloads. Each is a closed loop with one client over a
//! `SemanticEdgeSystem` built from the seed; they differ in configuration,
//! in the call the client makes, and in what runs between calls.

use crate::measure::{closed_loop, median, peak_rss_mb, Fnv, LoopStats, Origin};
use crate::probes::{self, PROBE_S};
use crate::replay::{Replay, Stage};
use crate::spec;
use crate::{RunArgs, RunOutput};
use rand::rngs::StdRng;
use semcom::{MessageOutcome, SemanticEdgeSystem, SystemConfig, UserId};
use semcom_channel::adapt::AdaptSpec;
use semcom_channel::coding::ConvolutionalCode;
use semcom_channel::{ArqPipeline, AwgnChannel, BitPipeline, Modulation};
use semcom_codec::train::TrainConfig;
use semcom_codec::CodecConfig;
use semcom_fl::ArqLink;
use semcom_nn::rng::{derive_seed, seeded_rng, Zipf};
use semcom_obs::{MonotonicClock, Recorder};
use semcom_text::Domain;
use std::time::Instant;

/// Users of the steady and stream workloads (one batch = one message each).
const USERS: usize = 32;
/// Cold users of `kb_establish`.
const KB_USERS: usize = 96;
/// Messages between buffer drains / observability snapshots.
const HOUSEKEEPING_EVERY: u64 = 8192;
/// `kb_establish` migrates the sender every this many messages.
const MIGRATE_EVERY: u64 = 300;
/// Users that take turns migrating: the most popular Zipf ranks.
const MOVERS: u64 = 8;
/// Buffer capacity = threshold on the workloads that must never train: the
/// benchmark drains the buffers every `HOUSEKEEPING_EVERY` messages, long
/// before one fills, so resident memory does not grow with messages served.
const NEVER_TRAIN: usize = 16_384;

/// Calls in the fixed-count prefix, per workload (before `--quick`).
fn det_calls(workload: &str) -> u64 {
    match workload {
        spec::SERVE_STEADY | spec::SERVE_OBSERVED => 200_000,
        spec::SERVE_STREAM | spec::SERVE_STREAM_INT8 => 320,
        spec::KB_ESTABLISH => 8_000,
        other => unreachable!("{other} is not a serving workload"),
    }
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What the client calls.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Call {
    /// `send_message(users[i % USERS])`.
    RoundRobin,
    /// `send_stream(users)`.
    Stream,
    /// `send_message` of a Zipf-drawn user, with periodic migrations.
    Establish,
}

/// A built system plus everything the loop mutates.
struct Served {
    sys: SemanticEdgeSystem,
    users: Vec<UserId>,
    /// Seconds `SemanticEdgeSystem::build` took (cloud pre-training).
    pretrain_s: f64,
    call: Call,
    zipf: Zipf,
    rng: StdRng,
    link: ArqLink,
    /// Users of the call about to be made.
    current: Vec<UserId>,
    outcomes: Vec<MessageOutcome>,
    tally: Tally,
    /// Messages sent to the system so far, warm-up included.
    sent: u64,
    spans_dropped: u64,
    snapshot_us: Vec<f64>,
    stall_ms: Vec<f64>,
    migrate_ms: Vec<f64>,
    replay: Option<Replay>,
    open_trace: Option<(Option<semcom_obs::SpanContext>, u64, u64)>,
    origin: Origin,
}

/// Counters over the fixed-count prefix (they repeat exactly for a seed)
/// and failure counts over everything.
#[derive(Default)]
struct Tally {
    prefix_calls: u64,
    messages: u64,
    tokens: u64,
    correct: u64,
    symbols: u64,
    user_model: u64,
    wire_bytes: u64,
    trainings: u64,
    migrations: u64,
    digest: Fnv,
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, call: u64, expected: usize, outcomes: &[MessageOutcome]) {
        self.attempted += expected as u64;
        self.failed += expected.saturating_sub(outcomes.len()) as u64;
        let in_prefix = call < self.prefix_calls;
        for o in outcomes {
            if o.decoded.len() != o.sent.len() {
                self.failed += 1;
            }
            if !in_prefix {
                continue;
            }
            self.messages += 1;
            self.tokens += o.sent.len() as u64;
            self.correct += o
                .sent
                .iter()
                .zip(&o.decoded)
                .filter(|(a, b)| a == b)
                .count() as u64;
            self.symbols += o.symbols as u64;
            self.user_model += o.used_user_model as u64;
            self.wire_bytes += o.sync_bytes as u64;
            self.trainings += o.trained as u64;
            for c in &o.decoded {
                self.digest.push_u32(c.0);
            }
        }
    }
}

fn wide_codec() -> CodecConfig {
    CodecConfig {
        embed_dim: 128,
        feature_dim: 32,
        hidden_dim: 1024,
    }
}

fn config(workload: &str) -> SystemConfig {
    let base = SystemConfig::default();
    match workload {
        spec::SERVE_STEADY | spec::SERVE_OBSERVED => SystemConfig {
            buffer_capacity: NEVER_TRAIN,
            buffer_threshold: NEVER_TRAIN,
            ..base
        },
        spec::SERVE_STREAM | spec::SERVE_STREAM_INT8 => SystemConfig {
            codec: wide_codec(),
            pretrain: TrainConfig {
                epochs: 6,
                ..base.pretrain
            },
            pretrain_sentences: 150,
            n_edges: 3,
            adapt: Some(AdaptSpec::standard(wide_codec().feature_dim)),
            buffer_capacity: NEVER_TRAIN,
            buffer_threshold: NEVER_TRAIN,
            ..base
        },
        spec::KB_ESTABLISH => SystemConfig {
            n_edges: 3,
            user_cache_bytes: 2_000_000,
            ..base
        },
        other => unreachable!("{other} is not a serving workload"),
    }
}

/// The link migrations ride: stop-and-wait ARQ (8 attempts) over a
/// rate-1/2 convolutional code + QPSK on AWGN 10 dB.
fn migration_link() -> ArqLink {
    ArqLink::new(
        ArqPipeline::new(
            BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Qpsk),
            8,
        ),
        Box::new(AwgnChannel::new(10.0)),
    )
}

/// Builds the system, registers the users and warms it up: everything
/// before the first measured call.
fn setup(args: &RunArgs, origin: Origin) -> Served {
    let workload = args.workload;
    let t0 = Instant::now();
    let mut sys = SemanticEdgeSystem::build(config(workload), args.seed);
    let pretrain_s = t0.elapsed().as_secs_f64();
    let (call, users): (Call, Vec<UserId>) = match workload {
        spec::SERVE_STEADY | spec::SERVE_OBSERVED => (
            Call::RoundRobin,
            (0..USERS)
                .map(|i| sys.register_user(Domain::ALL[i % 4], 0.2 + 0.02 * i as f64))
                .collect(),
        ),
        spec::SERVE_STREAM | spec::SERVE_STREAM_INT8 => (
            Call::Stream,
            (0..USERS)
                .map(|i| {
                    sys.register_user_at(
                        Domain::ALL[i % 4],
                        0.2 + 0.02 * i as f64,
                        i % 3,
                        (i + 1) % 3,
                    )
                })
                .collect(),
        ),
        _ => (
            Call::Establish,
            (0..KB_USERS)
                .map(|i| {
                    let strength = 0.2 + 0.62 * i as f64 / (KB_USERS - 1) as f64;
                    sys.register_user_at(Domain::ALL[i % 4], strength, i % 2, 2)
                })
                .collect(),
        ),
    };
    if workload == spec::SERVE_STREAM_INT8 {
        sys.enable_quantized_serving();
    }
    if workload == spec::SERVE_OBSERVED {
        sys.attach_recorder(Recorder::new_traced(
            Box::new(MonotonicClock::new()),
            1024,
            1 << 16,
        ));
    }
    let mut served = Served {
        sys,
        users,
        pretrain_s,
        call,
        zipf: Zipf::new(KB_USERS, 0.9),
        rng: seeded_rng(derive_seed(args.seed, 0x21BF)),
        link: migration_link(),
        current: Vec::new(),
        outcomes: Vec::new(),
        tally: Tally::default(),
        sent: 0,
        spans_dropped: 0,
        snapshot_us: Vec::new(),
        stall_ms: Vec::new(),
        migrate_ms: Vec::new(),
        replay: None,
        open_trace: None,
        origin,
    };
    // Untimed warm-up: caches, selector context, lazily grown buffers. The
    // cold users of kb_establish are the workload, so it has none.
    let warm_calls = match call {
        Call::RoundRobin => args.scaled(2_000),
        Call::Stream => args.scaled(4),
        Call::Establish => 0,
    };
    for i in 0..warm_calls {
        pick_users(&mut served, i);
        make_call(&mut served);
    }
    housekeeping(&mut served);
    served
}

/// Chooses the users of call `i` (input generation, untimed).
fn pick_users(s: &mut Served, i: u64) {
    s.current.clear();
    match s.call {
        Call::RoundRobin => s.current.push(s.users[(i % USERS as u64) as usize]),
        Call::Stream => s.current.extend_from_slice(&s.users),
        Call::Establish => s.current.push(s.users[s.zipf.sample(&mut s.rng)]),
    }
}

/// The closed-loop call itself; returns messages served.
fn make_call(s: &mut Served) -> u64 {
    s.outcomes.clear();
    match s.call {
        Call::Stream => s.outcomes = s.sys.send_stream(&s.current),
        _ => s.outcomes.push(s.sys.send_message(s.current[0])),
    }
    s.sent += s.current.len() as u64;
    s.outcomes.len() as u64
}

/// Between-call upkeep that keeps the workload stationary: drain the
/// mismatch buffers of the never-training workloads, and on
/// `serve_observed` take the observability snapshot and reuse the trace
/// buffer.
fn housekeeping(s: &mut Served) {
    if s.call != Call::Establish {
        let cfg = s.sys.config();
        let (capacity, threshold) = (cfg.buffer_capacity, cfg.buffer_threshold);
        for &u in &s.users {
            let (home, _) = s.sys.user_edges(u);
            for d in Domain::ALL {
                if s.sys.edge(home).buffer(&(u, d)).is_some() {
                    s.sys
                        .edge_mut(home)
                        .buffer_mut((u, d), capacity, threshold)
                        .clear();
                }
            }
        }
    }
    if let Some(buffer) = s.sys.recorder().trace_buffer() {
        let t0 = Instant::now();
        std::hint::black_box(s.sys.observability_snapshot());
        s.snapshot_us.push(t0.elapsed().as_secs_f64() * 1e6);
        s.spans_dropped += buffer.dropped();
        buffer.clear();
    }
}

/// Runs the upkeep when the last `just_sent` messages crossed a multiple of
/// `HOUSEKEEPING_EVERY`.
fn housekeeping_if_due(s: &mut Served, just_sent: u64) {
    if s.sent / HOUSEKEEPING_EVERY != (s.sent - just_sent) / HOUSEKEEPING_EVERY {
        housekeeping(s);
    }
}

/// Output checks and upkeep after call `i` (untimed, inside the wall clock).
fn after_call(s: &mut Served, i: u64, ns: u64) {
    let Served {
        tally,
        outcomes,
        current,
        ..
    } = s;
    tally.add(i, current.len(), outcomes);
    housekeeping_if_due(s, s.current.len() as u64);
    if s.call != Call::Establish {
        return;
    }
    if s.outcomes.first().is_some_and(|o| o.trained) {
        s.stall_ms.push(ns as f64 / 1e6);
    }
    if (i + 1).is_multiple_of(MIGRATE_EVERY) {
        // The movers are the most active users in turn, not whoever sent
        // message i: they nearly always hold exactly one cached model, so a
        // handover costs the same from seed to seed.
        let user = s.users[((i / MIGRATE_EVERY) % MOVERS) as usize];
        let (home, _) = s.sys.user_edges(user);
        let t0 = Instant::now();
        let report = s.sys.migrate_user(user, 1 - home, &mut s.link);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if report.models_moved > 0 {
            s.migrate_ms.push(ms);
        }
        s.tally.attempted += 1;
        s.tally.failed += (report.models_dropped > 0) as u64;
        if i < s.tally.prefix_calls {
            s.tally.migrations += 1;
            s.tally.wire_bytes += report.transport.wire_bytes;
        }
    }
}

/// Runs the closed loop for `seconds` (and at least `min_calls` calls);
/// with a `Replay` attached every call is preceded by its staged replay.
fn drive(s: &mut Served, seconds: f64, min_calls: u64) -> LoopStats {
    closed_loop(
        s,
        seconds,
        min_calls,
        |s, i| {
            pick_users(s, i);
            if let Some(mut replay) = s.replay.take() {
                let (root, start) = replay.replay(&s.sys, &s.current, i);
                s.open_trace = Some((root, start, s.origin.ns()));
                s.replay = Some(replay);
            }
        },
        |s, _| make_call(s),
        |s, i, ns| {
            if let (Some(replay), Some((root, start, call_start))) =
                (s.replay.as_mut(), s.open_trace.take())
            {
                let name = if s.call == Call::Stream {
                    "core.send_stream"
                } else {
                    "core.send_message"
                };
                replay.close(root, start, name, call_start, ns);
            }
            after_call(s, i, ns);
        },
    )
}

/// Invariants that hold for any seed, checked after the measured phase.
fn check_invariants(s: &Served, problems: &mut Vec<String>) {
    let t = &s.tally;
    if t.failed > 0 {
        problems.push(format!("{} of {} operations failed", t.failed, t.attempted));
    }
    let counted = s.sys.metrics().messages;
    if counted != s.sent {
        problems.push(format!(
            "{} messages sent, the system counted {counted}",
            s.sent
        ));
    }
    if s.spans_dropped > 0 {
        problems.push(format!("{} trace spans dropped", s.spans_dropped));
    }
    let kb_bytes = s.sys.edge(0).general_kb(Domain::It).size_bytes();
    for e in 0..s.sys.edge_count() {
        let used = s.sys.edge(e).cached_user_models() * kb_bytes;
        if used > s.sys.config().user_cache_bytes {
            problems.push(format!(
                "edge {e} caches {used} B of user models, over capacity"
            ));
        }
    }
    let accuracy = t.correct as f64 / t.tokens.max(1) as f64;
    if accuracy < 0.5 {
        problems.push(format!(
            "token accuracy {accuracy:.3} is below any plausible value"
        ));
    }
}

/// The deterministic outputs of the prefix, by pinned name.
fn pinned(s: &Served, out: &mut RunOutput) {
    let t = &s.tally;
    let msgs = t.messages.max(1) as f64;
    out.pin("token_accuracy", t.correct as f64 / t.tokens.max(1) as f64);
    out.pin("symbols_per_msg", t.symbols as f64 / msgs);
    out.pin_text("decoded_digest", format!("{:016x}", t.digest.0));
    if s.call == Call::Establish {
        out.pin("user_model_share", t.user_model as f64 / msgs);
        out.pin("sync_bytes_per_msg", t.wire_bytes as f64 / msgs);
        out.pin("core.trainings", t.trainings as f64);
        out.pin("core.migrations", t.migrations as f64);
    }
}

/// One run of a serving workload.
pub fn run(args: &RunArgs) -> RunOutput {
    let origin = Origin::now();
    let mut out = RunOutput::default();
    // An end-to-end run sets up three times and reports the median; the
    // traced pass and the self-test set up once.
    let setups = if args.trace || args.quick { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut served = None;
    for _ in 0..setups {
        drop(served.take());
        let t0 = Instant::now();
        served = Some(setup(args, origin));
        times.push(t0.elapsed().as_secs_f64());
    }
    let mut served = served.expect("at least one set-up");
    let prefix = args.scaled(det_calls(args.workload));
    served.tally.prefix_calls = prefix;
    if args.trace {
        traced(args, &mut served, &mut out);
    } else {
        let stats = drive(&mut served, args.seconds, prefix);
        out.metric(spec::SETUP_S, median(&times));
        out.metric(spec::MSGS_PER_S, stats.msgs_per_s);
        out.metric(spec::CALL_P50, stats.p50_us);
        out.metric(spec::PEAK_RSS, peak_rss_mb());
    }
    check_invariants(&served, &mut out.problems);
    pinned(&served, &mut out);
    out.attempted = served.tally.attempted;
    out.failed = served.tally.failed;
    out
}

/// The traced pass: an untraced phase (which also covers the fixed-count
/// prefix), a phase with the staged replay before every call, then the
/// probes of the layers this workload exercises.
fn traced(args: &RunArgs, s: &mut Served, out: &mut RunOutput) {
    let w = args.workload;
    let seconds = args.seconds;
    let stream = s.call == Call::Stream;
    let per_call = if stream { USERS as f64 } else { 1.0 };

    let plain = drive(s, 0.3 * seconds, s.tally.prefix_calls);
    // The prefix is complete: later phases restart their call index at 0 and
    // must not be counted into it again.
    s.tally.prefix_calls = 0;
    s.replay = Some(Replay::new(&s.sys, &s.users, args.seed, s.origin));
    let with_replay = drive(s, 0.35 * seconds, 1);
    let replay = s.replay.take().expect("attached above");

    // Stage means per message; encode on the stream workloads is per packed
    // batch, as the metric names say.
    let us = |stage: Stage| replay.stage_mean_s(stage) * 1e6;
    out.metric("text.compose_us", us(Stage::Compose));
    out.metric("select.select_us", us(Stage::Select));
    out.metric(
        "select.accuracy",
        replay.selection_correct as f64 / replay.messages.max(1) as f64,
    );
    out.metric("cache.lookup_ns", us(Stage::Lookup) * 1e3);
    out.metric("fl.buffer_push_us", us(Stage::BufferPush));
    let (encode, decode, channel) = match w {
        spec::SERVE_STREAM => (
            "codec.encode_batch32_wide_us",
            "codec.decode_wide_us",
            "channel.adaptive_transmit_us",
        ),
        spec::SERVE_STREAM_INT8 => (
            "codec.encode_int8_batch32_wide_us",
            "codec.decode_int8_wide_us",
            "channel.adaptive_transmit_us",
        ),
        _ => (
            "codec.encode_us",
            "codec.decode_us",
            "channel.f32_transmit_us",
        ),
    };
    let encode_us = if stream {
        replay.stage_total_s(Stage::Encode) * 1e6 / (replay.messages as f64 / per_call)
    } else {
        us(Stage::Encode)
    };
    out.metric(encode, encode_us);
    out.metric(decode, us(Stage::Decode));
    out.metric(channel, us(Stage::Channel));
    if stream {
        out.metric("channel.link_step_ns", us(Stage::LinkStep) * 1e3);
    }

    // The budget: real call vs the sum of its stages, per message.
    let msg_us = with_replay.mean_us / per_call;
    let mut stage_sum_us = replay.stage_sum_per_message_s() * 1e6;
    let kb = s.sys.edge(0).general_kb(Domain::It);
    let kb_bytes = kb.size_bytes();
    if w == spec::KB_ESTABLISH {
        let ts = probes::train_and_sync(&s.sys, args.seed);
        let insert_us = probes::cache_insert_evict_us(kb_bytes);
        let (bitpipe, attempts) = probes::coded_phy(args.seed);
        let m = s.sys.metrics();
        let trained_share = m.trainings as f64 / m.messages.max(1) as f64;
        stage_sum_us += trained_share
            * (ts.train_round_ms * 1e3 + ts.frame_build_us + ts.frame_apply_us + insert_us);
        out.metric("codec.train_round_ms", ts.train_round_ms);
        out.metric("fl.frame_build_us", ts.frame_build_us);
        out.metric("fl.frame_apply_us", ts.frame_apply_us);
        out.metric("cache.insert_evict_us", insert_us);
        out.metric("channel.bitpipe_us_per_kb", bitpipe);
        out.metric("channel.arq_attempts_per_frame", attempts);
        out.metric("fl.migrate_ms", median_or_zero(&s.migrate_ms));
        out.metric("train_stall_p50_ms", median_or_zero(&s.stall_ms));
        out.metric(
            "fl.sync_bytes_per_round",
            m.sync_bytes as f64 / m.trainings.max(1) as f64,
        );
        out.metric("fl.sync_rejected", m.sync_rejected as f64);
        out.metric("fl.resyncs", m.sync_resyncs as f64);
        out.metric("cache.hit_ratio", m.user_cache.hit_rate());
        out.metric("cache.evictions", m.user_cache.evictions as f64);
        let t = &s.tally;
        out.metric(
            "user_model_share",
            t.user_model as f64 / t.messages.max(1) as f64,
        );
        out.metric(
            "sync_bytes_per_msg",
            t.wire_bytes as f64 / t.messages.max(1) as f64,
        );
        out.metric("core.trainings", t.trainings as f64);
        out.metric("core.migrations", t.migrations as f64);
    }
    out.metric("core.msg_us", msg_us);
    out.metric("core.stage_sum_us", stage_sum_us);
    out.metric("core.glue_us", msg_us - stage_sum_us);
    out.metric("core.layer_sum_ratio", stage_sum_us / msg_us);
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (with_replay.mean_us - plain.mean_us) / plain.mean_us,
    );
    out.metric("bench.window_spread_pct", plain.window_spread_pct);
    out.metric("call_latency_p95_us", plain.p95_us);
    if stream {
        out.metric("batch_latency_p99_ms", plain.p99_us / 1e3);
    } else {
        out.metric("core.msg_p99_us", plain.p99_us);
    }
    let t = &s.tally;
    out.metric("token_accuracy", t.correct as f64 / t.tokens.max(1) as f64);
    out.metric(
        "symbols_per_msg",
        t.symbols as f64 / t.messages.max(1) as f64,
    );
    out.metric("codec.pretrain_s", s.pretrain_s);
    out.metric("codec.kb_bytes", kb_bytes as f64);
    out.metric("par.workers", semcom_par::max_workers() as f64);

    // Probes of the layers this workload exercises.
    match w {
        spec::SERVE_STREAM => {
            out.metric("nn.matmul_gflops_wide", probes::matmul_gflops(kb, PROBE_S))
        }
        spec::SERVE_STREAM_INT8 => {
            out.metric("nn.qmatmul_gops_wide", probes::qmatmul_gops(kb, PROBE_S));
            out.metric("codec.quantize_ms", replay.quantize_s * 1e3);
        }
        _ => out.metric(
            "nn.matmul_gflops_default",
            probes::matmul_gflops(kb, PROBE_S),
        ),
    }
    if stream {
        out.metric("par.spsc_handoff_ns", probes::spsc_handoff_ns());
        out.metric(
            "par.pipeline_item_overhead_us",
            probes::pipeline_item_overhead_us(),
        );
        out.metric(
            "core.stream_vs_seq_ratio",
            stream_vs_sequential(s, 0.15 * seconds),
        );
    }
    if w == spec::SERVE_OBSERVED {
        let (span, trace, add) = probes::obs_call_costs_ns();
        out.metric("obs.span_ns", span);
        out.metric("obs.trace_span_ns", trace);
        out.metric("obs.counter_add_ns", add);
        out.metric("obs.snapshot_us", median_or_zero(&s.snapshot_us));
        out.metric(
            "obs.tax_us_per_msg",
            observability_tax_us(s, 0.15 * seconds),
        );
        out.metric("obs.spans_dropped", s.spans_dropped as f64);
    }

    match crate::write_trace(w, &replay.trace) {
        Ok(path) => eprintln!("trace: {} spans -> {}", replay.trace.len(), path.display()),
        Err(e) => out.problems.push(e),
    }
    if replay.trace.dropped() > 0 {
        out.problems.push(format!(
            "{} benchmark spans dropped",
            replay.trace.dropped()
        ));
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Alternates short segments of two ways of serving on the same system and
/// returns each side's µs per message (median segment): `(a, b)`.
fn alternate(
    s: &mut Served,
    seconds: f64,
    mut a: impl FnMut(&mut Served) -> u64,
    mut b: impl FnMut(&mut Served) -> u64,
) -> (f64, f64) {
    const SEGMENTS: usize = 8;
    let segment_s = seconds / (2 * SEGMENTS) as f64;
    let mut per_msg = [Vec::new(), Vec::new()];
    for seg in 0..2 * SEGMENTS {
        let side = seg % 2;
        let t0 = Instant::now();
        let mut msgs = 0u64;
        while t0.elapsed().as_secs_f64() < segment_s {
            let n = if side == 0 { a(s) } else { b(s) };
            msgs += n;
            s.sent += n;
            housekeeping_if_due(s, n);
        }
        per_msg[side].push(t0.elapsed().as_secs_f64() * 1e6 / msgs as f64);
    }
    (median(&per_msg[0]), median(&per_msg[1]))
}

/// `send_stream` msgs/s ÷ sequential `send_message` msgs/s on the stream
/// workload's own batch.
fn stream_vs_sequential(s: &mut Served, seconds: f64) -> f64 {
    pick_users(s, 0);
    let (stream_us, seq_us) = alternate(
        s,
        seconds,
        |s| s.sys.send_stream(&s.current).len() as u64,
        |s| {
            for i in 0..s.current.len() {
                std::hint::black_box(s.sys.send_message(s.current[i]));
            }
            s.current.len() as u64
        },
    );
    seq_us / stream_us
}

/// Mean µs per message with the traced recorder attached minus the same
/// system with it detached: what observability costs a served message.
fn observability_tax_us(s: &mut Served, seconds: f64) -> f64 {
    let recorder = s.sys.recorder().clone();
    let send = |s: &mut Served| {
        let user = s.users[(s.sent % USERS as u64) as usize];
        std::hint::black_box(s.sys.send_message(user));
        1
    };
    let (attached_us, detached_us) = alternate(
        s,
        seconds,
        |s| {
            if !s.sys.recorder().is_enabled() {
                s.sys.attach_recorder(recorder.clone());
            }
            send(s)
        },
        |s| {
            if s.sys.recorder().is_enabled() {
                s.sys.attach_recorder(Recorder::disabled());
            }
            send(s)
        },
    );
    s.sys.attach_recorder(recorder);
    attached_us - detached_us
}
