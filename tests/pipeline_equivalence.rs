//! Property test pinning the PR 7 determinism contract: window-parallel
//! serving ([`SemanticEdgeSystem::send_stream`]) is **bit-identical** to
//! the equivalent sequence of `send_message` calls — outcomes and system
//! metrics — at every worker count, over randomized user mixes, idiolect
//! strengths, edge placements, SNRs, serving modes, and training-trigger
//! schedules. A second assertion pins the observability side: the
//! deterministic snapshot export of a streamed run must be byte-identical
//! at 1, 2, 3 and 4 workers (the property the T10 golden relies on).
//!
//! The window cap is `encode_batch_size × workers` (4, 8, 12, 16 for the
//! tiny config), so with up to 10 users one random trace closes windows on
//! a repeated user, on a predicted training round and on the cap, at
//! different tickets for every worker count; 3 workers split a window into
//! uneven chunks. The tiny codec never reaches `semcom_nn::PAR_WORK`, so
//! those runs are inline; `fanned_out_windows_match_sequential` widens the
//! decoder until windows really are served on spawned workers.
//!
//! Cases are drawn through the vendored `proptest` strategies but driven
//! by an explicit bounded loop: each case builds five full systems (one
//! sequential reference + four streamed runs), so the stock 96-case
//! schedule would dominate the suite's runtime.
//!
//! The worker count is a process-global (`semcom_par::set_workers`), so
//! every case runs under one mutex; this file is its own test binary, so
//! no other tests race it.

use proptest::collection::vec;
use proptest::{Strategy, TestRng};
use semcom::{ChannelModel, MessageOutcome, SemanticEdgeSystem, SystemConfig, UserId};
use semcom_obs::Recorder;
use semcom_text::Domain;
use std::sync::Mutex;

static WORKER_LOCK: Mutex<()> = Mutex::new(());

const CASES: u32 = 6;

/// Builds a system with `placements[i] = (domain_idx, strength, home, peer)`
/// registered in order; returns it with the registered user ids.
fn build(
    seed: u64,
    snr_db: f64,
    threshold: usize,
    quant: bool,
    placements: &[(usize, f64, usize, usize)],
) -> (SemanticEdgeSystem, Vec<UserId>) {
    let mut config = SystemConfig::tiny();
    config.channel = ChannelModel::Awgn { snr_db };
    config.buffer_threshold = threshold;
    config.n_edges = 3;
    build_with(config, seed, quant, placements)
}

fn build_with(
    config: SystemConfig,
    seed: u64,
    quant: bool,
    placements: &[(usize, f64, usize, usize)],
) -> (SemanticEdgeSystem, Vec<UserId>) {
    let mut system = SemanticEdgeSystem::build(config, seed);
    if quant {
        system.enable_quantized_serving();
    }
    let users = placements
        .iter()
        .map(|&(d, strength, home, peer)| {
            system.register_user_at(Domain::ALL[d % Domain::ALL.len()], strength, home, peer)
        })
        .collect();
    (system, users)
}

#[test]
fn send_stream_matches_sequential_send_message_at_any_worker_count() {
    let _guard = WORKER_LOCK.lock().unwrap();
    for case in 0..CASES {
        let mut rng = TestRng::deterministic("pipeline_equivalence::stream_vs_sequential", case);
        let seed = (0u64..10_000).generate(&mut rng);
        let snr_db = (2.0f64..14.0).generate(&mut rng);
        // Low thresholds force training rounds (pipeline barriers) to fire
        // mid-stream; higher ones exercise the steady overlapped path.
        let threshold = (8usize..48).generate(&mut rng);
        let quant = case % 2 == 1;
        let n_placements = (1usize..11).generate(&mut rng);
        let placements: Vec<(usize, f64, usize, usize)> = (0..n_placements)
            .map(|_| {
                (
                    (0usize..4).generate(&mut rng),
                    (0.0f64..0.9).generate(&mut rng),
                    (0usize..3).generate(&mut rng),
                    (0usize..3).generate(&mut rng),
                )
            })
            .collect();
        let mix = vec(0usize..10, 1..48).generate(&mut rng);

        // Sequential reference (itself thread-count invariant).
        semcom_par::set_workers(1);
        let (mut reference, users) = build(seed, snr_db, threshold, quant, &placements);
        let order: Vec<UserId> = mix.iter().map(|&i| users[i % users.len()]).collect();
        let expected: Vec<MessageOutcome> =
            order.iter().map(|&u| reference.send_message(u)).collect();
        let expected_metrics = reference.metrics();

        let mut exports: Vec<String> = Vec::new();
        for workers in [1usize, 2, 3, 4] {
            semcom_par::set_workers(workers);
            let (mut streamed, stream_users) = build(seed, snr_db, threshold, quant, &placements);
            assert_eq!(stream_users, users);
            streamed.attach_recorder(Recorder::with_ticks());
            let got = streamed.send_stream(&order);
            assert_eq!(
                got, expected,
                "case {case}: outcomes diverged at {workers} workers"
            );
            assert_eq!(
                streamed.metrics(),
                expected_metrics,
                "case {case}: metrics diverged at {workers} workers"
            );
            exports.push(streamed.observability_snapshot().to_json_deterministic());
        }
        for (export, workers) in exports.iter().zip([1, 2, 3, 4]).skip(1) {
            assert_eq!(
                &exports[0], export,
                "case {case}: snapshot differs at {workers} workers"
            );
        }
    }
    semcom_par::reset_workers();
}

/// The same contract where windows really fan out. A 4096-wide decoder over
/// the tiny language puts a full window above `PAR_WORK`, and the trace is
/// laid out so every window rule fires with workers running: rounds of all
/// 12 users (past the 2-worker cap of 8, exactly the 3-worker cap, under
/// the 4-worker cap so the repeat closes it), a user repeated back to
/// back, and a threshold low enough for training rounds mid-window.
#[test]
fn fanned_out_windows_match_sequential() {
    let _guard = WORKER_LOCK.lock().unwrap();
    let placements: Vec<(usize, f64, usize, usize)> = (0..12)
        .map(|i| (i, 0.1 + 0.06 * i as f64, i % 3, (i + 1) % 3))
        .collect();
    for quant in [false, true] {
        let config = || {
            let mut config = SystemConfig::tiny();
            config.codec.hidden_dim = 4096;
            // Accuracy is irrelevant here; keep the wide model cheap to build.
            config.pretrain.epochs = 1;
            config.pretrain_sentences = 8;
            config.finetune.epochs = 1;
            config.buffer_threshold = 27;
            config.buffer_capacity = 40;
            config.n_edges = 3;
            config
        };
        semcom_par::set_workers(1);
        let (mut reference, users) = build_with(config(), 5, quant, &placements);
        let mut order: Vec<UserId> = Vec::new();
        for round in 0..3 {
            order.extend(&users);
            order.extend([users[round], users[round], users[11 - round]]);
        }
        let expected: Vec<MessageOutcome> =
            order.iter().map(|&u| reference.send_message(u)).collect();
        assert!(reference.metrics().trainings > 0, "training rounds fire");

        for workers in [2usize, 3, 4] {
            semcom_par::set_workers(workers);
            let (mut streamed, _) = build_with(config(), 5, quant, &placements);
            streamed.attach_recorder(Recorder::with_ticks());
            assert_eq!(streamed.send_stream(&order), expected, "workers={workers}");
            assert_eq!(streamed.metrics(), reference.metrics(), "workers={workers}");
            let snap = streamed.observability_snapshot();
            let fanouts = snap.counter("sched_stream_fanouts").expect("published");
            assert!(fanouts > 0, "workers={workers}: windows ran on workers");
            let peak = snap.gauge("sched_stream_window_peak").expect("published");
            assert_eq!(peak, (4.0 * workers as f64).min(12.0), "cap or user count");
        }
    }
    semcom_par::reset_workers();
}

/// A window below `PAR_WORK` is served on the caller thread however many
/// workers there are: four tiny-codec messages never pay a thread spawn.
#[test]
fn small_windows_do_not_fan_out() {
    let _guard = WORKER_LOCK.lock().unwrap();
    semcom_par::set_workers(4);
    let placements = [
        (0usize, 0.3f64, 0usize, 1usize),
        (1, 0.3, 1, 2),
        (2, 0.3, 2, 0),
        (3, 0.3, 0, 2),
    ];
    let (mut system, users) = build(7, 9.0, 40, false, &placements);
    system.attach_recorder(Recorder::with_ticks());
    assert_eq!(system.send_stream(&users).len(), 4);
    let snap = system.observability_snapshot();
    assert_eq!(snap.counter("sched_stream_fanouts"), Some(0));
    assert_eq!(snap.counter("sched_stream_windows"), Some(1));
    assert_eq!(snap.gauge("sched_stream_workers"), Some(1.0));
    semcom_par::reset_workers();
}

/// Streaming twice over the same system continues the message counter and
/// stays equivalent to the same sequential calls — the resume path the
/// fleet harness uses (one `send_stream` per dispatched service round).
#[test]
fn repeated_send_stream_rounds_match_sequential() {
    let _guard = WORKER_LOCK.lock().unwrap();
    let placements = [
        (0usize, 0.6f64, 0usize, 1usize),
        (1, 0.4, 1, 2),
        (2, 0.7, 2, 0),
    ];

    semcom_par::set_workers(1);
    let (mut reference, users) = build(42, 9.0, 16, false, &placements);
    let rounds: Vec<Vec<UserId>> = vec![
        vec![users[0], users[1], users[0], users[2]],
        vec![users[2], users[2], users[1], users[0], users[1]],
        vec![users[0]],
    ];
    let mut expected = Vec::new();
    for round in &rounds {
        for &u in round {
            expected.push(reference.send_message(u));
        }
    }

    for workers in [1usize, 4] {
        semcom_par::set_workers(workers);
        let (mut streamed, _) = build(42, 9.0, 16, false, &placements);
        let mut got = Vec::new();
        for round in &rounds {
            got.extend(streamed.send_stream(round));
        }
        assert_eq!(got, expected, "workers={workers}");
        assert_eq!(streamed.metrics(), reference.metrics(), "workers={workers}");
    }
    semcom_par::reset_workers();
}
