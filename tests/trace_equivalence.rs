//! Property tests pinning the PR 10 causal-tracing contract:
//!
//! * the staged serving pipeline ([`SemanticEdgeSystem::send_stream`])
//!   builds a span tree **node-for-node identical** (ordering-normalized
//!   via [`TraceBuffer::structural_lines`]) to the equivalent sequence of
//!   `send_message` calls, at 1, 2, and 4 workers, over randomized user
//!   mixes — span identity is content-derived, so batching and worker
//!   scheduling must never change the tree's structure;
//! * every fleet request dispatched by [`FleetSim`] (and by the sharded
//!   engine's fixed-order merge) carries **exactly one root trace**, with
//!   the sharded trace-id spaces disjoint per shard.
//!
//! The worker count is a process-global (`semcom_par::set_workers`), so
//! the stream/message property runs under one mutex; this file is its own
//! test binary, so no other tests race it.

use proptest::collection::vec;
use proptest::{Strategy, TestRng};
use semcom::{ChannelModel, SemanticEdgeSystem, SystemConfig, UserId};
use semcom_edge::{
    Assignment, FleetConfig, FleetSim, RunOptions, SessionPlacement, ShardedFleetConfig,
    ShardedFleetSim, Topology,
};
use semcom_obs::{Recorder, SloSpec, Stage, TraceBuffer};
use semcom_text::Domain;
use std::sync::Mutex;

static WORKER_LOCK: Mutex<()> = Mutex::new(());

const CASES: u32 = 5;

fn build(
    seed: u64,
    snr_db: f64,
    threshold: usize,
    placements: &[(usize, f64, usize, usize)],
) -> (SemanticEdgeSystem, Vec<UserId>, Recorder) {
    let mut config = SystemConfig::tiny();
    config.channel = ChannelModel::Awgn { snr_db };
    config.buffer_threshold = threshold;
    config.n_edges = 3;
    let mut system = SemanticEdgeSystem::build(config, seed);
    let rec = Recorder::with_ticks_and_trace();
    system.attach_recorder(rec.clone());
    let users = placements
        .iter()
        .map(|&(d, strength, home, peer)| {
            system.register_user_at(Domain::ALL[d % Domain::ALL.len()], strength, home, peer)
        })
        .collect();
    (system, users, rec)
}

fn lines(rec: &Recorder) -> Vec<String> {
    rec.trace_buffer()
        .expect("tracing enabled")
        .structural_lines()
}

fn assert_one_root_per_trace(buf: &TraceBuffer, expected_traces: usize, what: &str) {
    let roots = buf.roots_per_trace();
    assert_eq!(roots.len(), expected_traces, "{what}: trace count");
    assert!(
        roots.values().all(|&n| n == 1),
        "{what}: every trace has exactly one root"
    );
}

#[test]
fn stream_span_tree_matches_sequential_at_any_worker_count() {
    let _guard = WORKER_LOCK.lock().unwrap();
    for case in 0..CASES {
        let mut rng = TestRng::deterministic("trace_equivalence::stream_vs_sequential", case);
        let seed = (0u64..10_000).generate(&mut rng);
        let snr_db = (2.0f64..14.0).generate(&mut rng);
        // Low thresholds force training (and its train_round/sync_round
        // spans) to fire mid-stream; higher ones keep the tree at the
        // three per-message children.
        let threshold = (8usize..48).generate(&mut rng);
        let n_placements = (1usize..4).generate(&mut rng);
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
        let mix = vec(0usize..4, 1..40).generate(&mut rng);

        semcom_par::set_workers(1);
        let (mut reference, users, ref_rec) = build(seed, snr_db, threshold, &placements);
        let order: Vec<UserId> = mix.iter().map(|&i| users[i % users.len()]).collect();
        for &u in &order {
            reference.send_message(u);
        }
        let expected = lines(&ref_rec);
        assert_one_root_per_trace(
            &ref_rec.trace_buffer().unwrap(),
            order.len(),
            "sequential reference",
        );

        for workers in [1usize, 2, 4] {
            semcom_par::set_workers(workers);
            let (mut streamed, _, rec) = build(seed, snr_db, threshold, &placements);
            streamed.send_stream(&order);
            assert_eq!(
                lines(&rec),
                expected,
                "case {case}: span tree diverged at {workers} workers"
            );
        }
    }
    semcom_par::reset_workers();
}

#[test]
fn every_fleet_dispatch_carries_exactly_one_root_trace() {
    for case in 0..CASES {
        let mut rng = TestRng::deterministic("trace_equivalence::fleet_roots", case);
        let seed = (0u64..10_000).generate(&mut rng);
        let config = FleetConfig {
            n_edges: (2usize..6).generate(&mut rng),
            n_requests: (200usize..1_200).generate(&mut rng),
            arrival_rate_hz: (40.0f64..400.0).generate(&mut rng),
            max_batch: (1usize..4).generate(&mut rng),
            ..FleetConfig::default()
        };

        let rec = Recorder::with_ticks_and_trace();
        let slo = SloSpec {
            stage: Stage::Message,
            target_p99_ns: 50_000_000,
            budget_milli: 100,
        };
        let sim = FleetSim::new(config.clone(), Topology::default());
        let opts = RunOptions {
            hist: true,
            recorder: rec.clone(),
            series: Some((0.25, Some(slo))),
            ..RunOptions::default()
        };
        let report = sim.run_with(seed, opts).expect("valid interval").report;
        let buf = rec.trace_buffer().expect("tracing enabled");
        assert_eq!(buf.dropped(), 0, "case {case}: buffer overflowed");
        assert_one_root_per_trace(&buf, report.latency.count, "single-loop fleet");

        // The sharded merge preserves the invariant, with per-shard
        // trace-id spaces disjoint by construction.
        let sharded_rec = Recorder::with_ticks_and_trace();
        let n_shards = 1 + case as usize % 2;
        let sharded = ShardedFleetSim::new(
            ShardedFleetConfig {
                fleet: config,
                n_shards,
                placement: SessionPlacement::Assigned(Assignment::Sticky),
                node_weights: None,
            },
            Topology::default(),
        );
        let r = sharded.run_observed(seed, &sharded_rec);
        let buf = sharded_rec.trace_buffer().expect("tracing enabled");
        assert_one_root_per_trace(&buf, r.merged.latency.count, "sharded fleet");
        for t in buf.roots_per_trace().keys() {
            let shard = (t >> ShardedFleetSim::TRACE_SHARD_SHIFT) as usize;
            assert!(
                shard >= 1 && shard <= n_shards,
                "case {case}: trace id {t:#x} outside any shard's range"
            );
        }
    }
}
