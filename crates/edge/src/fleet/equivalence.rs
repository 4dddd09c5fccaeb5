//! The streaming [`replay`](super::replay) against its oracle.
//!
//! `replay_prescheduled` is the driver the streaming loop replaced:
//! materialise the trace, push every arrival into the heap up front, run
//! once. For any valid fleet shape the sharded simulator — `replay` per
//! shard, fanned out at 1, 2 and 4 workers — must produce per-shard
//! reports, deterministic statistics and a merged report **identical** to
//! the oracle run serially over each shard's plan. The worker count is
//! process-global, so the cases serialize on a lock and restore the
//! default before releasing it.

use super::*;
use crate::orchestrator::{
    merge_reports, FleetScaleReport, SessionPlacement, ShardedFleetConfig, ShardedFleetSim,
};
use proptest::prelude::*;
use std::sync::Mutex;

static WORKER_LOCK: Mutex<()> = Mutex::new(());

/// Every `ShardStats` field but the wall clock.
fn det_stats(s: &ShardStats) -> (u64, usize, u64, u64) {
    (s.events_total, s.queue_depth_peak, s.hits, s.lookups)
}

/// The oracle over each shard's plan, in shard order, merged.
fn prescheduled(sim: &ShardedFleetSim, assignment: Assignment, seed: u64) -> FleetScaleReport {
    let (shards, stats): (Vec<_>, Vec<_>) = sim
        .plan(seed)
        .iter()
        .map(|plan| {
            let opts = RunOptions {
                hist: true,
                ..RunOptions::default()
            };
            let picker = Picker::from_assignment(assignment);
            let run =
                replay_prescheduled(&plan.config, &Topology::default(), plan.seed, picker, opts)
                    .expect("no series interval to reject");
            (run.report, run.stats)
        })
        .unzip();
    FleetScaleReport {
        merged: merge_reports(&shards),
        shards,
        stats,
    }
}

fn assert_streaming_matches_oracle(fleet: FleetConfig, n_shards: usize, seed: u64) {
    let assignment = fleet.assignment;
    let sim = ShardedFleetSim::new(
        ShardedFleetConfig {
            fleet,
            n_shards,
            placement: SessionPlacement::Assigned(assignment),
            node_weights: None,
        },
        Topology::default(),
    );
    let reference = prescheduled(&sim, assignment, seed);

    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [1usize, 2, 4] {
        semcom_par::set_workers(workers);
        let sharded = sim.run(seed);
        prop_assert_eq!(&sharded.shards, &reference.shards, "{} workers", workers);
        prop_assert_eq!(&sharded.merged, &reference.merged, "{} workers", workers);
        prop_assert_eq!(
            sharded.stats.iter().map(det_stats).collect::<Vec<_>>(),
            reference.stats.iter().map(det_stats).collect::<Vec<_>>(),
            "{} workers",
            workers
        );
    }
    semcom_par::reset_workers();
}

proptest! {
    /// The headline pin: for any valid fleet shape and classic assignment,
    /// streaming == pre-scheduled, byte for byte, at every worker count.
    #[test]
    fn sharded_engine_matches_reference_at_1_2_4_workers(
        seed in any::<u64>(),
        n_shards in 1usize..=4,
        extra_edges in 0usize..=4,
        assignment_idx in 0usize..3,
        max_batch in 1usize..=8,
        n_domains in 0usize..=4,
        extra_users in 0usize..=40,
        rate in 20.0f64..300.0,
        alpha in 0.4f64..1.2,
        capacity_kb in 200usize..=4_000,
        n_requests in 50usize..=400,
    ) {
        // Valid by construction: every shard owns >= 1 edge and, because
        // users >= shards, a non-empty model universe.
        let fleet = FleetConfig {
            n_edges: n_shards + extra_edges,
            n_requests,
            arrival_rate_hz: rate,
            capacity_bytes: capacity_kb * 1_000,
            zipf_alpha: alpha,
            n_domains,
            n_users: n_shards + extra_users,
            assignment: Assignment::ALL[assignment_idx],
            max_batch,
            ..FleetConfig::default()
        };
        assert_streaming_matches_oracle(fleet, n_shards, seed);
    }

    /// Adaptive airtime and offload routing (experiment F14) are pure
    /// functions of the shard plan: streaming == pre-scheduled, byte for
    /// byte, at 1/2/4 workers.
    #[test]
    fn adaptive_offloading_fleet_is_worker_count_invariant(
        seed in any::<u64>(),
        n_shards in 1usize..=4,
        extra_edges in 0usize..=3,
        assignment_idx in 0usize..3,
        max_batch in 1usize..=8,
        extra_users in 0usize..=40,
        rate in 50.0f64..400.0,
        payload_kbits in 0.0f64..200.0,
        offload in any::<bool>(),
        threshold in 0.05f64..0.9,
        n_requests in 50usize..=300,
    ) {
        let fleet = FleetConfig {
            n_edges: n_shards + extra_edges,
            n_requests,
            arrival_rate_hz: rate,
            n_domains: 4,
            n_users: n_shards + extra_users,
            assignment: Assignment::ALL[assignment_idx],
            max_batch,
            adapt: Some(FleetAdapt {
                spec: AdaptSpec::standard(64),
                payload_bits: payload_kbits * 1_000.0,
                full_feature_dim: 64,
                symbol_rate_hz: 1e6,
            }),
            offload: offload.then(|| OffloadConfig {
                busy_frac_threshold: threshold,
                ..OffloadConfig::default()
            }),
            ..FleetConfig::default()
        };
        assert_streaming_matches_oracle(fleet, n_shards, seed);
    }
}
