//! Sharded fan-out vs. serial composition (experiment F13).
//!
//! `ShardedFleetSim::run` (plan, `semcom-par` fan-out, fixed-order merge)
//! must produce **identical** per-shard `FleetReport`s — and therefore an
//! identical merged report — to the same thing spelled out serially from
//! the public API: `plan` → `FleetSim::run_hist` per shard →
//! `merge_reports`, across randomized fleet shapes and at 1, 2, and 4
//! workers. (That the streaming replay loop both sides share equals the
//! pre-scheduled driver it replaced is pinned inside the crate, next to
//! the oracle: `src/fleet/equivalence.rs`.) The worker count is
//! process-global, so tests serialize on a lock and restore the default
//! before releasing it (the `tests/f4_workers.rs` pattern).

use proptest::prelude::*;
use semcom_edge::{
    merge_reports, Assignment, FleetConfig, FleetReport, FleetSim, SessionPlacement,
    ShardedFleetConfig, ShardedFleetSim, Topology,
};
use std::sync::Mutex;

static WORKER_LOCK: Mutex<()> = Mutex::new(());

/// The serial composition the fan-out must equal: every shard's plan
/// through its own `FleetSim`, one after the other, merged in shard order.
fn serial(sim: &ShardedFleetSim, seed: u64) -> (Vec<FleetReport>, FleetReport) {
    let shards: Vec<FleetReport> = sim
        .plan(seed)
        .into_iter()
        .map(|p| FleetSim::new(p.config, Topology::default()).run_hist(p.seed))
        .collect();
    let merged = merge_reports(&shards);
    (shards, merged)
}

/// Projects the deterministic fields of per-shard stats (`wall_ns` is
/// wall-clock and legitimately varies run to run).
fn det_stats(r: &semcom_edge::FleetScaleReport) -> Vec<(u64, usize, u64, u64)> {
    r.stats
        .iter()
        .map(|s| (s.events_total, s.queue_depth_peak, s.hits, s.lookups))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn fleet(
    n_edges: usize,
    n_requests: usize,
    rate: f64,
    alpha: f64,
    capacity_kb: usize,
    n_domains: usize,
    n_users: usize,
    assignment: Assignment,
    max_batch: usize,
) -> FleetConfig {
    FleetConfig {
        n_edges,
        n_requests,
        arrival_rate_hz: rate,
        capacity_bytes: capacity_kb * 1_000,
        zipf_alpha: alpha,
        n_domains,
        n_users,
        assignment,
        max_batch,
        ..FleetConfig::default()
    }
}

proptest! {
    /// For any valid fleet shape and classic assignment, fan-out ==
    /// serial composition, byte for byte, at every worker count.
    #[test]
    fn sharded_fan_out_matches_serial_fleet_sims_at_1_2_4_workers(
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
        let n_edges = n_shards + extra_edges;
        let n_users = n_shards + extra_users;
        let assignment = Assignment::ALL[assignment_idx];
        let sim = ShardedFleetSim::new(
            ShardedFleetConfig {
                fleet: fleet(
                    n_edges, n_requests, rate, alpha, capacity_kb,
                    n_domains, n_users, assignment, max_batch,
                ),
                n_shards,
                placement: SessionPlacement::Assigned(assignment),
                node_weights: None,
            },
            Topology::default(),
        );
        let (shards, merged) = serial(&sim, seed);

        let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for workers in [1usize, 2, 4] {
            semcom_par::set_workers(workers);
            let sharded = sim.run(seed);
            prop_assert_eq!(&sharded.shards, &shards, "{} workers", workers);
            prop_assert_eq!(&sharded.merged, &merged, "{} workers", workers);
        }
        semcom_par::reset_workers();
    }

    /// The placements a `FleetSim` cannot speak must still be
    /// worker-count invariant: weighted-random draws come from per-shard
    /// stream-split RNGs and load-aware reads from shard-private gauges,
    /// so 1, 2, and 4 workers replay identically.
    #[test]
    fn scale_placements_are_worker_count_invariant(
        seed in any::<u64>(),
        n_shards in 1usize..=3,
        extra_edges in 1usize..=4,
        weighted in any::<bool>(),
        max_batch in 1usize..=4,
        n_requests in 50usize..=300,
    ) {
        let n_edges = n_shards + extra_edges;
        let placement = if weighted {
            SessionPlacement::RandomWeighted
        } else {
            SessionPlacement::LoadAware
        };
        let sim = ShardedFleetSim::new(
            ShardedFleetConfig {
                fleet: fleet(
                    n_edges, n_requests, 120.0, 0.9, 1_000,
                    2, 30, Assignment::Sticky, max_batch,
                ),
                n_shards,
                placement,
                node_weights: weighted.then(|| {
                    (0..n_edges).map(|i| 1.0 + (i % 3) as f64).collect()
                }),
            },
            Topology::default(),
        );

        let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        semcom_par::set_workers(1);
        let serial = sim.run(seed);
        for workers in [2usize, 4] {
            semcom_par::set_workers(workers);
            let parallel = sim.run(seed);
            prop_assert_eq!(&parallel.shards, &serial.shards, "{} workers", workers);
            prop_assert_eq!(det_stats(&parallel), det_stats(&serial), "{} workers", workers);
        }
        semcom_par::reset_workers();
    }
}
