//! Link-adaptive + offloading fleet determinism (experiment F14).
//!
//! PR 9 adds two per-request levers to the fleet DES — Markov-SNR link
//! adaptation (per-cell airtime from the selected modulation/code-rate/
//! feature-dim entry) and busy-fraction edge→cloud offloading over a
//! modeled backhaul. Both must preserve the engine's two standing
//! contracts:
//!
//! 1. **Worker-count invariance**: the sharded fan-out replays
//!    byte-identically at `SEMCOM_THREADS` 1, 2, and 4, and matches the
//!    serial `plan` → `FleetSim::run_hist` → `merge_reports` composition
//!    shard for shard. (Streaming vs. the pre-scheduled oracle, over the
//!    same shapes, lives in `src/fleet/equivalence.rs`.)
//! 2. **Degenerate anchor**: a single-entry fixed-SNR table with zero
//!    payload (`FleetAdapt::degenerate()`) and no offload reproduces the
//!    `adapt: None` reports bit for bit — the adaptive machinery itself
//!    has no side channel into the schedule.

use proptest::prelude::*;
use semcom_channel::adapt::AdaptSpec;
use semcom_edge::{
    merge_reports, Assignment, FleetAdapt, FleetConfig, FleetReport, FleetSim, OffloadConfig,
    SessionPlacement, ShardedFleetConfig, ShardedFleetSim, Topology,
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

#[allow(clippy::too_many_arguments)]
fn adaptive_fleet(
    n_edges: usize,
    n_requests: usize,
    rate: f64,
    n_users: usize,
    assignment: Assignment,
    max_batch: usize,
    payload_kbits: f64,
    offload: bool,
    threshold: f64,
) -> FleetConfig {
    FleetConfig {
        n_edges,
        n_requests,
        arrival_rate_hz: rate,
        n_domains: 4,
        n_users,
        assignment,
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
    }
}

proptest! {
    /// Adaptive airtime and offload routing are pure functions of the
    /// shard plan: fan-out == serial composition, byte for byte, at 1/2/4
    /// workers.
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
        let n_edges = n_shards + extra_edges;
        let assignment = Assignment::ALL[assignment_idx];
        let sim = ShardedFleetSim::new(
            ShardedFleetConfig {
                fleet: adaptive_fleet(
                    n_edges, n_requests, rate, n_shards + extra_users,
                    assignment, max_batch, payload_kbits, offload, threshold,
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

    /// The degenerate adaptation (fixed single-entry table, zero payload,
    /// no offload) leaves no trace: the serial replay equals the plain
    /// `adapt: None` replay of the same shape, shard for shard.
    #[test]
    fn degenerate_adaptation_reproduces_plain_fleet_reports(
        seed in any::<u64>(),
        n_shards in 1usize..=3,
        extra_edges in 0usize..=3,
        max_batch in 1usize..=8,
        n_requests in 50usize..=300,
    ) {
        let n_edges = n_shards + extra_edges;
        let plain = FleetConfig {
            n_edges,
            n_requests,
            arrival_rate_hz: 150.0,
            n_domains: 4,
            n_users: 40,
            max_batch,
            ..FleetConfig::default()
        };
        let degen = FleetConfig {
            adapt: Some(FleetAdapt::degenerate()),
            ..plain.clone()
        };
        let sharded = |fleet: FleetConfig| {
            ShardedFleetSim::new(
                ShardedFleetConfig {
                    fleet,
                    n_shards,
                    placement: SessionPlacement::Assigned(Assignment::Sticky),
                    node_weights: None,
                },
                Topology::default(),
            )
        };
        let (a_shards, a_merged) = serial(&sharded(plain), seed);
        let (b_shards, b_merged) = serial(&sharded(degen), seed);
        prop_assert_eq!(&a_shards, &b_shards);
        prop_assert_eq!(&a_merged.latency, &b_merged.latency);
        prop_assert_eq!(a_merged.hit_rate, b_merged.hit_rate);
        prop_assert_eq!(b_merged.offloaded, 0);
    }
}
