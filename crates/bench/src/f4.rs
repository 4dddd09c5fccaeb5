//! Shared row generators for the F4 cache sweep.
//!
//! The `f4_cache_sweep` binary and the worker byte-identity test
//! (`tests/f4_workers.rs`) both render rows through these functions, so
//! "stdout is byte-identical at any `SEMCOM_THREADS`" is asserted against
//! the exact strings the binary prints. Every grid cell replays from its
//! own freshly seeded RNG and the grids fan out through
//! [`semcom_par::par_map_indexed`], which returns results in input order
//! regardless of worker count.

use semcom_cache::policy::{Fifo, Gdsf, Lfu, Lru, SLru, SemanticCost};
use semcom_cache::workload::{ReplayReport, Workload};
use semcom_edge::{FleetConfig, FleetSim, RunOptions, Topology};
use semcom_nn::rng::{derive_seed, seeded_rng};

/// Policy column order of the F4 grids.
pub const POLICIES: [&str; 7] = [
    "fifo",
    "lru",
    "lfu",
    "slru",
    "gdsf",
    "semantic_cost",
    "belady(oracle)",
];

/// Runs one replay cell, dispatching on the policy index (the policy types
/// differ, so this cannot be a simple data table).
pub fn replay_cell(
    w: &Workload,
    capacity: usize,
    policy: usize,
    n: usize,
    seed: u64,
) -> ReplayReport {
    let rng = &mut seeded_rng(seed);
    match policy {
        0 => w.replay(capacity, Fifo::new(), n, rng),
        1 => w.replay(capacity, Lru::new(), n, rng),
        2 => w.replay(capacity, Lfu::new(), n, rng),
        3 => w.replay(capacity, SLru::new(), n, rng),
        4 => w.replay(capacity, Gdsf::new(), n, rng),
        5 => w.replay(capacity, SemanticCost::new(), n, rng),
        _ => w.replay_optimal(capacity, n, rng),
    }
}

/// Section 1: hit rate & mean re-establishment cost per request across
/// the capacity × policy grid (alpha = 0.9).
pub fn capacity_rows(n_requests: usize) -> Vec<String> {
    let workload = Workload::standard(4, 120, 0.9);
    let capacities = [1_000_000usize, 2_000_000, 4_000_000, 8_000_000, 16_000_000];
    let cells: Vec<(usize, usize)> = capacities
        .iter()
        .flat_map(|&c| (0..POLICIES.len()).map(move |p| (c, p)))
        .collect();
    semcom_par::par_map_indexed(&cells, |_, &(capacity, p)| {
        let r = replay_cell(&workload, capacity, p, n_requests, 1);
        format!(
            "{:.1},{},{:.4},{:.4}",
            capacity as f64 / 1e6,
            POLICIES[p],
            r.stats.hit_rate(),
            r.mean_cost_per_request()
        )
    })
}

/// Section 2: Zipf skew sweep (capacity 4 MB, lru vs semantic_cost).
pub fn alpha_rows(n_requests: usize) -> Vec<String> {
    let alphas = [0.4, 0.7, 0.9, 1.1, 1.4];
    let cells: Vec<(f64, usize)> = alphas.iter().flat_map(|&a| [(a, 1), (a, 5)]).collect();
    semcom_par::par_map_indexed(&cells, |_, &(alpha, p)| {
        let w = Workload::standard(4, 120, alpha);
        let r = replay_cell(&w, 4_000_000, p, n_requests, 2);
        format!(
            "{alpha},{},{:.4},{:.4}",
            if p == 1 { "lru" } else { "semantic_cost" },
            r.stats.hit_rate(),
            r.mean_cost_per_request()
        )
    })
}

/// Section 3: event-driven latency (Poisson arrivals, cloud fetch on
/// miss).
pub fn latency_rows(n_requests: usize) -> Vec<String> {
    let cells: Vec<(usize, usize)> = [1_000_000usize, 2_000_000, 4_000_000, 8_000_000]
        .iter()
        .flat_map(|&c| [(c, 0), (c, 1)])
        .collect();
    semcom_par::par_map_indexed(&cells, |_, &(capacity, p)| {
        let sim = FleetSim::new(
            FleetConfig {
                n_edges: 1,
                n_requests,
                arrival_rate_hz: 20.0,
                capacity_bytes: capacity,
                ..FleetConfig::default()
            },
            Topology::default(),
        );
        let (name, r) = if p == 0 {
            ("lru", sim.run(3))
        } else {
            let cost_aware = RunOptions {
                policy: &|| Box::new(SemanticCost::new()),
                ..RunOptions::default()
            };
            let run = sim.run_with(3, cost_aware).expect("no series");
            ("semantic_cost", run.report)
        };
        format!(
            "{:.1},{name},{:.4},{:.2},{:.2}",
            capacity as f64 / 1e6,
            r.hit_rate,
            r.latency.mean * 1e3,
            r.latency.p95 * 1e3
        )
    })
}

/// Section 4: network-scale sweep — a 100k-model universe (64 domain KBs
/// plus 100,000 user KBs) under cache pressure, per-cell derived seeds.
/// Feasible only because victim selection is `O(log n)`/`O(1)`: at these
/// resident-set sizes the retained `O(n)` reference engines would scan
/// tens of thousands of entries per eviction.
pub fn scale_rows(n_requests: usize) -> Vec<String> {
    let workload = Workload::standard(64, 100_000, 0.9);
    let capacities = [2_000_000_000usize, 6_000_000_000];
    let cells: Vec<(usize, usize)> = capacities
        .iter()
        .flat_map(|&c| (0..POLICIES.len()).map(move |p| (c, p)))
        .collect();
    semcom_par::par_map_indexed(&cells, |i, &(capacity, p)| {
        let r = replay_cell(
            &workload,
            capacity,
            p,
            n_requests,
            derive_seed(40, i as u64),
        );
        format!(
            "{:.0},{},{:.4},{:.4}",
            capacity as f64 / 1e6,
            POLICIES[p],
            r.stats.hit_rate(),
            r.mean_cost_per_request()
        )
    })
}
