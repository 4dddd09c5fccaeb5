//! F12 — multi-edge fleets: cache locality vs load balancing across
//! request-assignment strategies.
//!
//! Each grid cell simulates from its own seed, so the (edges ×
//! assignment) grids fan out through `semcom-par` and print in grid
//! order: stdout is byte-identical at any `SEMCOM_THREADS` setting.

use semcom_bench::banner;
use semcom_cache::policy::SemanticCost;
use semcom_edge::placement::MessageCost;
use semcom_edge::{Assignment, FleetConfig, FleetSim, RunOptions, Topology};
use semcom_nn::rng::derive_seed;

fn fleet_cells() -> Vec<(usize, Assignment)> {
    [2usize, 3, 4]
        .iter()
        .flat_map(|&n| Assignment::ALL.map(|a| (n, a)))
        .collect()
}

fn main() {
    banner(
        "F12",
        "fleet assignment: cache locality vs load balance",
        "edge computing technologies can be testified to improve the overall \
         system performance (Sec. III-C); multi-edge extension of Fig. 1",
    );

    println!("\n--- light compute (codec 2 Mop): fetch-dominated regime ---");
    println!("edges,assignment,hit_rate,mean_ms,p95_ms,util_spread");
    for line in semcom_par::par_map_indexed(&fleet_cells(), |_, &(n_edges, a)| {
        let r = FleetSim::new(
            FleetConfig {
                n_edges,
                assignment: a,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run(1);
        let max = r.utilization.iter().cloned().fold(0.0f64, f64::max);
        let min = r.utilization.iter().cloned().fold(1.0f64, f64::min);
        format!(
            "{n_edges},{},{:.4},{:.2},{:.2},{:.4}",
            a.name(),
            r.hit_rate,
            r.latency.mean * 1e3,
            r.latency.p95 * 1e3,
            max - min
        )
    }) {
        println!("{line}");
    }

    println!("\n--- heavy compute (codec 500 Mop, 300 req/s): queue-dominated regime ---");
    println!("edges,assignment,hit_rate,mean_ms,p95_ms");
    for line in semcom_par::par_map_indexed(&fleet_cells(), |_, &(n_edges, a)| {
        let r = FleetSim::new(
            FleetConfig {
                n_edges,
                arrival_rate_hz: 300.0,
                capacity_bytes: 40_000_000,
                message: MessageCost {
                    encode_ops: 5e8,
                    decode_ops: 5e8,
                    ..MessageCost::default()
                },
                assignment: a,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run(2);
        format!(
            "{n_edges},{},{:.4},{:.2},{:.2}",
            a.name(),
            r.hit_rate,
            r.latency.mean * 1e3,
            r.latency.p95 * 1e3
        )
    }) {
        println!("{line}");
    }

    println!("\n--- fleet scale: 100k user KBs, semantic_cost caches, 200k requests ---");
    println!("edges,assignment,hit_rate,mean_ms,p95_ms");
    let scale_cells: Vec<(usize, Assignment)> = [8usize, 16]
        .iter()
        .flat_map(|&n| Assignment::ALL.map(|a| (n, a)))
        .collect();
    for line in semcom_par::par_map_indexed(&scale_cells, |i, &(n_edges, a)| {
        let cost_aware = RunOptions {
            policy: &|| Box::new(SemanticCost::new()),
            ..RunOptions::default()
        };
        let r = FleetSim::new(
            FleetConfig {
                n_edges,
                n_requests: 200_000,
                arrival_rate_hz: 500.0,
                capacity_bytes: 1_000_000_000,
                n_domains: 64,
                n_users: 100_000,
                assignment: a,
                ..FleetConfig::default()
            },
            Topology::default(),
        )
        .run_with(derive_seed(12, i as u64), cost_aware)
        .expect("no series")
        .report;
        format!(
            "{n_edges},{},{:.4},{:.2},{:.2}",
            a.name(),
            r.hit_rate,
            r.latency.mean * 1e3,
            r.latency.p95 * 1e3
        )
    }) {
        println!("{line}");
    }

    println!("\nexpected shape: in the fetch-dominated regime sticky assignment wins");
    println!("(each KB resident on exactly one edge -> highest hit rate, lowest mean);");
    println!("in the queue-dominated regime least-loaded wins (work spreads evenly,");
    println!("and with ample capacity model duplication costs little). Real systems");
    println!("want affinity-with-overflow — both extremes are measurably wrong");
    println!("somewhere. At fleet scale sticky's locality edge persists: a 100k-model");
    println!("universe cannot be duplicated into every edge cache.");
}
