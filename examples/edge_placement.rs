//! Where should the semantic codec run? Device, edge, or cloud.
//!
//! Reproduces the latency argument of the paper's §I with the
//! discrete-event simulator: closed-form placement breakdowns first, then
//! an event-driven replay showing how cache policy and capacity shape
//! end-to-end latency when models must be fetched on miss.
//!
//! ```sh
//! cargo run --release --example edge_placement
//! ```

use semcom_cache::policy::SemanticCost;
use semcom_edge::placement::{message_latency, MessageCost, Placement};
use semcom_edge::{FleetConfig, FleetSim, RunOptions, Topology};

fn main() {
    let topo = Topology::default();
    let cost = MessageCost::default();

    println!("one-message latency breakdown (model already cached):\n");
    println!("  placement | uplink  | encode  | transport | decode  | downlink | total");
    println!("  ----------+---------+---------+-----------+---------+----------+--------");
    for p in Placement::ALL {
        let b = message_latency(&topo, p, &cost, true, 400_000);
        println!(
            "  {:<9} | {:>6.2}ms | {:>6.2}ms | {:>8.2}ms | {:>6.2}ms | {:>7.2}ms | {:>5.2}ms",
            p.name(),
            b.uplink * 1e3,
            b.encode * 1e3,
            b.transport * 1e3,
            b.decode * 1e3,
            b.downlink * 1e3,
            b.total() * 1e3
        );
    }

    let cold = message_latency(&topo, Placement::Edge, &cost, false, 400_000);
    println!(
        "\n  cold edge (model fetch from cloud): {:.2} ms, of which {:.2} ms is the fetch",
        cold.total() * 1e3,
        cold.model_fetch * 1e3
    );

    println!("\nevent-driven replay: 2000 requests, Zipf popularity, per-policy:\n");
    println!("  capacity | policy        | hit rate | mean lat | p95 lat");
    println!("  ---------+---------------+----------+----------+---------");
    for capacity in [1_000_000usize, 2_000_000, 4_000_000] {
        let sim = FleetSim::new(
            FleetConfig {
                n_edges: 1,
                n_requests: 2_000,
                arrival_rate_hz: 20.0,
                capacity_bytes: capacity,
                ..FleetConfig::default()
            },
            Topology::default(),
        );
        let lru = sim.run(9);
        let cost_aware = RunOptions {
            policy: &|| Box::new(SemanticCost::new()),
            ..RunOptions::default()
        };
        let sem = sim.run_with(9, cost_aware).expect("no series").report;
        for (name, r) in [("lru", lru), ("semantic_cost", sem)] {
            println!(
                "  {:>7}k | {:<13} | {:>7.1}% | {:>6.1}ms | {:>6.1}ms",
                capacity / 1000,
                name,
                100.0 * r.hit_rate,
                r.latency.mean * 1e3,
                r.latency.p95 * 1e3
            );
        }
    }
    println!("\ncaching KBs at the edge is what makes edge placement win: every miss");
    println!("pays a cloud fetch that dwarfs the codec compute time.");
}
