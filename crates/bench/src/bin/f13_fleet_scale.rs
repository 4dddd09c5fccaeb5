//! F13 — two-level sharded fleet orchestration at a million users.
//!
//! One `FleetSim` event heap serializes all of a fleet's work. F13
//! exercises the sharded simulator that removes the limit — an
//! orchestrator tier partitions the model universe and the edge fleet
//! into shards (derived seeds, disjoint edge ranges), each shard runs the
//! same streaming replay loop a `FleetSim` does, with constant-memory
//! latency histograms, shards fan out over `semcom-par`, and reports merge
//! in fixed shard order.
//!
//! Everything printed to stdout is byte-identical at any `SEMCOM_THREADS`
//! (the CI golden holds at 1 and 4 workers); wall-clock timings go to
//! stderr, outside the golden.

use semcom_bench::banner;
use semcom_edge::{
    merge_reports, Assignment, FleetConfig, FleetReport, FleetSim, SessionPlacement,
    ShardedFleetConfig, ShardedFleetSim, Topology,
};

fn sharded(fleet: &FleetConfig, n_shards: usize, placement: SessionPlacement) -> ShardedFleetSim {
    ShardedFleetSim::new(
        ShardedFleetConfig {
            fleet: fleet.clone(),
            n_shards,
            placement,
            node_weights: None,
        },
        Topology::default(),
    )
}

fn main() {
    banner(
        "F13",
        "two-level sharded fleet: scaling to a million users",
        "edge servers relieve devices that lack computing power and storage \
         (Sec. I); the Metaverse needs semantic serving at population scale \
         (Sec. IV) — orchestrate many edge loops, don't grow one",
    );

    let base = FleetConfig {
        n_edges: 8,
        n_requests: 200_000,
        arrival_rate_hz: 400.0,
        n_domains: 16,
        n_users: 10_000,
        ..FleetConfig::default()
    };

    println!("\n--- orchestrator plan: 8 edges x 4 shards, 200k requests ---");
    println!("shard,edges,first_edge,requests,domains,users,rate_hz,seed");
    for p in sharded(&base, 4, SessionPlacement::Assigned(Assignment::Sticky)).plan(13) {
        println!(
            "{},{},{},{},{},{},{:.1},{:#018x}",
            p.shard,
            p.config.n_edges,
            p.edge_offset,
            p.config.n_requests,
            p.config.n_domains,
            p.config.n_users,
            p.config.arrival_rate_hz,
            p.seed
        );
    }

    println!("\n--- sharded engine vs single-loop reference (must be identical) ---");
    println!("assignment,hit_rate,mean_ms,p95_ms,identical");
    for a in Assignment::ALL {
        let sim = sharded(&base, 4, SessionPlacement::Assigned(a));
        let t0 = std::time::Instant::now();
        let s = sim.run(13);
        let t_sharded = t0.elapsed();
        // The reference: every shard's plan through its own `FleetSim`,
        // one after the other, merged the same way.
        let t0 = std::time::Instant::now();
        let serial: Vec<FleetReport> = sim
            .plan(13)
            .into_iter()
            .map(|p| FleetSim::new(p.config, Topology::default()).run_hist(p.seed))
            .collect();
        let merged = merge_reports(&serial);
        let t_serial = t0.elapsed();
        assert_eq!(
            s.shards,
            serial,
            "sharded fan-out diverged from serial FleetSim replays for {}",
            a.name()
        );
        assert_eq!(s.merged, merged);
        eprintln!(
            "[timing] {}: sharded {:?} vs serial {:?}",
            a.name(),
            t_sharded,
            t_serial
        );
        println!(
            "{},{:.4},{:.3},{:.3},{}",
            a.name(),
            s.merged.hit_rate,
            s.merged.latency.mean * 1e3,
            s.merged.latency.p95 * 1e3,
            s.shards == serial && s.merged == merged
        );
    }

    println!("\n--- placement tier: 12 edges x 4 shards, 100k requests ---");
    println!("placement,hit_rate,mean_ms,p95_ms,util_min,util_max");
    let placement_fleet = FleetConfig {
        n_edges: 12,
        n_requests: 100_000,
        arrival_rate_hz: 600.0,
        n_domains: 16,
        n_users: 10_000,
        ..FleetConfig::default()
    };
    for placement in [
        SessionPlacement::Assigned(Assignment::Sticky),
        SessionPlacement::Assigned(Assignment::RoundRobin),
        SessionPlacement::Assigned(Assignment::LeastLoaded),
        SessionPlacement::RandomWeighted,
        SessionPlacement::LoadAware,
    ] {
        let r = sharded(&placement_fleet, 4, placement).run(29);
        let min = r.merged.utilization.iter().cloned().fold(1.0f64, f64::min);
        let max = r.merged.utilization.iter().cloned().fold(0.0f64, f64::max);
        println!(
            "{},{:.4},{:.3},{:.3},{:.4},{:.4}",
            placement.name(),
            r.merged.hit_rate,
            r.merged.latency.mean * 1e3,
            r.merged.latency.p95 * 1e3,
            min,
            max
        );
    }

    println!("\n--- single-loop ceiling: the same aggregate, one event heap ---");
    println!("engine,requests,hit_rate,mean_ms");
    let ceiling = FleetSim::new(base.clone(), Topology::default()).run_hist(13);
    println!(
        "single_loop,{},{:.4},{:.3}",
        ceiling.latency.count,
        ceiling.hit_rate,
        ceiling.latency.mean * 1e3
    );
    let s = sharded(&base, 4, SessionPlacement::Assigned(Assignment::Sticky)).run(13);
    println!(
        "sharded_x4,{},{:.4},{:.3}",
        s.merged.latency.count,
        s.merged.hit_rate,
        s.merged.latency.mean * 1e3
    );

    println!("\n--- fleet scale: 1M user KBs, 10M requests, 64 edges x 16 shards ---");
    println!("users,requests,shards,edges,hit_rate,mean_ms,p95_ms,max_queue_depth");
    let scale = FleetConfig {
        n_edges: 64,
        n_requests: 10_000_000,
        arrival_rate_hz: 4_000.0,
        capacity_bytes: 200_000_000,
        n_domains: 256,
        n_users: 1_000_000,
        max_batch: 8,
        ..FleetConfig::default()
    };
    let sim = sharded(&scale, 16, SessionPlacement::Assigned(Assignment::Sticky));
    let t0 = std::time::Instant::now();
    let r = sim.run(101);
    let elapsed = t0.elapsed();
    let events: u64 = r.stats.iter().map(|s| s.events_total).sum();
    let peak = r
        .stats
        .iter()
        .map(|s| s.queue_depth_peak)
        .max()
        .unwrap_or(0);
    eprintln!(
        "[timing] 10M requests ({} events) in {:?} -> {:.1}k events/s",
        events,
        elapsed,
        events as f64 / elapsed.as_secs_f64() / 1e3
    );
    println!(
        "{},{},{},{},{:.4},{:.3},{:.3},{}",
        scale.n_users,
        r.merged.latency.count,
        16,
        scale.n_edges,
        r.merged.hit_rate,
        r.merged.latency.mean * 1e3,
        r.merged.latency.p95 * 1e3,
        peak
    );

    println!("\nexpected shape: the orchestrator plan partitions edges, requests, and");
    println!("the model universe exactly once (front-loaded remainders, per-shard");
    println!("derived seeds). The sharded engine is byte-identical to serial");
    println!("single-loop replays of each shard — `identical` must read true — and");
    println!("the 10M-request replay holds only per-shard generators and histograms");
    println!("(~KBs per shard), not the 10M-sample trace a materializing engine");
    println!("would allocate. Placement: sticky keeps locality (highest hit rate),");
    println!("load-aware trades some locality for the tightest utilization spread");
    println!("using only *published* telemetry, not ground-truth queue state.");
}
