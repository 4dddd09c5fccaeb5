//! Pins the fleet DES by value.
//!
//! Every way the fleet simulator could be run at the commit before its
//! drivers were collapsed into one streaming replay — the single-loop
//! simulator under three assignments, a cost-aware cache, the histogram
//! sink, a serving backend and full instrumentation; the sharded simulator
//! plain, observed and traced under three placements; and the one-edge
//! workload replay under two policies — was folded into an FNV-1a digest:
//! the `to_bits` of every report field, the deterministic shard statistics,
//! the dispatched-round sequence, the series window count, the SLO
//! watchdog's tallies and `slo_breach` events, and the Perfetto and
//! deterministic-snapshot export bytes. The constants were recorded through
//! those entry points (`run_with_policy`, `run_served`, `run_observed`,
//! `run_traced`, `EdgeWorkloadSim::run`, …), which pre-scheduled a
//! materialised trace; they are gone, and these digests are what says the
//! one remaining loop still computes the same thing, at 1, 2 and 4 workers
//! (`scripts/ci.sh` also runs this file at `SEMCOM_THREADS` = 1 and 4).

use semcom_cache::policy::SemanticCost;
use semcom_channel::adapt::AdaptSpec;
use semcom_edge::placement::MessageCost;
use semcom_edge::{
    Assignment, BatchServer, FleetAdapt, FleetConfig, FleetReport, FleetScaleReport, FleetSim,
    LatencySummary, OffloadConfig, RunOptions, SessionPlacement, ShardedFleetConfig,
    ShardedFleetSim, Topology,
};
use semcom_obs::{Event, Recorder, SloSpec, Stage};

const EXPECTED: [(&str, u64); 18] = [
    ("run/sticky", 0x7593_0bcb_d271_0ff6),
    ("run/round_robin", 0x218a_acde_23be_b2ab),
    ("run/least_loaded", 0x2a31_a3ee_3b74_afe9),
    ("run/semantic_cost", 0x658a_a1bd_6afb_27af),
    ("run_hist", 0x8dc3_e86a_c361_c99c),
    ("served", 0xcb49_aa70_842f_cce5),
    ("observed", 0x0268_c17c_01ed_3d1e),
    ("sharded/sticky", 0xd663_3df9_e2ee_dab2),
    ("sharded/random_weighted", 0x54de_bf80_5828_6a83),
    ("sharded/load_aware", 0x796e_395a_35b5_db05),
    ("sharded_observed/sticky", 0x53ea_ed0b_ac3e_2e67),
    ("sharded_observed/random_weighted", 0x0d6f_bb3e_bfa2_4a80),
    ("sharded_observed/load_aware", 0x5809_2274_cd47_a023),
    ("sharded_traced/sticky", 0x1ac2_e003_3588_3eb5),
    ("sharded_traced/random_weighted", 0xdedd_0c23_1d6b_f816),
    ("sharded_traced/load_aware", 0x1d81_2ee6_9bde_b5b5),
    ("one_edge/lru", 0xfb19_456a_9fe6_3a15),
    ("one_edge/semantic_cost", 0x879b_771c_f160_c4b2),
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn latency(&mut self, l: &LatencySummary) {
        self.u64(l.count as u64);
        for v in [l.mean, l.p50, l.p95, l.p99, l.max] {
            self.f64(v);
        }
    }

    fn report(&mut self, r: &FleetReport) {
        self.latency(&r.latency);
        self.f64(r.hit_rate);
        self.u64(r.utilization.len() as u64);
        for &u in &r.utilization {
            self.f64(u);
        }
        self.f64(r.fetch_time_total);
        self.f64(r.mean_batch);
        self.u64(r.offloaded);
        self.f64(r.duration);
    }

    /// Per-shard reports, the merge, and every `ShardStats` field but the
    /// wall clock.
    fn scale(&mut self, r: &FleetScaleReport) {
        self.u64(r.shards.len() as u64);
        for (report, stats) in r.shards.iter().zip(&r.stats) {
            self.report(report);
            self.u64(stats.events_total);
            self.u64(stats.queue_depth_peak as u64);
            self.u64(stats.hits);
            self.u64(stats.lookups);
        }
        self.report(&r.merged);
    }

    /// Counters, gauges, histogram counts and the journal, without the
    /// scheduling-dependent `sched_*` entries.
    fn snapshot(&mut self, rec: &Recorder) {
        self.bytes(rec.snapshot().to_json_deterministic().as_bytes());
    }

    fn perfetto(&mut self, rec: &Recorder) {
        let buf = rec.trace_buffer().expect("traced recorder");
        assert_eq!(buf.dropped(), 0, "the trace must fit its buffer");
        self.bytes(buf.to_perfetto_json().as_bytes());
    }
}

/// `run_with` under per-edge `SemanticCost` caches, all else default.
fn run_cost_aware(sim: &FleetSim, seed: u64) -> FleetReport {
    let opts = RunOptions {
        policy: &|| Box::new(SemanticCost::new()),
        ..RunOptions::default()
    };
    sim.run_with(seed, opts).expect("no series").report
}

fn fleet(assignment: Assignment) -> FleetSim {
    FleetSim::new(
        FleetConfig {
            assignment,
            ..FleetConfig::default()
        },
        Topology::default(),
    )
}

/// Overloaded edges with a heavy per-round dispatch cost, batching, link
/// adaptation and offload: queues form, rounds coalesce, decodes ship out.
fn crowd(n_edges: usize, n_requests: usize, rate: f64) -> FleetConfig {
    FleetConfig {
        n_edges,
        n_requests,
        arrival_rate_hz: rate,
        n_domains: 8,
        n_users: 200,
        max_batch: 4,
        message: MessageCost {
            encode_ops: 2e8,
            decode_ops: 2e8,
            dispatch_ops: 1e8,
            ..MessageCost::default()
        },
        adapt: Some(FleetAdapt {
            spec: AdaptSpec::standard(64),
            payload_bits: 20_000.0,
            full_feature_dim: 64,
            symbol_rate_hz: 1e6,
        }),
        offload: Some(OffloadConfig {
            busy_frac_threshold: 0.7,
            ..OffloadConfig::default()
        }),
        ..FleetConfig::default()
    }
}

#[derive(Default)]
struct Rounds(Vec<(usize, Vec<u64>)>);

impl BatchServer for Rounds {
    fn serve_round(&mut self, edge: usize, model_ids: &[u64]) {
        self.0.push((edge, model_ids.to_vec()));
    }
}

fn served() -> u64 {
    let sim = FleetSim::new(
        FleetConfig {
            offload: None,
            ..crowd(2, 1_500, 500.0)
        },
        Topology::default(),
    );
    let mut rounds = Rounds::default();
    let opts = RunOptions {
        server: Some(&mut rounds),
        ..RunOptions::default()
    };
    let report = sim.run_with(31, opts).expect("no series").report;
    let mut d = Fnv::new();
    d.report(&report);
    d.u64(rounds.0.len() as u64);
    for (edge, ids) in &rounds.0 {
        d.u64(*edge as u64);
        d.u64(ids.len() as u64);
        for &id in ids {
            d.u64(id);
        }
    }
    assert!(
        rounds.0.iter().any(|(_, ids)| ids.len() > 1),
        "rounds coalesce"
    );
    d.0
}

fn observed() -> u64 {
    let sim = FleetSim::new(crowd(4, 4_000, 1_600.0), Topology::default());
    let rec = Recorder::with_ticks_and_trace();
    let slo = SloSpec {
        stage: Stage::Message,
        target_p99_ns: 20_000_000,
        budget_milli: 50,
    };
    let opts = RunOptions {
        hist: true,
        recorder: rec.clone(),
        series: Some((0.5, Some(slo))),
        ..RunOptions::default()
    };
    let run = sim.run_with(14, opts).expect("valid interval");
    let (report, series) = (run.report, run.series.expect("series requested"));
    let slo = run.slo.expect("slo armed");
    let breaches = rec
        .snapshot()
        .events
        .iter()
        .filter(|r| matches!(r.event, Event::SloBreach { .. }))
        .count();
    assert!(report.offloaded > 0, "the crowd forces offloads");
    assert!(breaches > 0, "the crowd breaches the objective");
    let mut d = Fnv::new();
    d.report(&report);
    d.u64(series.len() as u64);
    d.bytes(series.to_json().as_bytes());
    for v in [slo.windows(), slo.breaches(), slo.burn_milli_total()] {
        d.u64(v);
    }
    d.u64(breaches as u64);
    d.snapshot(&rec);
    d.perfetto(&rec);
    d.0
}

fn sharded(placement: SessionPlacement) -> ShardedFleetSim {
    ShardedFleetSim::new(
        ShardedFleetConfig {
            fleet: crowd(6, 3_000, 2_000.0),
            n_shards: 3,
            placement,
            node_weights: matches!(placement, SessionPlacement::RandomWeighted)
                .then(|| vec![3.0, 1.0, 2.0, 2.0, 1.0, 3.0]),
        },
        Topology::default(),
    )
}

fn sharded_plain(placement: SessionPlacement) -> u64 {
    let mut d = Fnv::new();
    d.scale(&sharded(placement).run(23));
    d.0
}

fn sharded_observed(placement: SessionPlacement) -> u64 {
    let rec = Recorder::with_ticks();
    let mut d = Fnv::new();
    d.scale(&sharded(placement).run_observed(23, &rec));
    d.snapshot(&rec);
    d.0
}

fn sharded_traced(placement: SessionPlacement) -> u64 {
    let rec = Recorder::with_ticks_and_trace();
    let mut d = Fnv::new();
    d.scale(&sharded(placement).run_observed(23, &rec));
    d.snapshot(&rec);
    d.perfetto(&rec);
    d.0
}

/// The F4 latency rows' shape: one edge, 2 000 requests at 20 Hz. Only the
/// four fields the one-edge report had are digested.
fn one_edge(cost_aware: bool) -> u64 {
    let sim = FleetSim::new(
        FleetConfig {
            n_edges: 1,
            n_requests: 2_000,
            arrival_rate_hz: 20.0,
            capacity_bytes: 3_000_000,
            ..FleetConfig::default()
        },
        Topology::default(),
    );
    let r = if cost_aware {
        run_cost_aware(&sim, 5)
    } else {
        sim.run(5)
    };
    let mut d = Fnv::new();
    d.latency(&r.latency);
    d.f64(r.hit_rate);
    d.f64(r.fetch_time_total);
    d.f64(r.duration);
    d.0
}

fn digest(case: &str) -> u64 {
    let report = |r: FleetReport| {
        let mut d = Fnv::new();
        d.report(&r);
        d.0
    };
    let placement = |name: &str| match name {
        "sticky" => SessionPlacement::Assigned(Assignment::Sticky),
        "random_weighted" => SessionPlacement::RandomWeighted,
        "load_aware" => SessionPlacement::LoadAware,
        other => panic!("unknown placement {other}"),
    };
    match case.split_once('/') {
        Some(("run", "sticky")) => report(fleet(Assignment::Sticky).run(7)),
        Some(("run", "round_robin")) => report(fleet(Assignment::RoundRobin).run(7)),
        Some(("run", "least_loaded")) => report(fleet(Assignment::LeastLoaded).run(7)),
        Some(("run", "semantic_cost")) => report(run_cost_aware(&fleet(Assignment::Sticky), 7)),
        None if case == "run_hist" => report(fleet(Assignment::Sticky).run_hist(7)),
        None if case == "served" => served(),
        None if case == "observed" => observed(),
        Some(("sharded", p)) => sharded_plain(placement(p)),
        Some(("sharded_observed", p)) => sharded_observed(placement(p)),
        Some(("sharded_traced", p)) => sharded_traced(placement(p)),
        Some(("one_edge", p)) => one_edge(p == "semantic_cost"),
        _ => panic!("unknown case {case}"),
    }
}

#[test]
fn fleet_replays_are_bit_identical_to_the_recorded_digests() {
    for (case, expected) in EXPECTED {
        for workers in [None, Some(1usize), Some(2), Some(4)] {
            if let Some(w) = workers {
                semcom_par::set_workers(w);
            }
            let got = digest(case);
            semcom_par::reset_workers();
            assert_eq!(
                got, expected,
                "{case} moved (workers={workers:?}): {got:#018x}"
            );
        }
    }
}
