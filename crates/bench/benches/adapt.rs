//! Criterion microbenchmarks for link adaptation (F14).
//!
//! The adaptation loop sits on the serving ingress — one `LinkState::step`
//! per message — and on every fleet arrival, so its cost must stay trivial
//! next to a codec pass. Three measurements:
//!
//! * the bare policy step (Markov draw + EWMA + hysteresis select);
//! * a full adaptive fleet replay vs the same replay with adaptation off,
//!   isolating the per-arrival overhead inside the DES;
//! * the busy-fraction offload variant of the same replay.

use criterion::{criterion_group, criterion_main, Criterion};
use semcom_channel::adapt::{AdaptSpec, LinkState};
use semcom_edge::{FleetAdapt, FleetConfig, FleetSim, OffloadConfig, RunOptions, Topology};

fn bench_policy_step(c: &mut Criterion) {
    let spec = AdaptSpec::standard(64);
    c.bench_function("adapt/link_state_step", |b| {
        let mut link = LinkState::new(&spec, 7);
        b.iter(|| std::hint::black_box(link.step()))
    });
}

fn fleet(adapt: Option<FleetAdapt>, offload: Option<OffloadConfig>) -> FleetConfig {
    FleetConfig {
        n_edges: 4,
        n_requests: 20_000,
        arrival_rate_hz: 400.0,
        n_domains: 8,
        n_users: 200,
        adapt,
        offload,
        ..FleetConfig::default()
    }
}

fn bench_fleet_overhead(c: &mut Criterion) {
    let adapt = FleetAdapt {
        spec: AdaptSpec::standard(64),
        payload_bits: 2_000.0,
        full_feature_dim: 64,
        symbol_rate_hz: 1e6,
    };
    let cases = [
        ("adapt/fleet_20k_plain", fleet(None, None)),
        ("adapt/fleet_20k_adaptive", fleet(Some(adapt.clone()), None)),
        (
            "adapt/fleet_20k_adaptive_offload",
            fleet(Some(adapt), Some(OffloadConfig::default())),
        ),
    ];
    for (name, config) in cases {
        let sim = FleetSim::new(config, Topology::default());
        c.bench_function(name, |b| {
            b.iter(|| {
                let opts = RunOptions {
                    hist: true,
                    ..RunOptions::default()
                };
                std::hint::black_box(sim.run_with(14, opts).expect("no series").report)
            })
        });
    }
}

criterion_group!(benches, bench_policy_step, bench_fleet_overhead);
criterion_main!(benches);
