//! `fleet_replay`: the capacity-planning DES. One closed-loop call is one
//! `ShardedFleetSim::run` at ≈70 % utilisation with queueing, batching, link
//! adaptation and offload all active. It reports *host* speed (requests
//! simulated per wall second) and *simulated* statistics separately; the
//! simulated ones repeat exactly for a seed at any worker count.

use crate::measure::{closed_loop, median, peak_rss_mb, time_per_call, Origin};
use crate::probes::{self, PROBE_S};
use crate::spec;
use crate::{RunArgs, RunOutput};
use semcom_cache::workload::Workload;
use semcom_channel::adapt::AdaptSpec;
use semcom_edge::placement::MessageCost;
use semcom_edge::{
    merge_reports, Assignment, FleetAdapt, FleetConfig, FleetScaleReport, FleetSim, OffloadConfig,
    SessionPlacement, ShardedFleetConfig, ShardedFleetSim, Topology,
};
use semcom_nn::rng::derive_seed;
use semcom_obs::{SpanContext, TraceBuffer, TraceSpan};
use std::hint::black_box;
use std::time::Instant;

/// Requests per replay. The issue sized one 24 M-request replay over 1 M
/// users; a time-boxed run needs many calls, so requests and users are both
/// scaled by 1/16 (rates, edges, shards and costs are unchanged, and so are
/// utilisation, offload share and batch width).
const REQUESTS: u64 = 1_500_000;
const N_USERS: usize = 62_500;
const N_DOMAINS: usize = 64;
const N_EDGES: usize = 16;
const N_SHARDS: usize = 4;
const ARRIVAL_HZ: f64 = 3_600.0;

/// Replays in the fixed-count prefix; the pinned simulated statistics are
/// those of the first.
const DET_CALLS: u64 = 2;
const SETUPS: usize = 3;

fn fleet_config(requests: u64) -> FleetConfig {
    FleetConfig {
        n_edges: N_EDGES,
        n_requests: requests as usize,
        arrival_rate_hz: ARRIVAL_HZ,
        n_domains: N_DOMAINS,
        n_users: N_USERS,
        max_batch: 8,
        message: MessageCost {
            encode_ops: 2e8,
            decode_ops: 2e8,
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

struct Fleet {
    sim: ShardedFleetSim,
    seed: u64,
    requests: u64,
    first: Option<FleetScaleReport>,
    last: Option<FleetScaleReport>,
    attempted: u64,
    failed: u64,
    events: u64,
    imbalance: Vec<f64>,
}

/// Builds the simulator and replays once untimed (page faults, allocator
/// growth): everything before the first measured call.
fn setup(args: &RunArgs) -> Fleet {
    let requests = args.scaled(REQUESTS);
    let sim = ShardedFleetSim::new(
        ShardedFleetConfig {
            fleet: fleet_config(requests),
            n_shards: N_SHARDS,
            placement: SessionPlacement::Assigned(Assignment::Sticky),
            node_weights: None,
        },
        Topology::default(),
    );
    black_box(sim.run(derive_seed(args.seed, u64::MAX)));
    Fleet {
        sim,
        seed: args.seed,
        requests,
        first: None,
        last: None,
        attempted: 0,
        failed: 0,
        events: 0,
        imbalance: Vec::new(),
    }
}

fn drive(f: &mut Fleet, seconds: f64, min_calls: u64) -> crate::measure::LoopStats {
    closed_loop(
        f,
        seconds,
        min_calls,
        |_, _| {},
        |f, i| {
            f.last = Some(f.sim.run(derive_seed(f.seed, i)));
            f.requests
        },
        |f, _, _| {
            let report = f.last.take().expect("set by the call");
            f.attempted += 1;
            f.failed += (report.merged.latency.count as u64 != f.requests) as u64;
            f.events += report.stats.iter().map(|s| s.events_total).sum::<u64>();
            let walls: Vec<f64> = report.stats.iter().map(|s| s.wall_ns as f64).collect();
            let mean = walls.iter().sum::<f64>() / walls.len() as f64;
            f.imbalance
                .push(walls.iter().cloned().fold(0.0, f64::max) / mean);
            if f.first.is_none() {
                f.first = Some(report);
            }
        },
    )
}

/// One run of `fleet_replay`.
pub fn run(args: &RunArgs) -> RunOutput {
    let mut out = RunOutput::default();
    let mut times = Vec::new();
    let mut fleet = None;
    for _ in 0..if args.quick || args.trace { 1 } else { SETUPS } {
        drop(fleet.take());
        let t0 = Instant::now();
        fleet = Some(setup(args));
        times.push(t0.elapsed().as_secs_f64());
    }
    let mut fleet = fleet.expect("at least one set-up");
    let seconds = if args.trace {
        0.6 * args.seconds
    } else {
        args.seconds
    };
    let origin = Origin::now();
    let t0 = Instant::now();
    let stats = drive(&mut fleet, seconds, args.scaled(DET_CALLS));
    let wall_s = t0.elapsed().as_secs_f64();

    let first = fleet.first.as_ref().expect("at least one replay ran");
    let merged = &first.merged;
    if fleet.failed > 0 {
        out.problems
            .push(format!("{} replays lost requests", fleet.failed));
    }
    if !(0.0..=1.0).contains(&merged.hit_rate) || merged.latency.p99 <= 0.0 {
        out.problems
            .push("simulated statistics out of range".into());
    }
    let offloaded_share = merged.offloaded as f64 / fleet.requests as f64;
    let utilization =
        merged.utilization.iter().sum::<f64>() / merged.utilization.len().max(1) as f64;
    let queue_peak = first
        .stats
        .iter()
        .map(|s| s.queue_depth_peak)
        .max()
        .unwrap_or(0);
    out.pin("sim_p99_ms", merged.latency.p99 * 1e3);
    out.pin("sim_hit_rate", merged.hit_rate);
    out.pin("edge.offloaded_share", offloaded_share);
    out.pin("edge.mean_batch", merged.mean_batch);
    out.pin("edge.utilization_mean", utilization);
    out.pin("edge.queue_depth_peak", queue_peak as f64);
    out.attempted = fleet.attempted;
    out.failed = fleet.failed;

    if !args.trace {
        out.metric(spec::SETUP_S, median(&times));
        out.metric(spec::MSGS_PER_S, stats.msgs_per_s);
        out.metric(spec::CALL_P50, stats.p50_us);
        out.metric(spec::PEAK_RSS, peak_rss_mb());
        return out;
    }

    out.metric("sim_p99_ms", merged.latency.p99 * 1e3);
    out.metric("sim_hit_rate", merged.hit_rate);
    out.metric("edge.offloaded_share", offloaded_share);
    out.metric("edge.mean_batch", merged.mean_batch);
    out.metric("edge.utilization_mean", utilization);
    out.metric("edge.queue_depth_peak", queue_peak as f64);
    out.metric("edge.events_per_s", fleet.events as f64 / wall_s);
    out.metric("edge.shard_wall_imbalance", median(&fleet.imbalance));
    out.metric("par.workers", semcom_par::max_workers() as f64);
    out.metric("bench.window_spread_pct", stats.window_spread_pct);
    out.metric("call_latency_p95_us", stats.p95_us);

    // Probes: the pieces a replay is made of, each through its public entry.
    let plans = fleet.sim.plan(args.seed);
    out.metric(
        "edge.plan_ms",
        time_per_call(PROBE_S, 8, || {
            black_box(fleet.sim.plan(args.seed));
        }) * 1e3,
    );
    out.metric(
        "edge.merge_us",
        time_per_call(PROBE_S, 8, || {
            black_box(merge_reports(&first.shards));
        }) * 1e6,
    );
    let shard = &plans[0];
    let t0 = Instant::now();
    black_box(FleetSim::new(shard.config.clone(), Topology::default()).run_hist(shard.seed));
    out.metric(
        "edge.single_loop_requests_per_s",
        shard.config.n_requests as f64 / t0.elapsed().as_secs_f64(),
    );
    let arrivals = shard.config.n_requests;
    let t0 = Instant::now();
    let stream = Workload::standard(shard.config.n_domains, shard.config.n_users, 0.9)
        .into_stream(shard.config.arrival_rate_hz, shard.seed);
    black_box(stream.take(arrivals).fold(0.0, |acc, (at, _)| acc + at));
    out.metric(
        "edge.arrival_stream_mreq_per_s",
        arrivals as f64 / t0.elapsed().as_secs_f64() / 1e6,
    );
    out.metric(
        "cache.replay_mreq_per_s",
        probes::cache_replay_mreq_per_s(N_DOMAINS, N_USERS, args.seed),
    );
    out.metric(
        "channel.link_step_ns",
        probes::link_step_ns(&AdaptSpec::standard(64), args.seed),
    );

    // The traced replay: one span per replay with a child per shard, and the
    // cost of recording them against an untraced replay of the same seed.
    let trace = TraceBuffer::new(64);
    let root = SpanContext::root(0);
    let t0 = Instant::now();
    let start = origin.ns();
    let report = fleet.sim.run(derive_seed(args.seed, 0));
    let dur = origin.ns() - start;
    for (s, stats) in report.stats.iter().enumerate() {
        trace.record(TraceSpan::new(
            root.child(s as u64),
            Some(root.span),
            "edge.shard",
            start,
            stats.wall_ns,
        ));
    }
    trace.record(TraceSpan::new(root, None, "edge.fleet_run", start, dur));
    let traced_us = t0.elapsed().as_secs_f64() * 1e6;
    out.metric(
        "bench.trace_overhead_pct",
        100.0 * (traced_us - stats.p50_us) / stats.p50_us,
    );
    if report.merged != *merged {
        out.problems
            .push("the same seed replayed to different simulated statistics".into());
    }
    if let Err(e) = crate::write_trace(args.workload, &trace) {
        out.problems.push(e);
    }
    out
}
