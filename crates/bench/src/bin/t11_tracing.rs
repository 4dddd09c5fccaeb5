//! T11 — causal tracing, time-series telemetry, and the SLO watchdog.
//!
//! PR 10's observability layer, end to end. Four sections:
//!
//! * **A — serving span trees**: the same 36-message workload served
//!   one ticket at a time (`send_message`) and in windows (`send_stream`)
//!   produces node-for-node identical span trees — span identity is
//!   content-derived, so the trace structure is a pure function of the
//!   messages, not of window width or worker scheduling.
//! * **B — transport spans**: T7-style sync rounds over a seeded
//!   [`FaultyLink`], each round a `sync_session` root with `sync_round`,
//!   per-try `attempt`, and `resync` children — retries become visible
//!   causal structure.
//! * **C — flash crowd**: the F14 fleet under overload with tracing, a
//!   0.5 s-window [`TimeSeriesSampler`], and an armed [`SloSpec`]. The
//!   Perfetto export digests identically at any `SEMCOM_THREADS`
//!   (virtual-time timestamps), the series turns the crowd into curves,
//!   and the watchdog emits typed `slo_breach` journal events.
//! * **D — sharded trace merge**: the same crowd through
//!   [`ShardedFleetSim::run_observed`] — per-shard buffers merge in fixed
//!   shard order with `(shard+1) << 48` trace-id offsets.
//! * **E — migration trace**: a decoder-copy migration recorded as a
//!   `migration` root with per-domain `sync_round` children, plus the
//!   edge-state accounting (`buffer_count` / `session_count`) that shows
//!   the state actually moved.
//!
//! Everything printed to stdout is structural or virtual-time data, so
//! the whole stdout is byte-identical at any `SEMCOM_THREADS` —
//! `scripts/ci.sh` diffs the golden at 1 and 4 workers. Timing prose
//! (wall-clock, full snapshots) goes to stderr.

use std::collections::BTreeMap;

use semcom::{SemanticEdgeSystem, SystemConfig, UserId};
use semcom_bench::banner;
use semcom_channel::adapt::{AdaptEntry, AdaptSpec};
use semcom_channel::{FaultConfig, FaultyLink, LinkConfig, Modulation};
use semcom_edge::placement::MessageCost;
use semcom_edge::{
    Assignment, FleetAdapt, FleetConfig, FleetSim, OffloadConfig, RunOptions, SessionPlacement,
    ShardedFleetConfig, ShardedFleetSim, Topology,
};
use semcom_fl::{
    run_sync_round, PerfectLink, RoundOutcome, SyncProtocol, SyncReceiver, SyncSender,
    TransportConfig, TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_obs::{
    parse_json, Event, Recorder, SloSpec, SpanContext, Stage, TraceBuffer, TraceSpan,
};
use semcom_text::Domain;

/// FNV-1a 64-bit digest: a compact golden-friendly fingerprint of the
/// (deterministic) Perfetto JSON bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn print_counts(label: &str, counts: &BTreeMap<&'static str, usize>) {
    print!("{label}");
    for (name, n) in counts {
        print!(",{name}={n}");
    }
    println!();
}

/// Asserts the buffer is a well-formed forest: exactly one root per
/// trace, no drops.
fn assert_well_formed(buf: &TraceBuffer) -> usize {
    assert_eq!(buf.dropped(), 0, "trace buffer overflowed");
    let roots = buf.roots_per_trace();
    assert!(
        roots.values().all(|&n| n == 1),
        "every trace has exactly one root"
    );
    roots.len()
}

// -- A: serving span trees ------------------------------------------------

fn traced_system(seed: u64) -> (SemanticEdgeSystem, Recorder) {
    let rec = Recorder::with_ticks_and_trace();
    let mut sys = SemanticEdgeSystem::build(SystemConfig::tiny(), seed);
    sys.attach_recorder(rec.clone());
    (sys, rec)
}

fn register_users(sys: &mut SemanticEdgeSystem) -> Vec<UserId> {
    [Domain::It, Domain::News, Domain::Medical]
        .iter()
        .map(|&d| sys.register_user(d, 1.5))
        .collect()
}

fn section_a() {
    println!("\n--- A: serving span trees (message vs stream) ---");
    const ROUNDS: usize = 12;
    let (mut msg, rec_msg) = traced_system(21);
    let users = register_users(&mut msg);
    for _ in 0..ROUNDS {
        for &u in &users {
            msg.send_message(u);
        }
    }
    let (mut stream, rec_stream) = traced_system(21);
    let users = register_users(&mut stream);
    for _ in 0..ROUNDS {
        stream.send_stream(&users);
    }

    let buf = rec_msg.trace_buffer().expect("tracing enabled");
    let lines = buf.structural_lines();
    let windowed = rec_stream.trace_buffer().expect("tracing enabled");
    assert_eq!(
        lines,
        windowed.structural_lines(),
        "send_stream span tree diverges from send_message"
    );
    println!("messages,{}", ROUNDS * users.len());
    println!("traces,{}", assert_well_formed(&buf));
    println!("spans,{}", buf.len());
    print_counts("spans_by_name", &buf.counts_by_name());
    println!("structural_match,message=stream");
    println!("first_tree:");
    for line in lines.iter().filter(|l| l.starts_with("trace=0 ")) {
        println!("  {line}");
    }
}

// -- B: transport spans over a faulty link --------------------------------

/// Trace-id range for standalone transport sessions (high byte 2), clear
/// of message (raw index) and migration (high byte 1) traces.
const SESSION_TRACE_BASE: u64 = 2 << 56;

fn section_b() {
    println!("\n--- B: sync transport spans over a faulty link (rate 0.3) ---");
    let rec = Recorder::with_ticks_and_trace();
    let shapes = vec![(16, 12), (1, 12)];
    let n: usize = shapes.iter().map(|&(r, c)| r * c).sum();
    let data = (0..n).map(|i| ((i % 13) as f32 - 6.0) * 0.02).collect();
    let initial = ParamVec::from_parts(shapes, data).expect("layout is consistent");
    let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
    let mut receiver = SyncReceiver::new();
    let mut rx_params = initial.clone();
    let mut state = initial;
    let mut rng = seeded_rng(1111 ^ 0x5EED);
    let mut link = FaultyLink::new(FaultConfig::uniform(0.3), 1107);
    let tcfg = TransportConfig {
        update_attempts: 3,
        resync_attempts: 8,
        backoff_base: 1,
    };
    let mut tstats = TransportStats::default();
    let mut synced = 0u64;
    const ROUNDS: u64 = 12;
    for i in 0..ROUNDS {
        let stepped: Vec<f32> = state.as_slice().iter().map(|v| v + 0.02).collect();
        state = ParamVec::from_parts(state.shapes().to_vec(), stepped).expect("layout kept");
        let parent = SpanContext::root(SESSION_TRACE_BASE | i);
        let t0 = rec.now_ns();
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &state,
            &mut link,
            &mut rng,
            &tcfg,
            &mut tstats,
            &rec,
            2_000 + i,
            Some((parent, 0)),
        );
        let dur = rec.now_ns().saturating_sub(t0);
        rec.trace_span(TraceSpan::new(parent, None, "sync_session", t0, dur));
        if matches!(out, RoundOutcome::Synced { .. }) {
            synced += 1;
        }
    }
    let buf = rec.trace_buffer().expect("tracing enabled");
    println!("rounds_synced,{synced}/{ROUNDS}");
    println!("transport_retries,{}", tstats.retries);
    println!("transport_resyncs,{}", tstats.resyncs);
    let s = link.stats();
    println!(
        "link_faults,frames={},perturbed={},drop/corrupt/dup/reorder={}/{}/{}/{}",
        s.frames,
        s.perturbed(),
        s.dropped,
        s.corrupted,
        s.duplicated,
        s.reordered
    );
    println!("traces,{}", assert_well_formed(&buf));
    print_counts("spans_by_name", &buf.counts_by_name());
    let counts = buf.counts_by_name();
    assert!(
        counts.get("attempt").copied().unwrap_or(0)
            > counts.get("sync_round").copied().unwrap_or(0),
        "faults force visible retries"
    );
}

// -- C/D: flash crowd -----------------------------------------------------

/// Feature dimensionality the adaptation table modulates (matches F14).
const FULL_DIM: usize = 16;

fn adaptive_spec() -> AdaptSpec {
    AdaptSpec {
        entries: vec![
            AdaptEntry {
                min_snr_db: -100.0,
                link: LinkConfig {
                    modulation: Modulation::Bpsk,
                    code_rate: 0.5,
                    feature_dim: 12,
                },
            },
            AdaptEntry {
                min_snr_db: 4.0,
                link: LinkConfig {
                    modulation: Modulation::Qpsk,
                    code_rate: 0.75,
                    feature_dim: 12,
                },
            },
            AdaptEntry {
                min_snr_db: 10.0,
                link: LinkConfig {
                    modulation: Modulation::Qam16,
                    code_rate: 0.9,
                    feature_dim: FULL_DIM,
                },
            },
        ],
        ..AdaptSpec::standard(FULL_DIM)
    }
}

/// The F14 flash-crowd fleet, scaled to 4 000 requests so the trace fits
/// the default buffer: 4 edges under a 1.6 kHz crowd with heavy decodes,
/// per-cell adaptation, busy-fraction offloading, and batched dispatch
/// (so node queues actually form and the queue-depth curve moves).
fn flash_config() -> FleetConfig {
    FleetConfig {
        n_edges: 4,
        n_requests: 4_000,
        arrival_rate_hz: 1_600.0,
        n_domains: 8,
        n_users: 200,
        max_batch: 4,
        message: MessageCost {
            encode_ops: 2e8,
            decode_ops: 2e8,
            ..MessageCost::default()
        },
        adapt: Some(FleetAdapt {
            spec: adaptive_spec(),
            payload_bits: 20_000.0,
            full_feature_dim: FULL_DIM,
            symbol_rate_hz: 1e6,
        }),
        offload: Some(OffloadConfig {
            busy_frac_threshold: 0.7,
            ..OffloadConfig::default()
        }),
        ..FleetConfig::default()
    }
}

/// The armed objective: windowed p99 of request latency at or under
/// 20 ms, with 5% of requests allowed over target.
fn slo() -> SloSpec {
    SloSpec {
        stage: Stage::Message,
        target_p99_ns: 20_000_000,
        budget_milli: 50,
    }
}

fn section_c() {
    println!("\n--- C: flash crowd with tracing, series, and SLO watchdog ---");
    let rec = Recorder::with_ticks_and_trace();
    let sim = FleetSim::new(flash_config(), Topology::default());
    let t0 = std::time::Instant::now();
    let opts = RunOptions {
        hist: true,
        recorder: rec.clone(),
        series: Some((0.5, Some(slo()))),
        ..RunOptions::default()
    };
    let run = sim.run_with(14, opts).expect("valid interval");
    eprintln!("[timing] flash crowd run_with: {:?}", t0.elapsed());
    let (report, series) = (run.report, run.series.expect("series requested"));
    let slo_eval = run.slo.expect("slo armed");

    println!("requests,{}", report.latency.count);
    println!("hit_rate,{:.4}", report.hit_rate);
    println!("mean_ms,{:.3}", report.latency.mean * 1e3);
    println!("p99_ms,{:.3}", report.latency.p99 * 1e3);
    println!("offloaded,{}", report.offloaded);
    for c in [
        "fleet_requests",
        "fleet_served",
        "fleet_batches",
        "fleet_cache_hits",
        "fleet_cache_misses",
        "fleet_offloaded",
        "fleet_adapt_switches",
        "fleet_over_slo",
    ] {
        println!("{c},{}", rec.counter(c).unwrap_or(0));
    }

    // Causal trace: every request a root, offloads grow backhaul+cloud
    // legs, and the Perfetto export parses back and digests stably.
    let buf = rec.trace_buffer().expect("tracing enabled");
    let traces = assert_well_formed(&buf);
    assert_eq!(traces, report.latency.count, "one trace per request");
    println!("traces,{traces}");
    print_counts("spans_by_name", &buf.counts_by_name());
    let counts = buf.counts_by_name();
    assert_eq!(
        counts.get("backhaul"),
        counts.get("cloud"),
        "offload legs come in pairs"
    );
    assert!(
        counts.get("backhaul").copied().unwrap_or(0) > 0,
        "the crowd forces offloads"
    );
    let json = buf.to_perfetto_json();
    println!("perfetto_bytes,{}", json.len());
    println!("perfetto_fnv64,{:016x}", fnv64(json.as_bytes()));
    let doc = parse_json(&json).expect("perfetto JSON parses");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_arr())
        .expect("traceEvents array");
    assert_eq!(events.len(), buf.len());
    println!("perfetto_roundtrip,ok");

    // Time series: the flash crowd as curves (0.5 s virtual windows).
    let sj = series.to_json();
    let sdoc = parse_json(&sj).expect("series JSON parses");
    let pts = sdoc
        .get("series")
        .and_then(|s| s.as_arr())
        .expect("series array");
    assert_eq!(pts.len(), series.len());
    println!("series_points,{}", pts.len());
    println!("tick,window_requests,queue_depth,message_p99_ms");
    for p in pts {
        let tick = p.get("tick").and_then(|t| t.as_u64()).unwrap_or(0);
        let req = p
            .get("counters")
            .and_then(|c| c.get("fleet_requests"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let depth = p
            .get("gauges")
            .and_then(|g| g.get("fleet_queue_depth"))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let p99 = p
            .get("p99_ns")
            .and_then(|c| c.get("message"))
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        println!("{tick},{req},{depth:.0},{:.3}", p99 as f64 / 1e6);
    }

    // SLO watchdog: the crowd must breach, and each breach is a typed
    // journal event with its burn rate.
    println!("slo_windows,{}", slo_eval.windows());
    println!("slo_breaches,{}", slo_eval.breaches());
    println!("slo_burn_milli_total,{}", slo_eval.burn_milli_total());
    assert!(
        slo_eval.breaches() >= 1,
        "the flash crowd must breach the 20 ms p99 objective"
    );
    for r in &rec.snapshot().events {
        if let Event::SloBreach {
            stage,
            p99_ns,
            target_ns,
            burn_milli,
        } = r.event
        {
            println!(
                "slo_breach,stage={stage},p99_ms={:.3},target_ms={:.3},burn_milli={burn_milli}",
                p99_ns as f64 / 1e6,
                target_ns as f64 / 1e6
            );
        }
    }
}

fn section_d() {
    println!("\n--- D: sharded fleet trace merge (2 shards, fixed order) ---");
    let rec = Recorder::with_ticks_and_trace();
    let sim = ShardedFleetSim::new(
        ShardedFleetConfig {
            fleet: flash_config(),
            n_shards: 2,
            placement: SessionPlacement::Assigned(Assignment::Sticky),
            node_weights: None,
        },
        Topology::default(),
    );
    let r = sim.run_observed(14, &rec);
    let buf = rec.trace_buffer().expect("tracing enabled");
    let traces = assert_well_formed(&buf);
    println!("requests,{}", r.merged.latency.count);
    println!("traces,{traces}");
    assert_eq!(traces, r.merged.latency.count);
    let mut per_shard: BTreeMap<u64, u64> = BTreeMap::new();
    for t in buf.roots_per_trace().keys() {
        *per_shard
            .entry((t >> ShardedFleetSim::TRACE_SHARD_SHIFT) - 1)
            .or_insert(0) += 1;
    }
    for (s, n) in &per_shard {
        println!("shard{s}_traces,{n}");
    }
    assert_eq!(per_shard.len(), 2, "both shards contribute traces");
    println!(
        "sharded_fnv64,{:016x}",
        fnv64(buf.to_perfetto_json().as_bytes())
    );
}

// -- E: migration trace ---------------------------------------------------

fn section_e() {
    println!("\n--- E: migration trace (decoder copy over the backhaul) ---");
    let rec = Recorder::with_ticks_and_trace();
    let config = SystemConfig {
        n_edges: 3,
        ..SystemConfig::tiny()
    };
    let mut sys = SemanticEdgeSystem::build(config, 41);
    sys.attach_recorder(rec.clone());
    let mover = sys.register_user_at(Domain::It, 1.5, 0, 1);
    for _ in 0..40 {
        sys.send_message(mover);
    }
    let before = (
        sys.edge(0).buffer_count(),
        sys.edge(0).session_count(),
        sys.edge(2).buffer_count(),
    );
    let mut link = PerfectLink;
    let report = sys.migrate_user(mover, 2, &mut link);
    println!(
        "migration,user={},from={},to={},models_moved={},buffers_moved={},wire_bytes={}",
        report.user,
        report.from,
        report.to,
        report.models_moved,
        report.buffers_moved,
        report.transport.wire_bytes
    );
    println!("edge0_buffers,{}->{}", before.0, sys.edge(0).buffer_count());
    println!(
        "edge0_sessions,{}->{}",
        before.1,
        sys.edge(0).session_count()
    );
    println!("edge2_buffers,{}->{}", before.2, sys.edge(2).buffer_count());
    assert!(report.models_moved >= 1, "warm user model travels");
    assert!(
        sys.edge(0).buffer_count() < before.0 && sys.edge(2).buffer_count() > before.2,
        "mismatch buffers left edge 0 for edge 2"
    );

    let buf = rec.trace_buffer().expect("tracing enabled");
    assert_well_formed(&buf);
    print_counts("spans_by_name", &buf.counts_by_name());
    // The migration trace lives in its own id range (high byte 1): one
    // root with a per-domain sync_round child per moved model.
    let migration_spans: Vec<_> = buf
        .spans()
        .into_iter()
        .filter(|s| s.trace == 1 << 56)
        .collect();
    let roots = migration_spans
        .iter()
        .filter(|s| s.parent.is_none())
        .count();
    let syncs = migration_spans
        .iter()
        .filter(|s| s.name == "sync_round")
        .count();
    println!("migration_trace,root={roots},sync_rounds={syncs}");
    assert_eq!(roots, 1);
    assert_eq!(syncs, report.models_moved);
}

fn main() {
    banner(
        "T11",
        "causal tracing, time-series telemetry, and the SLO watchdog",
        "operating semantic edge serving at 6G/Metaverse scale (Sec. I, IV) \
         needs per-message causality (where did this request spend its \
         time?), dynamics over time (what did the flash crowd do to the \
         tail?), and typed objectives (did we break the latency SLO, and \
         how fast are we burning budget?)",
    );
    for (name, f) in [
        ("A", section_a as fn()),
        ("B", section_b),
        ("C", section_c),
        ("D", section_d),
        ("E", section_e),
    ] {
        let t0 = std::time::Instant::now();
        f();
        eprintln!("[timing] section {name}: {:?}", t0.elapsed());
    }

    println!("\nexpected shape: every window width builds node-for-node");
    println!("identical span trees (A); faulty-link retries surface as attempt");
    println!("spans under each sync_round (B); the flash crowd exports a stable");
    println!("Perfetto digest, per-window curves, and asserted slo_breach events");
    println!("with burn rates (C); sharded traces merge disjointly in shard");
    println!("order (D); and a migration is one root span whose sync_round");
    println!("children carry the decoder copies (E).");
}
