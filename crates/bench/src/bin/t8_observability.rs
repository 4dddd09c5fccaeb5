//! T8 — unified observability: per-stage latency histograms, counters, and
//! the event journal over a mixed fleet + faulty-sync + PHY workload.
//!
//! One shared [`Recorder`] (on a deterministic [`TickClock`], journal
//! capped at 48 records so the golden exercises ring wraparound) watches
//! three very different workloads:
//!
//! * **A — fleet**: a tight-cache [`SemanticEdgeSystem`] with an edge
//!   restart mid-run, so the journal fills with training triggers, cache
//!   evictions, domain misselections, and restart-induced sync repair;
//! * **B — faulty sync**: a T7-style transport session over a seeded
//!   [`FaultyLink`], journaling per-cause sync rejections and resyncs;
//! * **C — PHY**: packed transmits through an instrumented
//!   [`BitPipeline`], filling the five PHY stage histograms.
//!
//! Stdout ends with `Snapshot::to_json_deterministic()` — counters,
//! gauges, histogram sample *counts*, and the journal without timestamps.
//! That section is golden-checked by `scripts/ci.sh` and must stay
//! byte-identical at any `SEMCOM_THREADS` (the workloads are deterministic:
//! training batches stay under the serial-path threshold, the PHY pipeline
//! is bit-identical at any worker count, and events are emitted only from
//! the single-threaded driver). The *full* snapshot — tick-clock durations
//! and quantiles included — plus the Prometheus export goes to stderr,
//! where timing data belongs: reported, never golden-checked.

use semcom::{SelectionStrategy, SemanticEdgeSystem, SystemConfig};
use semcom_bench::banner;
use semcom_channel::coding::HammingCode74;
use semcom_channel::{
    AwgnChannel, BitPipeline, BitVec, FaultConfig, FaultyLink, Modulation, TransmitScratch,
};
use semcom_fl::{
    run_sync_round, RoundOutcome, SyncProtocol, SyncReceiver, SyncSender, TransportConfig,
    TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_obs::{Recorder, TickClock};
use semcom_text::Domain;

/// Journal capacity: small enough that section A+B overflow it, so the
/// golden pins overwrite-oldest wraparound (`events_dropped > 0`).
const JOURNAL_CAP: usize = 48;

fn main() {
    banner(
        "T8",
        "unified observability: stage latency, counters, event journal",
        "the whole semantic edge system (Fig. 1) — selection, semantic \
         codecs, caching, and decoder sync — runs as one pipeline; \
         operating it at 6G/Metaverse scale (Sec. I) requires visibility \
         into where time, bytes, and failures go per stage",
    );

    let recorder = Recorder::new(Box::new(TickClock::new(1)), JOURNAL_CAP);

    // -- A: fleet under cache pressure with an edge restart ---------------
    println!("\n-- A: 8-user fleet, tight caches, edge restart mid-run --");
    let config = SystemConfig {
        user_cache_bytes: 20_000,
        n_edges: 3,
        selection: SelectionStrategy::Bandit {
            epsilon: 0.1,
            learning_rate: 0.5,
        },
        ..SystemConfig::tiny()
    };
    let mut system = SemanticEdgeSystem::build(config, 11);
    system.attach_recorder(recorder.clone());

    let mut users = Vec::new();
    for (i, d) in Domain::ALL.iter().cycle().take(8).enumerate() {
        let strength = 0.5 + (i % 4) as f64 * 0.5;
        users.push(system.register_user_at(*d, strength, i % 3, (i + 1) % 3));
    }
    for _round in 0..30 {
        for &u in &users {
            system.send_message(u);
        }
    }
    system.restart_edge(1);
    for _round in 0..10 {
        for &u in &users {
            system.send_message(u);
        }
    }
    let m = system.metrics();
    println!("metric,value");
    println!("messages,{}", m.messages);
    println!("trainings,{}", m.trainings);
    println!("cache_evictions,{}", m.user_cache.evictions);
    println!("sync_rejected,{}", m.sync_rejected);
    println!(
        "sync_rejected_by_cause,{}/{}/{}/{}",
        m.sync_rej_decode, m.sync_rej_gap, m.sync_rej_digest, m.sync_rej_other
    );
    println!("sync_resyncs,{}", m.sync_resyncs);

    // -- B: faulty decoder sync (per-cause rejections into the journal) ---
    println!("\n-- B: 20 DenseDelta sync rounds over a faulty link (rate 0.25) --");
    let shapes = vec![(24, 16), (1, 16)];
    let n: usize = shapes.iter().map(|&(r, c)| r * c).sum();
    let data = (0..n).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    let initial = ParamVec::from_parts(shapes, data).expect("layout is consistent");
    let mut sender = SyncSender::new(SyncProtocol::DenseDelta, initial.clone());
    let mut sync_receiver = SyncReceiver::new();
    let mut rx_params = initial.clone();
    let mut state = initial;
    let mut link_rng = seeded_rng(808 ^ 0x5EED);
    let mut link = FaultyLink::new(FaultConfig::uniform(0.25), 8101);
    let tcfg = TransportConfig {
        update_attempts: 3,
        resync_attempts: 10,
        backoff_base: 1,
    };
    let mut tstats = TransportStats::default();
    let mut synced = 0u64;
    for _ in 0..20 {
        let stepped: Vec<f32> = state.as_slice().iter().map(|v| v + 0.01).collect();
        state = ParamVec::from_parts(state.shapes().to_vec(), stepped).expect("layout kept");
        let out = run_sync_round(
            &mut sender,
            &mut sync_receiver,
            &mut rx_params,
            &state,
            &mut link,
            &mut link_rng,
            &tcfg,
            &mut tstats,
            &recorder,
            1000,
            None,
        );
        if matches!(out, RoundOutcome::Synced { .. }) {
            synced += 1;
        }
    }
    let r = sync_receiver.stats();
    println!("metric,value");
    println!("rounds_synced,{synced}/20");
    println!("transport_resyncs,{}", tstats.resyncs);
    println!("transport_retries,{}", tstats.retries);
    println!(
        "receiver_rejections_dec/gap/dig/dsy,{}/{}/{}/{}",
        r.rej_decode, r.rej_gap, r.rej_digest, r.rej_desync
    );

    // -- C: instrumented PHY pipeline ------------------------------------
    println!("\n-- C: 12 packed transmits (Hamming74 + 16-QAM, AWGN 8 dB) --");
    let pipeline = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16)
        .with_recorder(recorder.clone());
    let channel = AwgnChannel::new(8.0);
    let mut phy_rng = seeded_rng(99);
    let mut scratch = TransmitScratch::new();
    let payload: Vec<u8> = (0..2048).map(|i| ((i * 7 + 1) % 2) as u8).collect();
    let bits = BitVec::from_u8_bits(&payload);
    let mut bit_errors = 0usize;
    for _ in 0..12 {
        let out = pipeline.transmit_packed(&bits, &channel, &mut phy_rng, &mut scratch);
        bit_errors += (0..bits.len())
            .filter(|&i| bits.get(i) != out.get(i))
            .count();
    }
    println!("metric,value");
    println!("transmits,12");
    println!("payload_bits_each,{}", bits.len());
    println!("total_bit_errors,{bit_errors}");

    // -- unified export ---------------------------------------------------
    // The deterministic section (golden-checked): counters, gauges,
    // histogram counts, and the journal without timestamps.
    let snapshot = system.observability_snapshot();
    println!("\n=== deterministic snapshot ===");
    println!("{}", snapshot.to_json_deterministic());

    // Timing data (tick-clock durations, quantiles) and the Prometheus
    // export are real output too — but clock interleaving is
    // schedule-dependent, so they are reported on stderr, outside the
    // golden.
    eprintln!("=== full snapshot (JSON, stderr) ===");
    eprintln!("{}", snapshot.to_json());
    eprintln!("\n=== Prometheus export (stderr) ===");
    eprintln!("{}", snapshot.to_prom());

    println!("\nexpected shape: section A fills the journal with training triggers,");
    println!("evictions, and restart-induced sync repair; section B adds per-cause");
    println!("sync_rejected and resync events; section C fills the five PHY stage");
    println!("histograms. The journal holds only the newest 48 records, so");
    println!("events_dropped > 0 — the ring wrapped and said so.");
}
