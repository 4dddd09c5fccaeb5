//! T7 — fault-tolerant decoder sync under injected transport faults
//! (§II-D hardening; companion to T6's PHY-level study).
//!
//! Where T6 asks *what goes wrong* when §II-D updates ride an unprotected
//! link, T7 measures what the hardened transport (`semcom_fl::transport`)
//! costs to make it *not* go wrong. A sender/receiver session is driven
//! through a seeded [`FaultyLink`] that drops, corrupts, duplicates, and
//! reorders whole sync frames, sweeping the fault rate against:
//!
//! * (a) receiver/sender parameter divergence — must stay within one
//!   round's quantization error at *every* fault rate;
//! * (b) resync frequency — how often graceful degradation to a full-model
//!   frame kicks in;
//! * (c) sync bytes overhead — wire bytes and retransmission factor paid
//!   for the fault tolerance.
//!
//! Section B repeats the exercise over a real PHY: frames ride the
//! CRC-framed stop-and-wait [`ArqPipeline`] over an AWGN channel wrapped in
//! [`FaultyChannel`] whole-transmission erasure.
//!
//! The parameter trajectory is a seeded random walk rather than a trained
//! model: the transport does not care where deltas come from, and keeping
//! the trainer out makes the sweep deterministic at any `SEMCOM_THREADS`
//! (this binary is golden-checked by `scripts/ci.sh`, like F2/F4/F6).
//!
//! Invariants asserted on every row (the process aborts if violated):
//! whenever a round reports `Synced`, the receiver's committed parameters
//! hash to exactly the sender's shadow digest — injected corruption either
//! never commits (wire decode / digest rejection) or is repaired by a full
//! resync before the round ends.

use rand::rngs::StdRng;
use rand::Rng;
use semcom_bench::banner;
use semcom_channel::coding::HammingCode74;
use semcom_channel::{
    ArqPipeline, AwgnChannel, BitPipeline, FaultConfig, FaultyChannel, FaultyLink, Modulation,
};
use semcom_fl::{
    param_digest, run_sync_round, ArqLink, RoundOutcome, SyncLink, SyncProtocol, SyncReceiver,
    SyncSender, TransportConfig, TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_obs::Recorder;

/// Decoder-sized parameter layout: one 24x16 weight matrix plus bias row.
fn initial_params() -> ParamVec {
    let shapes = vec![(24, 16), (1, 16)];
    let n: usize = shapes.iter().map(|&(r, c)| r * c).sum();
    let data = (0..n).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    ParamVec::from_parts(shapes, data).expect("layout is consistent")
}

/// One seeded training-round surrogate: every parameter takes a bounded
/// random step (|step| <= 0.05), like a small SGD update would.
fn drift(state: &ParamVec, rng: &mut StdRng) -> ParamVec {
    let data = state
        .as_slice()
        .iter()
        .map(|v| v + ((rng.gen::<f64>() - 0.5) * 0.1) as f32)
        .collect();
    ParamVec::from_parts(state.shapes().to_vec(), data).expect("drift keeps layout")
}

fn max_abs_divergence(a: &ParamVec, b: &ParamVec) -> f32 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f32, f32::max)
}

struct CellResult {
    synced: u64,
    stats: TransportStats,
    receiver: SyncReceiver,
    max_div: f32,
    invariant_violations: u64,
}

/// Drives `rounds` sync rounds over `link`, then drains any pending forced
/// resync so the session ends converged (the repair path the system would
/// run before the next message anyway).
fn run_session(
    protocol: SyncProtocol,
    link: &mut dyn SyncLink,
    rounds: u64,
    config: &TransportConfig,
    seed: u64,
) -> CellResult {
    let initial = initial_params();
    let mut sender = SyncSender::new(protocol, initial.clone());
    let mut receiver = SyncReceiver::new();
    let mut rx_params = initial.clone();
    let mut state = initial;
    let mut drift_rng = seeded_rng(seed);
    let mut link_rng = seeded_rng(seed ^ 0x5EED);
    let mut stats = TransportStats::default();
    let mut synced = 0u64;
    let mut invariant_violations = 0u64;

    let check = |out: RoundOutcome,
                 rx: &ParamVec,
                 sender: &SyncSender,
                 synced: &mut u64,
                 violations: &mut u64| {
        if matches!(out, RoundOutcome::Synced { .. }) {
            *synced += 1;
            if param_digest(rx) != param_digest(sender.shadow()) {
                *violations += 1;
            }
        }
    };

    for _ in 0..rounds {
        state = drift(&state, &mut drift_rng);
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &state,
            link,
            &mut link_rng,
            config,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        check(
            out,
            &rx_params,
            &sender,
            &mut synced,
            &mut invariant_violations,
        );
    }
    // Repair drain: a trailing failure leaves the session flagged for a
    // forced resync; give it a few extra rounds to land.
    let mut drains = 0;
    while sender.needs_resync() && drains < 5 {
        drains += 1;
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &state,
            link,
            &mut link_rng,
            config,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        check(
            out,
            &rx_params,
            &sender,
            &mut synced,
            &mut invariant_violations,
        );
    }

    CellResult {
        synced,
        stats,
        receiver,
        max_div: max_abs_divergence(&rx_params, &state),
        invariant_violations,
    }
}

/// Divergence tolerance: exact protocols must land bit-close; int8 is
/// allowed one round's quantization error (scale = max|delta|/127, and the
/// drain ends on a full resync when anything failed).
fn tolerance(protocol: SyncProtocol) -> f32 {
    match protocol {
        SyncProtocol::QuantizedInt8 => 0.01,
        _ => 1e-5,
    }
}

fn proto_name(p: SyncProtocol) -> &'static str {
    match p {
        SyncProtocol::FullModel => "full_model",
        SyncProtocol::DenseDelta => "dense_delta",
        SyncProtocol::QuantizedInt8 => "quantized_int8",
        SyncProtocol::TopK(_) => "top_k",
    }
}

fn main() {
    banner(
        "T7",
        "fault-tolerant decoder sync under injected faults",
        "the gradient of decoder d_u^m will be transmitted to the receiver \
         ... to synchronize d_u^m (Sec. II-D); reliability ... can also be \
         studied and addressed in this system (Sec. III-C)",
    );
    const ROUNDS: u64 = 30;
    let config = TransportConfig {
        update_attempts: 3,
        resync_attempts: 10,
        backoff_base: 1,
    };

    println!("\n-- A: frame-plane faults (drop/corrupt/duplicate/reorder at `rate` each) --");
    println!(
        "rate,protocol,synced,resyncs,fail,inj_drop,inj_corr,inj_dup,inj_reord,\
         rej_dec,rej_gap,rej_dig,rej_dsy,stale,frames,wire_kb,xmit,max_div,verdict"
    );
    for (ri, rate) in [0.0, 0.05, 0.15, 0.30].into_iter().enumerate() {
        for (pi, protocol) in [
            SyncProtocol::FullModel,
            SyncProtocol::DenseDelta,
            SyncProtocol::QuantizedInt8,
        ]
        .into_iter()
        .enumerate()
        {
            let mut link = FaultyLink::new(FaultConfig::uniform(rate), 9100 + ri as u64);
            let cell = run_session(
                protocol,
                &mut link,
                ROUNDS,
                &config,
                9000 + (ri * 10 + pi) as u64,
            );
            let inj = link.stats();
            let r = cell.receiver.stats();
            let s = cell.stats;
            let ok = cell.invariant_violations == 0
                && s.failures == 0
                && cell.max_div <= tolerance(protocol);
            println!(
                "{rate},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{:.1},{:.2},{:.6},{}",
                proto_name(protocol),
                cell.synced,
                s.resyncs,
                s.failures,
                inj.dropped,
                inj.corrupted,
                inj.duplicated,
                inj.reordered,
                r.rej_decode,
                r.rej_gap,
                r.rej_digest,
                r.rej_desync,
                r.stale,
                s.frames_sent,
                s.wire_bytes as f64 / 1024.0,
                s.frames_sent as f64 / s.rounds as f64,
                cell.max_div,
                if ok { "ok" } else { "FAIL" }
            );
            assert_eq!(
                cell.invariant_violations,
                0,
                "rate {rate} {}: a Synced round left receiver != sender shadow",
                proto_name(protocol)
            );
        }
    }

    println!("\n-- B: PHY-plane faults (ARQ/Hamming74/BPSK over AWGN 8 dB + erasure) --");
    println!("phy_drop,synced,resyncs,fail,frames,delivered,ksymbols,max_div,verdict");
    for (ri, phy_drop) in [0.0, 0.15, 0.35].into_iter().enumerate() {
        let arq = ArqPipeline::new(
            BitPipeline::new(Box::new(HammingCode74), Modulation::Bpsk),
            6,
        );
        let channel = FaultyChannel::new(AwgnChannel::new(8.0), phy_drop, 0.0);
        let mut link = ArqLink::new(arq, Box::new(channel));
        let cell = run_session(
            SyncProtocol::DenseDelta,
            &mut link,
            12,
            &config,
            9700 + ri as u64 * 101,
        );
        let (offered, delivered) = link.delivery_counts();
        let ok = cell.invariant_violations == 0
            && cell.stats.failures == 0
            && cell.max_div <= tolerance(SyncProtocol::DenseDelta);
        println!(
            "{phy_drop},{},{},{},{offered},{delivered},{:.1},{:.6},{}",
            cell.synced,
            cell.stats.resyncs,
            cell.stats.failures,
            link.symbols_used() as f64 / 1e3,
            cell.max_div,
            if ok { "ok" } else { "FAIL" }
        );
        assert_eq!(cell.invariant_violations, 0, "PHY drop {phy_drop}");
    }

    println!("\nexpected shape: at rate 0 every protocol syncs every round with no");
    println!("retries or resyncs and xmit = 1.00. As the fault rate rises, corrupted");
    println!("frames are rejected at wire decode or by the post-apply digest, lost");
    println!("deltas surface as sequence gaps that force full-model resyncs, and the");
    println!("retransmission factor grows — but every row stays `ok`: the receiver");
    println!("never commits a corrupt state and ends within quantization error of");
    println!("the sender. full_model pays the most wire bytes but resyncs are free");
    println!("re-anchors; quantized_int8 pays the least but its resync frames cost");
    println!("full-model bytes. Under PHY erasure the ARQ layer absorbs most loss");
    println!("(delivered ≈ offered) at the price of extra symbols.");
}
