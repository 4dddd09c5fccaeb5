//! T6 — decoder synchronization over an unreliable link (§III-C:
//! "security, privacy, and reliability can also be studied in this
//! system").
//!
//! The §II-D decoder updates are serialized to their real wire format and
//! pushed through a binary symmetric channel at varying bit-error rates,
//! under three delivery strategies:
//!
//! * `unprotected` — apply whatever arrives (corrupted floats poison the
//!   receiver's decoder);
//! * `crc_drop` — drop the whole update on CRC-32 failure (receiver goes
//!   stale but is never poisoned);
//! * `framed_arq` — fragment into 1 kB frames, each CRC-16 protected and
//!   retransmitted up to 8 times (stop-and-wait).

use rand::rngs::StdRng;
use semcom_bench::{banner, build_setup};
use semcom_channel::coding::crc32;
use semcom_channel::{AwgnChannel, BinarySymmetricChannel, BitVec};
use semcom_codec::mismatch::mismatch_rate;
use semcom_codec::train::{TrainConfig, Trainer};
use semcom_fl::{DecoderSync, SyncProtocol, SyncUpdate};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_text::{CorpusGenerator, Domain, Idiolect, IdiolectConfig, Rendering};

const FRAME_BYTES: usize = 1024;
const MAX_ATTEMPTS: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Strategy {
    Unprotected,
    CrcDrop,
    FramedArq,
}

impl Strategy {
    fn name(self) -> &'static str {
        match self {
            Strategy::Unprotected => "unprotected",
            Strategy::CrcDrop => "crc_drop",
            Strategy::FramedArq => "framed_arq",
        }
    }
}

/// One pass of `bytes` (MSB-first) over the BSC.
fn over_bsc(bsc: &BinarySymmetricChannel, bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut rx = BitVec::new();
    bsc.transmit_bits_into(&BitVec::from_bytes(bytes), &mut rx, rng);
    rx.to_bytes()
}

/// Ships `bytes` over the BSC under `strategy`; returns the received bytes
/// (None = dropped) and the bits actually transmitted.
fn deliver(
    bytes: &[u8],
    bsc: &BinarySymmetricChannel,
    strategy: Strategy,
    rng: &mut StdRng,
) -> (Option<Vec<u8>>, usize) {
    match strategy {
        Strategy::Unprotected => (Some(over_bsc(bsc, bytes, rng)), bytes.len() * 8),
        Strategy::CrcDrop => {
            let mut framed = bytes.to_vec();
            framed.extend_from_slice(&crc32(bytes).to_be_bytes());
            let rx = over_bsc(bsc, &framed, rng);
            let (body, crc) = rx.split_at(rx.len() - 4);
            let ok = crc32(body) == u32::from_be_bytes(crc.try_into().expect("4 bytes"));
            (ok.then(|| body.to_vec()), framed.len() * 8)
        }
        Strategy::FramedArq => {
            let mut out = Vec::with_capacity(bytes.len());
            let mut bits_sent = 0usize;
            for frame in bytes.chunks(FRAME_BYTES) {
                let mut framed = frame.to_vec();
                framed.extend_from_slice(&crc32(frame).to_be_bytes());
                let mut delivered = false;
                for _ in 0..MAX_ATTEMPTS {
                    bits_sent += framed.len() * 8;
                    let rx = over_bsc(bsc, &framed, rng);
                    let (body, crc) = rx.split_at(rx.len() - 4);
                    if crc32(body) == u32::from_be_bytes(crc.try_into().expect("4 bytes")) {
                        out.extend_from_slice(body);
                        delivered = true;
                        break;
                    }
                }
                if !delivered {
                    return (None, bits_sent);
                }
            }
            (Some(out), bits_sent)
        }
    }
}

fn main() {
    banner(
        "T6",
        "decoder sync over an unreliable link",
        "other communication problems such as security, privacy, and \
         reliability can also be studied and addressed in this system (Sec. III-C)",
    );
    let setup = build_setup(8);
    let d = Domain::It;
    let eval_channel = AwgnChannel::new(10.0);
    let idiolect = Idiolect::sample(&setup.lang, d, IdiolectConfig::with_strength(2.0), 4);

    println!(
        "\nflip_prob,strategy,rounds_applied,rounds_dropped,poisoned,final_mismatch,megabits_sent"
    );
    for flip_prob in [0.0, 1e-5, 1e-4, 1e-3] {
        for strategy in [
            Strategy::Unprotected,
            Strategy::CrcDrop,
            Strategy::FramedArq,
        ] {
            let bsc = BinarySymmetricChannel::new(flip_prob);
            let mut sender = setup.domain_kbs[&d].derive_user_model(1, d);
            let mut receiver = setup.domain_kbs[&d].clone();
            let mut sync = DecoderSync::new(SyncProtocol::DenseDelta);
            let mut gen = CorpusGenerator::new(&setup.lang, 600);
            let mut rng = seeded_rng(700 + (flip_prob * 1e6) as u64);
            let test = gen.sentences(d, Rendering::Idiolect(&idiolect), 40);
            let mut trainer = Trainer::new(TrainConfig {
                epochs: 2,
                train_snr_db: Some(6.0),
                ..TrainConfig::default()
            });

            let mut last_synced = ParamVec::values_of(&sender.decoder.params_mut());
            let mut applied = 0u32;
            let mut dropped = 0u32;
            let mut poisoned = 0u32;
            let mut bits_sent = 0usize;
            for round in 1..=5u64 {
                let train = gen.sentences(d, Rendering::Idiolect(&idiolect), 60);
                trainer.fit(&mut sender, &train, 800 + round);
                let after = ParamVec::values_of(&sender.decoder.params_mut());
                let update = sync.make_update(&last_synced, &after);
                last_synced = after;

                let wire = update.to_bytes();
                let (received, bits) = deliver(&wire, &bsc, strategy, &mut rng);
                bits_sent += bits;
                match received.map(|b| SyncUpdate::from_bytes(&b)) {
                    Some(Ok(update)) => {
                        if update.apply(&mut receiver.decoder.params_mut()).is_ok() {
                            applied += 1;
                            if update != SyncUpdate::from_bytes(&wire).expect("wire encodes") {
                                poisoned += 1;
                            }
                        } else {
                            dropped += 1;
                        }
                    }
                    _ => dropped += 1,
                }
            }
            let eps = mismatch_rate(&sender, &receiver, &test, &eval_channel, &mut rng);
            println!(
                "{flip_prob},{},{applied},{dropped},{poisoned},{eps:.4},{:.2}",
                strategy.name(),
                bits_sent as f64 / 1e6
            );
        }
    }
    println!("\nexpected shape: at BER 0 all strategies match. From BER 1e-5 the");
    println!("unprotected receiver applies corrupted float deltas (poisoned) and its");
    println!("mismatch climbs far past the stale receiver's; whole-message CRC drops");
    println!("every update and stays stale (mismatch = general-model level); framed");
    println!("ARQ delivers every round at 1e-5 for ~1.1x the bits, but at 1e-4 some");
    println!("1 kB frames exhaust their 8 attempts and rounds drop out (~2x the");
    println!("bits). At 1e-3 framed ARQ drops every round.");
}
