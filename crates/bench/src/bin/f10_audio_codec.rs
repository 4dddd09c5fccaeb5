//! F10 — multimodal extension, audio leg (§III-B): MLP melody codec vs.
//! raw analog waveform transmission with a matched-filter receiver.

use semcom_audio::{MatchedFilter, ToneSet};
use semcom_bench::banner;
use semcom_channel::{AwgnChannel, Channel, RayleighChannel};
use semcom_codec::concept::ConceptTrainConfig;
use semcom_codec::KnowledgeBase;
use semcom_nn::rng::seeded_rng;

fn main() {
    banner(
        "F10",
        "audio semantic codec vs raw analog waveform + matched filter",
        "message types include text, image, video, and audio; multimodality \
         is crucial (Sec. III-B)",
    );

    let tones = ToneSet::new(16, 1);
    println!("\ntraining the audio KB ({} melodies)…", tones.len());
    let mut kb = KnowledgeBase::for_source(&tones, 8, 2);
    kb.train(
        &tones,
        &ConceptTrainConfig {
            epochs: 10,
            samples_per_epoch: 800,
            train_snr_db: Some(6.0),
            ..ConceptTrainConfig::default()
        },
        3,
    );
    let mf = MatchedFilter::new(&tones);

    println!(
        "channel uses per melody: semantic {} symbols, raw waveform {} symbols ({}x)",
        kb.symbols_for(1),
        mf.symbols_per_melody(),
        mf.symbols_per_melody() / kb.symbols_for(1)
    );
    let handicap = 10.0 * (mf.symbols_per_melody() as f64 / kb.symbols_for(1) as f64).log10();
    println!("equal-resource handicap for the raw leg: {handicap:.1} dB");

    for fading in [false, true] {
        println!(
            "\n--- {} channel ---",
            if fading { "Rayleigh" } else { "AWGN" }
        );
        println!("snr_db,semantic_acc,raw_acc_same_symbol_snr,raw_acc_equal_resources");
        for snr in [-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 12.0] {
            let make = |s: f64| -> Box<dyn Channel> {
                if fading {
                    Box::new(RayleighChannel::new(s))
                } else {
                    Box::new(AwgnChannel::new(s))
                }
            };
            let mut rng = seeded_rng(100 + (snr as i64 + 20) as u64 + fading as u64 * 31);
            let sem = kb.accuracy(&tones, make(snr).as_ref(), 400, &mut rng);

            // Raw analog leg: the waveform itself rides the channel.
            let raw_at = |s: f64, rng: &mut rand::rngs::StdRng| {
                let ch = make(s);
                let mut correct = 0;
                let n = 400;
                for _ in 0..n {
                    let (wave, label) = tones.sample(rng);
                    let rx = ch.transmit_f32(&wave, rng);
                    if mf.classify(&rx) == label {
                        correct += 1;
                    }
                }
                correct as f64 / n as f64
            };
            let raw = raw_at(snr, &mut rng);
            let raw_fair = raw_at(snr - handicap, &mut rng);
            println!("{snr:.0},{sem:.4},{raw:.4},{raw_fair:.4}");
        }
    }
    println!("\nexpected shape: the matched filter is the optimal classical receiver");
    println!("and is very robust per symbol, but it pays 8x the channel uses; at an");
    println!("equal per-melody energy budget the semantic codec matches or beats it,");
    println!("with the gap opening under fading — the audio analogue of F2/F7.");
}
