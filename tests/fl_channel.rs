//! Integration tests across `semcom-fl` × `semcom-channel` × `semcom-codec`:
//! decoder-sync updates as real bytes over real (noisy) links.

use semcom_channel::coding::{crc32, ConvolutionalCode, IdentityCode};
use semcom_channel::{
    ArqPipeline, AwgnChannel, BitPipeline, BitVec, FaultConfig, FaultyChannel, FaultyLink,
    Modulation, NoiselessChannel, TransmitScratch,
};
use semcom_codec::train::{TrainConfig, Trainer};
use semcom_codec::{CodecConfig, KbScope, KnowledgeBase};
use semcom_fl::{
    param_digest, run_sync_round, ArqLink, DecoderSync, RoundOutcome, SyncLink, SyncProtocol,
    SyncReceiver, SyncSender, SyncUpdate, TransportConfig, TransportStats,
};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_obs::Recorder;
use semcom_text::{CorpusGenerator, Domain, LanguageConfig, Rendering};

/// Builds a small trained sender/receiver pair and one pending update.
fn pending_update() -> (KnowledgeBase, KnowledgeBase, SyncUpdate) {
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 1);
    let mut sender = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        3,
    );
    let receiver = sender.clone();
    let before = ParamVec::values_of(&sender.decoder.params_mut());
    let corpus = gen.sentences(Domain::It, Rendering::Canonical, 40);
    Trainer::new(TrainConfig {
        epochs: 3,
        train_snr_db: None,
        ..TrainConfig::default()
    })
    .fit(&mut sender, &corpus, 5);
    let after = ParamVec::values_of(&sender.decoder.params_mut());
    let update = DecoderSync::new(SyncProtocol::DenseDelta).make_update(&before, &after);
    (sender, receiver, update)
}

#[test]
fn sync_update_survives_a_noiseless_modem() {
    let (mut sender, mut receiver, update) = pending_update();
    let wire = update.to_bytes();
    let pipeline = BitPipeline::new(Box::new(IdentityCode), Modulation::Qam16);
    let mut rng = seeded_rng(1);
    let mut scratch = TransmitScratch::new();
    let rx_bits = pipeline.transmit_packed(
        &BitVec::from_bytes(&wire),
        &NoiselessChannel,
        &mut rng,
        &mut scratch,
    );
    let rx = SyncUpdate::from_bytes(&rx_bits.to_bytes()).expect("clean channel");
    rx.apply(&mut receiver.decoder.params_mut()).unwrap();
    assert_close(
        ParamVec::values_of(&receiver.decoder.params_mut()).as_slice(),
        ParamVec::values_of(&sender.decoder.params_mut()).as_slice(),
    );
}

/// Delta application is `before + (after - before)` in f32, so sender and
/// receiver agree to rounding, not bit-exactly.
fn assert_close(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() <= 1e-6 * (1.0 + x.abs()), "{x} vs {y}");
    }
}

#[test]
fn corrupted_update_changes_weights_but_crc_catches_it() {
    let (_, mut receiver, update) = pending_update();
    let wire = update.to_bytes();
    let checksum = crc32(&wire);

    // Flip one byte mid-payload: CRC must detect it.
    let mut corrupted = wire.clone();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0x10;
    assert_ne!(crc32(&corrupted), checksum, "CRC must detect the flip");

    // Without the check, the corrupted update may still parse and then
    // silently poison the receiver — which is exactly why the check exists.
    if let Ok(bad) = SyncUpdate::from_bytes(&corrupted) {
        let before = ParamVec::values_of(&receiver.decoder.params_mut());
        let _ = bad.apply(&mut receiver.decoder.params_mut());
        let after = ParamVec::values_of(&receiver.decoder.params_mut());
        assert_ne!(before.as_slice(), after.as_slice());
    }
}

#[test]
fn arq_delivers_sync_updates_through_a_noisy_modem() {
    let (mut sender, mut receiver, update) = pending_update();
    let wire = update.to_bytes();
    let arq = ArqPipeline::new(
        BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Bpsk),
        8,
    );
    let mut rng = seeded_rng(2);
    let bits = BitVec::from_bytes(&wire).to_u8_bits();
    let out = arq.transmit(&bits, &AwgnChannel::new(4.0), &mut rng);
    assert!(out.delivered, "ARQ failed at 4 dB with FEC");
    let rx = SyncUpdate::from_bytes(&BitVec::from_u8_bits(&out.bits).to_bytes())
        .expect("CRC-verified frame");
    rx.apply(&mut receiver.decoder.params_mut()).unwrap();
    assert_close(
        ParamVec::values_of(&receiver.decoder.params_mut()).as_slice(),
        ParamVec::values_of(&sender.decoder.params_mut()).as_slice(),
    );
}

/// The PR-4 hardened path end to end: a real trained KB's decoder deltas
/// ride sequence-numbered, digest-verified frames through frame-plane
/// faults *and* an ARQ/FEC modem over an erasure-prone AWGN channel, and
/// the receiver finishes holding exactly the sender's shadow state.
#[test]
fn hardened_transport_syncs_a_trained_decoder_over_faults() {
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 1);
    let mut sender_kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        3,
    );
    let initial = ParamVec::values_of(&sender_kb.decoder.params_mut());
    let mut rx_params = initial.clone();
    let mut sender = SyncSender::new(SyncProtocol::QuantizedInt8, initial);
    let mut receiver = SyncReceiver::new();
    let mut stats = TransportStats::default();
    let config = TransportConfig {
        update_attempts: 3,
        resync_attempts: 8,
        backoff_base: 1,
    };
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        train_snr_db: None,
        ..TrainConfig::default()
    });

    // Leg 1: frame-plane faults (drop/corrupt/duplicate/reorder).
    let mut faulty = FaultyLink::new(FaultConfig::uniform(0.25), 11);
    // Leg 2: a real modem — ARQ over FEC over AWGN with 20 % erasure.
    let arq = ArqPipeline::new(
        BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Bpsk),
        8,
    );
    let mut modem = ArqLink::new(
        arq,
        Box::new(FaultyChannel::new(AwgnChannel::new(6.0), 0.2, 0.0)),
    );
    let mut rng = seeded_rng(4);

    let mut synced = 0;
    for round in 0..8u64 {
        let corpus = gen.sentences(Domain::It, Rendering::Canonical, 20);
        trainer.fit(&mut sender_kb, &corpus, 100 + round);
        let after = ParamVec::values_of(&sender_kb.decoder.params_mut());
        let link: &mut dyn SyncLink = if round % 2 == 0 {
            &mut faulty
        } else {
            &mut modem
        };
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &after,
            link,
            &mut rng,
            &config,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        if matches!(out, RoundOutcome::Synced { .. }) {
            synced += 1;
            // The committed state is bit-exactly the sender's shadow.
            assert_eq!(param_digest(&rx_params), param_digest(sender.shadow()));
        }
    }
    assert!(synced >= 6, "only {synced}/8 rounds synced");
    assert!(stats.frames_sent >= 8);
    assert!(modem.symbols_used() > 0, "modem leg never exercised");
    // Error feedback: even int8-compressed, the receiver tracks the true
    // decoder to within one round's quantization step.
    let truth = ParamVec::values_of(&sender_kb.decoder.params_mut());
    if sender.needs_resync() {
        // Trailing failure: repair first, as the system would.
        let out = run_sync_round(
            &mut sender,
            &mut receiver,
            &mut rx_params,
            &truth,
            &mut semcom_fl::PerfectLink,
            &mut rng,
            &config,
            &mut stats,
            &Recorder::disabled(),
            0,
            None,
        );
        assert!(matches!(out, RoundOutcome::Synced { .. }));
    }
    let max_div = rx_params
        .as_slice()
        .iter()
        .zip(truth.as_slice())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    assert!(max_div < 0.05, "diverged by {max_div}");
}

#[test]
fn compressed_updates_cost_fewer_modem_symbols() {
    let lang = LanguageConfig::tiny().build(0);
    let mut sender = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::General,
        1,
    );
    let before = ParamVec::values_of(&sender.decoder.params_mut());
    let mut gen = CorpusGenerator::new(&lang, 2);
    let corpus = gen.sentences(Domain::News, Rendering::Canonical, 30);
    Trainer::new(TrainConfig {
        epochs: 2,
        train_snr_db: None,
        ..TrainConfig::default()
    })
    .fit(&mut sender, &corpus, 3);
    let after = ParamVec::values_of(&sender.decoder.params_mut());

    let pipeline = BitPipeline::new(Box::new(IdentityCode), Modulation::Qpsk);
    let symbols = |proto: SyncProtocol| {
        let u = DecoderSync::new(proto).make_update(&before, &after);
        pipeline.symbols_for(u.to_bytes().len() * 8)
    };
    let dense = symbols(SyncProtocol::DenseDelta);
    let quant = symbols(SyncProtocol::QuantizedInt8);
    let sparse = symbols(SyncProtocol::TopK(50));
    assert!(quant < dense / 3, "int8 {quant} vs dense {dense}");
    assert!(sparse < quant, "top-k {sparse} vs int8 {quant}");
}
