//! Pins the numerics of the audio, image and video concept KBs, and of
//! the text trainer's data-parallel step, to the bit.
//!
//! Each modality trains a small KB with channel-noise injection on
//! 100 samples per epoch in minibatches of 32 — so every epoch ends on a
//! serial 4-row step after sharded ones wherever the worker count allows
//! sharding — and folds into one FNV-1a digest: the trained parameters,
//! the final loss, `encode_batch` of 5 samples, 50 decodes through a 0 dB
//! channel, the correct count of 200 accuracy draws at 3 dB, and for audio
//! and image the int8 twin's `encode_batch` and model bytes. The text case
//! fits 600 pairs in minibatches of 256, the trainer's sharded path.
//!
//! The constants were recorded through the per-modality KBs the workspace
//! had before they became one generic KB, except video at 2 and 4 workers
//! (see [`VIDEO`]); each is checked at 1, 2 and 4 workers, at which a
//! sharded training step splits into that many shards.
//!
//! A second test pins the int8 concept decoder ([`INT8_DECODE`]): audio
//! and image KBs trained serially (minibatches below two shards' worth of
//! rows), quantized, then decoding fixed features through a 0 dB channel
//! and scoring accuracy at 3 dB. It does not depend on the worker count.
//! A third pins the video int8 twin's `encode_batch` and model bytes
//! ([`VIDEO_INT8_ENCODE`]), which the first test folds for audio and image
//! only. A fourth pins the text KB's end-to-end `transmit`, fp32 and int8,
//! and its `symbols_for` ([`TEXT_TRANSMIT`]).

use semcom_audio::ToneSet;
use semcom_channel::{AwgnChannel, Channel};
use semcom_codec::concept::{ConceptSource, ConceptTrainConfig};
use semcom_codec::train::{TrainConfig, Trainer};
use semcom_codec::{CodecConfig, KbScope, KnowledgeBase};
use semcom_fl::param_digest;
use semcom_nn::params::ParamVec;
use semcom_nn::rng::seeded_rng;
use semcom_nn::Tensor;
use semcom_text::{CorpusGenerator, Domain, LanguageConfig, Rendering};
use semcom_vision::{GlyphSet, VideoSet};

/// Worker counts the expected digests are listed for, in order.
const WORKERS: [usize; 3] = [1, 2, 4];

const AUDIO: [u64; 3] = [
    0x1166_942d_bc5d_5d76,
    0x0967_2c8f_2929_5a65,
    0x94b0_758b_0105_2a36,
];
const IMAGE: [u64; 3] = [
    0xcc78_b12f_09cb_ffc6,
    0x4b6e_f8e8_73d0_fd89,
    0x7e47_0441_68b6_ae9e,
];
/// Video trained serially at every worker count before it shared the
/// sharded step; at 2 and 4 workers these are the sharded digests (the
/// serial ones were `0x7b82_758f_d003_2452` at every count).
const VIDEO: [u64; 3] = [
    0x7b82_758f_d003_2452,
    0xcb47_2228_aa68_50c2,
    0x1e3e_2c7b_8c47_42a8,
];
const TEXT: [u64; 3] = [
    0xc059_ad60_84da_b42e,
    0x12fa_ad8a_bece_7f44,
    0x138b_2cbf_02be_86f2,
];

/// `QuantizedKb::decode` and `accuracy`, audio then image; recorded while
/// the int8 concept decoder was a bare `QuantizedModel` of its own.
const INT8_DECODE: [u64; 2] = [0x9fba_cb16_bb2d_3051, 0x4281_06c8_1a98_0e3d];

/// The video int8 twin's `encode_batch` and model bytes (its conv front end
/// reads `FRAMES` input channels), trained serially like [`INT8_DECODE`];
/// recorded while the int8 concept encoder was a front end, a quantized
/// projection and a norm held by the int8 concept KB itself.
const VIDEO_INT8_ENCODE: u64 = 0xbd38_7b1e_3731_2d6f;

/// fp32 and int8 `transmit` of 30 fixed tiny-language sentences through a
/// 3 dB channel, and `symbols_for` of each, from a text KB trained serially
/// (64-pair minibatches never shard); recorded while the text KB and the
/// concept KBs were separate types.
const TEXT_TRANSMIT: u64 = 0x1de9_9104_4f5e_73c6;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_f32s(h: &mut u64, values: &[f32]) {
    for v in values {
        fold(h, &v.to_bits().to_le_bytes());
    }
}

fn fold_u64(h: &mut u64, v: u64) {
    fold(h, &v.to_le_bytes());
}

fn concept_digest<S: ConceptSource>(source: &S, with_int8: bool) -> u64 {
    let mut kb = KnowledgeBase::for_source(source, 8, 2);
    let config = ConceptTrainConfig {
        epochs: 2,
        samples_per_epoch: 100,
        batch_size: 32,
        learning_rate: 0.005,
        train_snr_db: Some(6.0),
    };
    assert_eq!(config.samples_per_epoch % config.batch_size, 4);
    let loss = kb.train(source, &config, 3);

    let mut h = param_digest(&ParamVec::values_of(&kb.params_mut()));
    fold(&mut h, &loss.to_bits().to_le_bytes());
    let mut rng = seeded_rng(21);
    let inputs: Vec<Vec<f32>> = (0..5).map(|_| source.sample(&mut rng).0).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    fold_f32s(&mut h, kb.encode_batch(&refs).as_slice());
    let noisy = AwgnChannel::new(0.0);
    let mut rng = seeded_rng(22);
    for _ in 0..50 {
        let (x, _) = source.sample(&mut rng);
        let x = Tensor::row_from_slice(&x);
        fold_u64(
            &mut h,
            kb.transmit(&kb, &x, &noisy, &mut rng)[0].index() as u64,
        );
    }
    let acc = kb.accuracy(source, &AwgnChannel::new(3.0), 200, &mut seeded_rng(23));
    fold_u64(&mut h, (acc * 200.0).round() as u64);
    if with_int8 {
        let q = kb.quantize();
        fold_f32s(&mut h, q.encode_batch(&refs).as_slice());
        fold_u64(&mut h, q.size_bytes() as u64);
    }
    h
}

fn int8_decode_digest<S: ConceptSource>(source: &S) -> u64 {
    let mut kb = KnowledgeBase::for_source(source, 8, 5);
    let config = ConceptTrainConfig {
        epochs: 2,
        samples_per_epoch: 60,
        batch_size: 12,
        learning_rate: 0.005,
        train_snr_db: Some(6.0),
    };
    kb.train(source, &config, 6);
    let q = kb.quantize();

    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut rng = seeded_rng(24);
    let noisy = AwgnChannel::new(0.0);
    for _ in 0..200 {
        let (x, _) = source.sample(&mut rng);
        let received = noisy.transmit_f32(&kb.encode(&x), &mut rng);
        fold_f32s(&mut h, &received);
        fold_u64(&mut h, q.decode(&received) as u64);
    }
    let acc = q.accuracy(source, &AwgnChannel::new(3.0), 300, &mut seeded_rng(25));
    fold_u64(&mut h, (acc * 300.0).round() as u64);
    h
}

fn int8_encode_digest<S: ConceptSource>(source: &S) -> u64 {
    let mut kb = KnowledgeBase::for_source(source, 8, 5);
    let config = ConceptTrainConfig {
        epochs: 2,
        samples_per_epoch: 60,
        batch_size: 12,
        learning_rate: 0.005,
        train_snr_db: Some(6.0),
    };
    kb.train(source, &config, 6);
    let q = kb.quantize();

    let mut h = 0xcbf2_9ce4_8422_2325;
    let mut rng = seeded_rng(26);
    let inputs: Vec<Vec<f32>> = (0..5).map(|_| source.sample(&mut rng).0).collect();
    let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
    fold_f32s(&mut h, q.encode_batch(&refs).as_slice());
    fold_u64(&mut h, q.size_bytes() as u64);
    h
}

fn text_digest() -> u64 {
    let lang = LanguageConfig::tiny().build(0);
    let pairs: Vec<(usize, usize)> = CorpusGenerator::new(&lang, 4)
        .sentences(Domain::It, Rendering::Canonical, 200)
        .iter()
        .flat_map(|s| {
            s.tokens
                .iter()
                .zip(&s.concepts)
                .map(|(&t, c)| (t, c.index()))
        })
        .take(600)
        .collect();
    assert_eq!(pairs.len(), 600);
    let mut kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::General,
        7,
    );
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 256,
        learning_rate: 0.01,
        train_snr_db: Some(6.0),
    })
    .fit_pairs(&mut kb, &pairs, 11);
    let mut params = kb.encoder.params_mut();
    params.extend(kb.decoder.params_mut());
    let mut h = param_digest(&ParamVec::values_of(&params));
    fold(&mut h, &report.final_loss.to_bits().to_le_bytes());
    h
}

fn text_transmit_digest() -> u64 {
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 5);
    let train = gen.sentences(Domain::News, Rendering::Mixed(0.2), 40);
    let mut kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::News),
        8,
    );
    Trainer::new(TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    })
    .fit(&mut kb, &train, 12);
    let q = kb.quantize();

    let mut h = 0xcbf2_9ce4_8422_2325;
    let channel = AwgnChannel::new(3.0);
    let mut rng = seeded_rng(27);
    for s in gen.sentences(Domain::News, Rendering::Canonical, 30) {
        for concept in kb.transmit(&kb, &s.tokens, &channel, &mut rng) {
            fold_u64(&mut h, concept.index() as u64);
        }
        for concept in q.transmit(&q, &s.tokens, &channel, &mut rng) {
            fold_u64(&mut h, concept.index() as u64);
        }
        fold_u64(&mut h, kb.symbols_for(s.tokens.len()) as u64);
        fold_u64(&mut h, q.symbols_for(s.tokens.len()) as u64);
    }
    h
}

/// One test, so no other test moves the process-global worker count
/// under it.
#[test]
fn multimodal_training_is_bit_identical_to_the_recorded_digests() {
    let digest = |case| match case {
        "audio" => concept_digest(&ToneSet::new(6, 1), true),
        "image" => concept_digest(&GlyphSet::new(6, 1), true),
        "video" => concept_digest(&VideoSet::new(2, 1), false),
        _ => text_digest(),
    };
    let cases = [
        ("audio", AUDIO),
        ("image", IMAGE),
        ("video", VIDEO),
        ("text", TEXT),
    ];
    let mut moved = Vec::new();
    for (name, expected) in cases {
        for (&workers, &want) in WORKERS.iter().zip(&expected) {
            semcom_par::set_workers(workers);
            let got = digest(name);
            semcom_par::reset_workers();
            if got != want {
                moved.push(format!("{name} at {workers} workers: {got:#018x}"));
            }
        }
    }
    assert!(moved.is_empty(), "digests moved: {moved:?}");
}

/// Training here never shards (12-row minibatches are below two 8-row
/// shards), so this runs beside the test above at any worker count.
#[test]
fn int8_concept_decode_is_bit_identical_to_the_recorded_digest() {
    let got = [
        int8_decode_digest(&ToneSet::new(6, 1)),
        int8_decode_digest(&GlyphSet::new(6, 1)),
    ];
    assert_eq!(got, INT8_DECODE, "got {:#018x} {:#018x}", got[0], got[1]);
}

/// Serial training again (12-row minibatches), so any worker count.
#[test]
fn video_int8_encode_is_bit_identical_to_the_recorded_digest() {
    let got = int8_encode_digest(&VideoSet::new(2, 1));
    assert_eq!(got, VIDEO_INT8_ENCODE, "got {got:#018x}");
}

/// Text training here is serial (64-pair minibatches), so any worker count.
#[test]
fn text_transmit_is_bit_identical_to_the_recorded_digest() {
    let got = text_transmit_digest();
    assert_eq!(got, TEXT_TRANSMIT, "got {got:#018x}");
}
