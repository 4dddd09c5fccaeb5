//! Integration tests across the multimodal crates (`semcom-vision`,
//! `semcom-audio`) and the channel substrate: the §III-B claim that one
//! semantic-communication architecture serves text, image, video, and
//! audio.

use semcom_audio::{MatchedFilter, ToneSet};
use semcom_channel::{AwgnChannel, NoiselessChannel};
use semcom_codec::concept::{ConceptSource, ConceptTrainConfig};
use semcom_codec::{CodecConfig, Frontend, KbScope, KnowledgeBase, QuantizedFrontend};
use semcom_nn::layers::{Embedding, Linear};
use semcom_nn::quant::{QuantScratch, QuantizedLinear};
use semcom_nn::rng::seeded_rng;
use semcom_nn::Tensor;
use semcom_vision::{GlyphSet, VideoSet};

#[test]
fn every_modality_transmits_meaning_in_a_handful_of_symbols() {
    // All four modalities (text is covered by the codec crate's own tests)
    // use the same budget: 8 features = 4 complex channel symbols per unit
    // of meaning, regardless of how many raw samples the source has.
    let glyphs = GlyphSet::new(6, 1);
    let image_kb = KnowledgeBase::for_source(&glyphs, 8, 2);
    assert_eq!(image_kb.symbols_for(1), 4);

    let videos = VideoSet::new(2, 1);
    let video_kb = KnowledgeBase::for_source(&videos, 8, 2);
    assert_eq!(video_kb.symbols_for(1), 4);

    let tones = ToneSet::new(6, 1);
    let audio_kb = KnowledgeBase::for_source(&tones, 8, 2);
    assert_eq!(audio_kb.symbols_for(1), 4);
}

#[test]
fn trained_image_kb_beats_untrained_over_the_same_channel() {
    let glyphs = GlyphSet::new(8, 3);
    let untrained = KnowledgeBase::for_source(&glyphs, 8, 4);
    let mut trained = KnowledgeBase::for_source(&glyphs, 8, 4);
    trained.train(
        &glyphs,
        &ConceptTrainConfig {
            epochs: 6,
            samples_per_epoch: 300,
            ..ConceptTrainConfig::default()
        },
        5,
    );
    let channel = AwgnChannel::new(10.0);
    let mut rng = seeded_rng(6);
    let a = untrained.accuracy(&glyphs, &channel, 150, &mut rng);
    let b = trained.accuracy(&glyphs, &channel, 150, &mut rng);
    assert!(b > a + 0.3, "training must matter: {a} -> {b}");
}

#[test]
fn video_kb_separates_motions_of_the_same_glyph() {
    let videos = VideoSet::new(2, 7);
    let mut kb = KnowledgeBase::for_source(&videos, 8, 1);
    kb.train(
        &videos,
        &ConceptTrainConfig {
            epochs: 10,
            samples_per_epoch: 400,
            train_snr_db: None,
            ..ConceptTrainConfig::default()
        },
        2,
    );
    // Concepts 0..4 are the four motions of glyph 0: the codec must
    // distinguish them even though every frame shows the same glyph.
    let mut rng = seeded_rng(8);
    let mut correct = 0;
    let n = 25;
    for concept in 0..4usize {
        for _ in 0..n {
            let clip = Tensor::row_from_slice(&videos.render(concept, &mut rng));
            if kb.transmit(&kb, &clip, &NoiselessChannel, &mut rng)[0].index() == concept {
                correct += 1;
            }
        }
    }
    let acc = correct as f64 / (4 * n) as f64;
    assert!(acc > 0.7, "motion discrimination accuracy {acc}");
}

#[test]
fn audio_semantic_codec_survives_noise_that_breaks_equal_budget_raw_audio() {
    let tones = ToneSet::new(12, 2);
    let mut kb = KnowledgeBase::for_source(&tones, 8, 3);
    kb.train(
        &tones,
        &ConceptTrainConfig {
            epochs: 8,
            samples_per_epoch: 500,
            train_snr_db: Some(4.0),
            ..ConceptTrainConfig::default()
        },
        4,
    );
    let mf = MatchedFilter::new(&tones);
    // Equal energy per melody: the raw leg spends 8x the symbols, so its
    // per-symbol SNR drops by 9 dB at a fixed energy budget.
    let handicap = 10.0 * (mf.symbols_per_melody() as f64 / kb.symbols_for(1) as f64).log10();
    let snr = 0.0;
    let mut rng = seeded_rng(9);
    let sem = kb.accuracy(&tones, &AwgnChannel::new(snr), 250, &mut rng);

    use semcom_channel::Channel;
    let raw_channel = AwgnChannel::new(snr - handicap);
    let mut correct = 0;
    let n = 250;
    for _ in 0..n {
        let (wave, label) = tones.sample(&mut rng);
        let rx = raw_channel.transmit_f32(&wave, &mut rng);
        if mf.classify(&rx) == label {
            correct += 1;
        }
    }
    let raw = correct as f64 / n as f64;
    assert!(
        sem > raw + 0.1,
        "semantic {sem} must beat equal-budget raw {raw}"
    );
}

#[test]
fn modal_codecs_are_independent_of_each_other() {
    // Sanity: different modality KBs can coexist and their decisions only
    // depend on their own inputs (no shared global state).
    let glyphs = GlyphSet::new(4, 1);
    let tones = ToneSet::new(4, 1);
    let image_kb = KnowledgeBase::for_source(&glyphs, 8, 2);
    let audio_kb = KnowledgeBase::for_source(&tones, 8, 2);
    let mut rng1 = seeded_rng(10);
    let (img, _) = glyphs.sample(&mut rng1);
    let before = image_kb.encode(&img);
    // Running the audio pipeline must not perturb the image pipeline.
    let mut rng2 = seeded_rng(11);
    let (wave, _) = tones.sample(&mut rng2);
    let _ = audio_kb.encode(&wave);
    assert_eq!(image_kb.encode(&img), before);
}

/// Draws `n` samples of `source` from a fixed seed.
fn samples<S: ConceptSource>(source: &S, n: usize) -> Vec<Vec<f32>> {
    let mut rng = seeded_rng(9);
    (0..n).map(|_| source.sample(&mut rng).0).collect()
}

fn quick_trained<S: ConceptSource>(source: &S) -> KnowledgeBase<S::Frontend> {
    let mut kb = KnowledgeBase::for_source(source, 8, 2);
    let config = ConceptTrainConfig {
        epochs: 6,
        samples_per_epoch: 240,
        train_snr_db: None,
        ..ConceptTrainConfig::default()
    };
    kb.train(source, &config, 5);
    kb
}

/// Runs `check` on one source of every modality: audio, image, video.
macro_rules! for_each_modality {
    ($check:ident) => {
        $check(&ToneSet::new(6, 1));
        $check(&GlyphSet::new(6, 1));
        $check(&VideoSet::new(2, 1));
    };
}

#[test]
fn features_are_power_normalized_in_every_modality() {
    fn check<S: ConceptSource>(source: &S) {
        let kb = KnowledgeBase::for_source(source, 8, 2);
        for f in samples(source, 3).iter().map(|x| kb.encode(x)) {
            let power: f32 = f.iter().map(|v| v * v).sum::<f32>() / f.len() as f32;
            assert!((power - 1.0).abs() < 0.02, "power {power}");
        }
    }
    for_each_modality!(check);
}

#[test]
fn encode_batch_is_bit_identical_to_single_encodes_in_every_modality() {
    fn check<S: ConceptSource>(source: &S) {
        let kb = quick_trained(source);
        let q = kb.quantize();
        let xs = samples(source, 5);
        let refs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
        let (batched, batched_q) = (kb.encode_batch(&refs), q.encode_batch(&refs));
        assert_eq!(batched.shape(), (5, 8));
        for (r, x) in xs.iter().enumerate() {
            assert_eq!(batched.row(r), kb.encode(x).as_slice(), "fp32 row {r}");
            assert_eq!(batched_q.row(r), q.encode(x).as_slice(), "int8 row {r}");
        }
    }
    for_each_modality!(check);
}

#[test]
fn symbols_are_half_the_features_rounded_up_in_every_modality() {
    fn check<S: ConceptSource>(source: &S) {
        for (features, symbols) in [(8, 4), (9, 5), (10, 5)] {
            let kb = KnowledgeBase::for_source(source, features, 1);
            assert_eq!(kb.symbols_for(1), symbols);
            assert_eq!(kb.symbols_for(3), 3 * symbols);
            assert_eq!(kb.quantize().feature_dim(), features);
            assert_eq!(kb.quantize().symbols_for(1), symbols);
        }
    }
    for_each_modality!(check);
}

#[test]
fn wrong_sample_length_panics_in_every_modality() {
    fn check<S: ConceptSource>(source: &S) {
        let kb = KnowledgeBase::for_source(source, 8, 1);
        let short = vec![0.0; kb.encoder.frontend().in_len() - 1];
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| kb.encode(&short)))
            .unwrap_err();
        let message = panicked.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("wrong sample length"), "{message}");
    }
    for_each_modality!(check);
}

/// Post-training int8 costs < 1 % accuracy on the same draws and at least
/// halves the model bytes, counted the same way for both.
#[test]
fn int8_twin_tracks_fp32_accuracy_and_is_smaller_in_every_modality() {
    fn check<S: ConceptSource>(source: &S) {
        let kb = quick_trained(source);
        let q = kb.quantize();
        let acc_f32 = kb.accuracy(source, &NoiselessChannel, 200, &mut seeded_rng(11));
        let acc_int8 = q.accuracy(source, &NoiselessChannel, 200, &mut seeded_rng(11));
        assert!(
            acc_f32 - acc_int8 < 0.01,
            "int8 accuracy loss too large: {acc_f32} vs {acc_int8}"
        );
        assert!(
            q.size_bytes() * 2 < kb.size_bytes(),
            "quantized {} vs f32 {}",
            q.size_bytes(),
            kb.size_bytes()
        );
    }
    for_each_modality!(check);
}

/// One size rule for every KB, text and every other modality, in both
/// precisions: encoder (its frozen power norm's γ and β included), decoder
/// and a 64-byte header, at 4 bytes per fp32 scalar.
#[test]
fn fp32_size_counts_parameters_norm_and_header() {
    fn check<F: Frontend>(mut kb: KnowledgeBase<F>) {
        let counted: usize = kb.params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(kb.param_count(), counted);
        assert!(kb.param_count() > 1000);
        let norm = 2 * kb.feature_dim() * 4;
        assert_eq!(kb.size_bytes(), counted * 4 + norm + 64);

        let linears = [kb.encoder.proj(), kb.decoder.l1(), kb.decoder.l2()];
        let int8_linears: usize = linears
            .iter()
            .map(|l| QuantizedLinear::from_linear(l).size_bytes())
            .sum();
        let int8_frontend = kb.encoder.frontend().quantize().size_bytes();
        let q = kb.quantize();
        assert_eq!(q.size_bytes(), int8_frontend + int8_linears + norm + 64);
        assert!(q.size_bytes() < kb.size_bytes());
    }
    check(KnowledgeBase::new(
        CodecConfig::tiny(),
        100,
        12,
        KbScope::General,
        1,
    ));
    check(KnowledgeBase::for_source(&ToneSet::new(4, 1), 8, 1));
    check(KnowledgeBase::for_source(&GlyphSet::new(4, 1), 8, 1));
    check(KnowledgeBase::for_source(&VideoSet::new(2, 1), 8, 1));
}

/// The contract every [`Frontend`] keeps, text's [`Embedding`] table
/// included: `forward` computes `infer`'s bits, `param_count` counts what
/// `params_mut` hands the optimizer, the int8 form reads inputs of the
/// same width, and the int8 `project_into` depends on its input only — not
/// on what an earlier, larger call left in the scratch or output buffers.
/// A source's front end reads samples of the width the source draws.
#[test]
fn every_front_end_keeps_the_frontend_contract() {
    fn check<F: Frontend>(mut frontend: F, x: &F::Input, larger: &F::Input) {
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let (forward, infer) = (frontend.forward(x), frontend.infer(x));
        assert_eq!(bits(forward.as_slice()), bits(infer.as_slice()));
        let counted: usize = frontend.params_mut().iter().map(|p| p.len()).sum();
        assert_eq!(frontend.param_count(), counted);

        let proj = QuantizedLinear::from_linear(&Linear::new(frontend.out_len(), 8, 3));
        let q = frontend.quantize();
        assert_eq!(q.in_len(), frontend.in_len());
        let mut fresh = Vec::new();
        q.project_into(&proj, x, &mut QuantScratch::new(), &mut fresh);
        let (mut scratch, mut warm) = (QuantScratch::new(), Vec::new());
        q.project_into(&proj, larger, &mut scratch, &mut warm);
        q.project_into(&proj, x, &mut scratch, &mut warm);
        assert!(!fresh.is_empty());
        assert_eq!(bits(&warm), bits(&fresh));
    }
    fn batch<S: ConceptSource>(source: &S, n: usize) -> Tensor {
        let xs = samples(source, n);
        Tensor::from_vec(n, xs[0].len(), xs.concat()).expect("equal-length samples")
    }
    fn check_source<S: ConceptSource>(source: &S) {
        let frontend = source.frontend(4);
        assert_eq!(frontend.in_len(), samples(source, 1)[0].len());
        check(frontend, &batch(source, 3), &batch(source, 7));
    }
    let embedding = Embedding::new(30, 12, 4);
    assert_eq!(embedding.in_len(), 1);
    check(embedding, &[3, 0, 29, 3], &[1; 9]);
    for_each_modality!(check_source);
}
