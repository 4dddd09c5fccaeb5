//! The int8 accuracy gate: post-training quantization of a trained text
//! knowledge base must cost **less than 1%** absolute task accuracy on a
//! seeded evaluation set, both on a clean channel and at the training SNR.
//! It runs with the rest of the workspace tests (`cargo test --workspace`
//! in `scripts/ci.sh`) — if a change to the quantization scheme (rounding,
//! scale selection, i32 accumulation order) degrades task accuracy, this
//! fails before any benchmark can advertise the speedup.

use semcom_channel::{AwgnChannel, NoiselessChannel};
use semcom_codec::eval::{evaluate_semantic, evaluate_semantic_quantized};
use semcom_codec::train::{TrainConfig, Trainer};
use semcom_codec::{CodecConfig, KbScope, KnowledgeBase};
use semcom_nn::rng::seeded_rng;
use semcom_text::{CorpusGenerator, Domain, LanguageConfig, Rendering};

/// Maximum tolerated absolute concept-accuracy loss from int8 quantization.
const MAX_ACCURACY_LOSS: f64 = 0.01;

fn trained_setup() -> (
    semcom_text::SyntheticLanguage,
    KnowledgeBase,
    Vec<semcom_text::Sentence>,
) {
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 1);
    let train = gen.sentences(Domain::It, Rendering::Canonical, 80);
    let test = gen.sentences(Domain::It, Rendering::Canonical, 20);
    let mut kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        3,
    );
    Trainer::new(TrainConfig {
        epochs: 12,
        train_snr_db: Some(6.0),
        ..TrainConfig::default()
    })
    .fit(&mut kb, &train, 5);
    (lang, kb, test)
}

#[test]
fn int8_accuracy_loss_is_under_one_percent_on_clean_channel() {
    let (lang, kb, test) = trained_setup();
    let q = kb.quantize();

    let mut rng = seeded_rng(2);
    let fp32 = evaluate_semantic(&kb, &kb, &lang, &test, &NoiselessChannel, &mut rng);
    let mut rng = seeded_rng(2);
    let int8 = evaluate_semantic_quantized(&q, &q, &lang, &test, &NoiselessChannel, &mut rng);

    assert!(
        fp32.concept_accuracy > 0.85,
        "fp32 baseline unexpectedly weak: {fp32:?}"
    );
    let loss = fp32.concept_accuracy - int8.concept_accuracy;
    assert!(
        loss < MAX_ACCURACY_LOSS,
        "int8 lost {:.4} accuracy (fp32 {:.4} vs int8 {:.4})",
        loss,
        fp32.concept_accuracy,
        int8.concept_accuracy
    );
    // Quantization changes model bytes, not the air interface.
    assert_eq!(fp32.symbols, int8.symbols);
    assert_eq!(fp32.tokens, int8.tokens);
}

#[test]
fn int8_accuracy_loss_is_under_one_percent_at_training_snr() {
    let (lang, kb, test) = trained_setup();
    let q = kb.quantize();
    let channel = AwgnChannel::new(6.0);

    // Identical seeds => identical channel noise realizations on both legs.
    let mut rng = seeded_rng(7);
    let fp32 = evaluate_semantic(&kb, &kb, &lang, &test, &channel, &mut rng);
    let mut rng = seeded_rng(7);
    let int8 = evaluate_semantic_quantized(&q, &q, &lang, &test, &channel, &mut rng);

    let loss = fp32.concept_accuracy - int8.concept_accuracy;
    assert!(
        loss < MAX_ACCURACY_LOSS,
        "int8 lost {:.4} accuracy at 6 dB (fp32 {:.4} vs int8 {:.4})",
        loss,
        fp32.concept_accuracy,
        int8.concept_accuracy
    );
}
