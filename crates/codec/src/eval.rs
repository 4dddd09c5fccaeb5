//! End-to-end evaluation of the semantic and traditional legs on a common
//! test set, producing the rows of experiments F2, T1, T2, and T3.

use crate::baseline::TraditionalCodec;
use crate::kb::KnowledgeBase;
use crate::quantized::QuantizedKb;
use rand::RngCore;
use semcom_channel::Channel;
use semcom_text::metrics::{bleu, bow_cosine, concept_accuracy};
use semcom_text::{ConceptId, Domain, Sentence, SyntheticLanguage};
use serde::{Deserialize, Serialize};

/// Aggregated quality/cost metrics over a test set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct EvalReport {
    /// Mean fraction of concepts recovered (exact semantic accuracy).
    pub concept_accuracy: f64,
    /// Mean BLEU-2 over canonical renderings of the decoded meaning.
    pub bleu: f64,
    /// Mean bag-of-concepts cosine similarity.
    pub bow_cosine: f64,
    /// Total tokens evaluated.
    pub tokens: usize,
    /// Total complex channel symbols consumed.
    pub symbols: usize,
}

impl EvalReport {
    /// Channel symbols per transmitted token.
    pub fn symbols_per_token(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.symbols as f64 / self.tokens as f64
        }
    }
}

/// Evaluates the semantic leg: `sender` encoder → `channel` → `receiver`
/// decoder, scored against each sentence's ground-truth concepts.
pub fn evaluate_semantic(
    sender: &KnowledgeBase,
    receiver: &KnowledgeBase,
    lang: &SyntheticLanguage,
    sentences: &[Sentence],
    channel: &dyn Channel,
    rng: &mut dyn RngCore,
) -> EvalReport {
    evaluate(lang, sentences, |s| {
        let decoded = sender.transmit(receiver, &s.tokens, channel, rng);
        (decoded, sender.symbols_for(s.len()))
    })
}

/// Evaluates the int8-quantized semantic leg — the same protocol as
/// [`evaluate_semantic`] but through [`QuantizedKb::transmit`], so fp32
/// and int8 task accuracy are directly comparable on the same seeded test
/// set (the <1% accuracy-loss gate in CI diffs the two).
pub fn evaluate_semantic_quantized(
    sender: &QuantizedKb,
    receiver: &QuantizedKb,
    lang: &SyntheticLanguage,
    sentences: &[Sentence],
    channel: &dyn Channel,
    rng: &mut dyn RngCore,
) -> EvalReport {
    evaluate(lang, sentences, |s| {
        let decoded = sender.transmit(receiver, &s.tokens, channel, rng);
        (decoded, sender.symbols_for(s.len()))
    })
}

/// Evaluates the traditional leg: Huffman + channel code + modulation,
/// with receiver-side lexicon interpretation in `domain`.
pub fn evaluate_traditional(
    codec: &TraditionalCodec,
    lang: &SyntheticLanguage,
    domain: Domain,
    sentences: &[Sentence],
    channel: &dyn Channel,
    rng: &mut dyn RngCore,
) -> EvalReport {
    evaluate(lang, sentences, |s| {
        let received = codec.transmit(&s.tokens, channel, rng);
        let decoded = TraditionalCodec::interpret(lang, domain, &received);
        (decoded, codec.symbols_for(&s.tokens))
    })
}

/// Scores one leg over `sentences`: `leg` returns a sentence's decoded
/// concepts and the channel symbols it used.
fn evaluate(
    lang: &SyntheticLanguage,
    sentences: &[Sentence],
    mut leg: impl FnMut(&Sentence) -> (Vec<ConceptId>, usize),
) -> EvalReport {
    let (mut acc, mut bl, mut cos) = (0.0, 0.0, 0.0);
    let (mut tokens, mut symbols) = (0, 0);
    for s in sentences {
        let (decoded, used) = leg(s);
        acc += concept_accuracy(&s.concepts, &decoded);
        let ref_words: Vec<usize> = s.concepts.iter().map(|&c| lang.primary_token(c)).collect();
        let dec_words: Vec<usize> = decoded
            .iter()
            .map(|&c| {
                if c.index() < lang.concept_count() {
                    lang.primary_token(c)
                } else {
                    usize::MAX // uninterpretable marker word
                }
            })
            .collect();
        bl += bleu(&ref_words, &dec_words, 2);
        cos += bow_cosine(&s.concepts, &decoded);
        tokens += s.len();
        symbols += used;
    }
    let n = sentences.len().max(1) as f64;
    EvalReport {
        concept_accuracy: acc / n,
        bleu: bl / n,
        bow_cosine: cos / n,
        tokens,
        symbols,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecConfig;
    use crate::kb::KbScope;
    use crate::train::{TrainConfig, Trainer};
    use semcom_channel::coding::HammingCode74;
    use semcom_channel::{AwgnChannel, Modulation, NoiselessChannel};
    use semcom_nn::rng::seeded_rng;
    use semcom_text::{CorpusGenerator, LanguageConfig, Rendering};

    fn trained_setup() -> (
        SyntheticLanguage,
        KnowledgeBase,
        Vec<Sentence>,
        Vec<Sentence>,
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
        (lang, kb, train, test)
    }

    #[test]
    fn semantic_eval_scores_trained_codec_high() {
        let (lang, kb, _, test) = trained_setup();
        let mut rng = seeded_rng(2);
        let report = evaluate_semantic(&kb, &kb, &lang, &test, &NoiselessChannel, &mut rng);
        assert!(report.concept_accuracy > 0.85, "{report:?}");
        assert!(report.bleu > 0.7, "{report:?}");
        assert!(report.bow_cosine > 0.8, "{report:?}");
        assert_eq!(report.symbols, kb.symbols_for(report.tokens));
    }

    #[test]
    fn traditional_eval_is_perfect_on_clean_channel() {
        let (lang, _, train, test) = trained_setup();
        let codec = TraditionalCodec::from_corpus(
            lang.vocab().len(),
            &train,
            Box::new(HammingCode74),
            Modulation::Bpsk,
        );
        let mut rng = seeded_rng(3);
        let report = evaluate_traditional(
            &codec,
            &lang,
            Domain::It,
            &test,
            &NoiselessChannel,
            &mut rng,
        );
        assert!((report.concept_accuracy - 1.0).abs() < 1e-9, "{report:?}");
    }

    #[test]
    fn semantic_beats_traditional_at_very_low_snr() {
        let (lang, kb, train, test) = trained_setup();
        let codec = TraditionalCodec::from_corpus(
            lang.vocab().len(),
            &train,
            Box::new(HammingCode74),
            Modulation::Bpsk,
        );
        let mut rng = seeded_rng(4);
        let channel = AwgnChannel::new(-2.0);
        let sem = evaluate_semantic(&kb, &kb, &lang, &test, &channel, &mut rng);
        let trad = evaluate_traditional(&codec, &lang, Domain::It, &test, &channel, &mut rng);
        assert!(
            sem.concept_accuracy > trad.concept_accuracy,
            "semantic {} vs traditional {}",
            sem.concept_accuracy,
            trad.concept_accuracy
        );
    }

    #[test]
    fn semantic_payload_is_smaller() {
        let (lang, kb, train, test) = trained_setup();
        let codec = TraditionalCodec::from_corpus(
            lang.vocab().len(),
            &train,
            Box::new(HammingCode74),
            Modulation::Bpsk,
        );
        let mut rng = seeded_rng(5);
        let sem = evaluate_semantic(&kb, &kb, &lang, &test, &NoiselessChannel, &mut rng);
        let trad = evaluate_traditional(
            &codec,
            &lang,
            Domain::It,
            &test,
            &NoiselessChannel,
            &mut rng,
        );
        assert!(
            sem.symbols_per_token() < trad.symbols_per_token(),
            "semantic {} vs traditional {} symbols/token",
            sem.symbols_per_token(),
            trad.symbols_per_token()
        );
    }

    #[test]
    fn empty_test_set_yields_default_report() {
        let (lang, kb, _, _) = trained_setup();
        let mut rng = seeded_rng(6);
        let report = evaluate_semantic(&kb, &kb, &lang, &[], &NoiselessChannel, &mut rng);
        assert_eq!(report.tokens, 0);
        assert_eq!(report.symbols_per_token(), 0.0);
    }
}
