use crate::huffman::HuffmanCode;
use rand::RngCore;
use semcom_channel::coding::BlockCode;
use semcom_channel::{BitPipeline, BitVec, Channel, Modulation, TransmitScratch};
use semcom_text::{ConceptId, Domain, Sentence, SyntheticLanguage};

/// A concept id that matches nothing — produced when the traditional
/// receiver cannot interpret a received word.
pub const UNINTERPRETABLE: ConceptId = ConceptId(u32::MAX);

/// The traditional "transmit data bit by bit" baseline (paper §I): Huffman
/// source coding, then channel coding + modulation over the physical
/// channel, then receiver-side lexicon interpretation of the decoded words.
///
/// Contrasts with the semantic path in two ways the experiments measure:
///
/// * **payload** — word bits versus a fixed handful of semantic symbols
///   (T1);
/// * **failure mode** — bit errors desynchronize the Huffman stream and
///   interpretation fails hard, whereas semantic features degrade
///   gracefully (F2); and even with error-free delivery, the receiver's
///   lexicon misreads idiolectic users (T3) because words, not meanings,
///   were transmitted.
pub struct TraditionalCodec {
    huffman: HuffmanCode,
    pipeline: BitPipeline,
}

impl std::fmt::Debug for TraditionalCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TraditionalCodec(huffman over {} tokens + {:?})",
            self.huffman.alphabet_len(),
            self.pipeline
        )
    }
}

impl TraditionalCodec {
    /// Builds the baseline from a training corpus (for Huffman frequencies)
    /// and a channel code + modulation.
    pub fn from_corpus(
        vocab_size: usize,
        corpus: &[Sentence],
        code: Box<dyn BlockCode + Send + Sync>,
        modulation: Modulation,
    ) -> Self {
        let huffman =
            HuffmanCode::from_corpus(vocab_size, corpus.iter().map(|s| s.tokens.as_slice()));
        TraditionalCodec {
            huffman,
            pipeline: BitPipeline::new(code, modulation),
        }
    }

    /// The source code in use.
    pub fn huffman(&self) -> &HuffmanCode {
        &self.huffman
    }

    /// The channel pipeline in use.
    pub fn pipeline(&self) -> &BitPipeline {
        &self.pipeline
    }

    /// Transmits a token sequence; returns the receiver's decoded tokens.
    pub fn transmit(
        &self,
        tokens: &[usize],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> Vec<usize> {
        let bits = BitVec::from_u8_bits(&self.huffman.encode(tokens));
        let mut scratch = TransmitScratch::new();
        let received = self
            .pipeline
            .transmit_packed(&bits, channel, rng, &mut scratch);
        self.huffman.decode(&received.to_u8_bits())
    }

    /// Channel symbols needed to carry a token sequence.
    pub fn symbols_for(&self, tokens: &[usize]) -> usize {
        let bits = self.huffman.encode(tokens).len();
        self.pipeline.symbols_for(bits)
    }

    /// Receiver-side interpretation: maps received words to concepts with
    /// the receiver's **domain lexicon**. Words without a sense in the
    /// domain map to [`UNINTERPRETABLE`].
    pub fn interpret(lang: &SyntheticLanguage, domain: Domain, tokens: &[usize]) -> Vec<ConceptId> {
        tokens
            .iter()
            .map(|&t| lang.token_sense(domain, t).unwrap_or(UNINTERPRETABLE))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcom_channel::coding::HammingCode74;
    use semcom_channel::{AwgnChannel, NoiselessChannel};
    use semcom_nn::rng::seeded_rng;
    use semcom_text::{CorpusGenerator, LanguageConfig, Rendering};

    fn setup() -> (SyntheticLanguage, Vec<Sentence>) {
        let lang = LanguageConfig::tiny().build(0);
        let mut gen = CorpusGenerator::new(&lang, 1);
        let corpus = gen.sentences(Domain::It, Rendering::Canonical, 50);
        (lang, corpus)
    }

    fn codec(lang: &SyntheticLanguage, corpus: &[Sentence]) -> TraditionalCodec {
        TraditionalCodec::from_corpus(
            lang.vocab().len(),
            corpus,
            Box::new(HammingCode74),
            Modulation::Bpsk,
        )
    }

    #[test]
    fn noiseless_transmission_is_exact() {
        let (lang, corpus) = setup();
        let c = codec(&lang, &corpus);
        let mut rng = seeded_rng(2);
        let tokens = &corpus[0].tokens;
        assert_eq!(c.transmit(tokens, &NoiselessChannel, &mut rng), *tokens);
    }

    #[test]
    fn interpretation_recovers_concepts_for_canonical_text() {
        let (lang, corpus) = setup();
        let s = &corpus[3];
        let concepts = TraditionalCodec::interpret(&lang, Domain::It, &s.tokens);
        assert_eq!(concepts, s.concepts);
    }

    #[test]
    fn cross_domain_interpretation_misreads_polysemy() {
        let (lang, _) = setup();
        let poly = lang.polysemous_tokens()[0];
        let it_sense = lang.token_sense(Domain::It, poly).unwrap();
        let med = TraditionalCodec::interpret(&lang, Domain::Medical, &[poly]);
        assert_ne!(med[0], it_sense, "same word, different domain sense");
    }

    #[test]
    fn low_snr_degrades_hard() {
        let (lang, corpus) = setup();
        let c = codec(&lang, &corpus);
        let mut rng = seeded_rng(3);
        let tokens: Vec<usize> = corpus
            .iter()
            .take(10)
            .flat_map(|s| s.tokens.clone())
            .collect();
        let out = c.transmit(&tokens, &AwgnChannel::new(-4.0), &mut rng);
        let exact = tokens.iter().zip(&out).filter(|(a, b)| a == b).count();
        assert!(
            (exact as f64) < 0.9 * tokens.len() as f64,
            "expected heavy corruption, got {exact}/{}",
            tokens.len()
        );
    }

    #[test]
    fn symbols_account_for_code_rate() {
        let (lang, corpus) = setup();
        let c = codec(&lang, &corpus);
        let tokens = &corpus[0].tokens;
        let bits = c.huffman().encode(tokens).len();
        // Hamming(7,4) on BPSK: ceil(bits/4)*7 symbols.
        assert_eq!(c.symbols_for(tokens), bits.div_ceil(4) * 7);
    }

    #[test]
    fn unknown_words_are_uninterpretable() {
        let (lang, _) = setup();
        let out = TraditionalCodec::interpret(&lang, Domain::It, &[0]); // <pad>
        assert_eq!(out[0], UNINTERPRETABLE);
    }
}
