use crate::concept::ConceptId;
use crate::domain::Domain;
use crate::idiolect::Idiolect;
use crate::language::SyntheticLanguage;
use crate::vocab::Vocabulary;
use rand::Rng;
use semcom_nn::rng::seeded_rng;
use serde::{Deserialize, Serialize};

/// How concepts are rendered to surface words.
#[derive(Debug, Clone, Copy)]
pub enum Rendering<'a> {
    /// Always the primary surface form (canonical domain usage).
    Canonical,
    /// Primary form mostly, synonyms with the given probability — the
    /// "well-pretrained" domain corpora the general KBs are trained on.
    Mixed(f64),
    /// Through a user's [`Idiolect`].
    Idiolect(&'a Idiolect),
}

/// A generated sentence with its ground truth.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sentence {
    /// Domain the sentence was generated in.
    pub domain: Domain,
    /// Ground-truth meaning: the concept sequence.
    pub concepts: Vec<ConceptId>,
    /// Surface words as uttered, as vocabulary token ids (the words
    /// themselves are `vocab.word_of(token)`).
    pub tokens: Vec<usize>,
}

impl Sentence {
    /// The surface words as uttered, looked up in `vocab`.
    ///
    /// # Panics
    ///
    /// Panics if a token is not in `vocab` (a sentence of another
    /// language's vocabulary).
    pub fn words<'a>(&'a self, vocab: &'a Vocabulary) -> impl Iterator<Item = &'a str> + 'a {
        self.tokens
            .iter()
            .map(|&t| vocab.word_of(t).expect("sentence token is interned"))
    }

    /// The sentence as a single space-joined string.
    ///
    /// # Panics
    ///
    /// As [`Self::words`].
    pub fn text(&self, vocab: &Vocabulary) -> String {
        self.words(vocab).collect::<Vec<_>>().join(" ")
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the sentence has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Raw UTF-8 payload size of the sentence text in bytes (including
    /// separating spaces) — the baseline "transmit the words bit by bit"
    /// cost used by the payload experiment (T1).
    ///
    /// # Panics
    ///
    /// As [`Self::words`].
    pub fn utf8_bytes(&self, vocab: &Vocabulary) -> usize {
        let letters: usize = self.words(vocab).map(str::len).sum();
        letters + self.tokens.len().saturating_sub(1)
    }
}

/// A seeded sentence generator over a [`SyntheticLanguage`].
///
/// Concepts are drawn from the language's
/// [concept popularity](SyntheticLanguage::concept_zipf) over the domain's
/// concept list (shared concepts first, mirroring frequent function
/// words), with uniformly-distributed sentence lengths. A generator owns
/// only its RNG, so making one per message costs no table.
#[derive(Debug)]
pub struct CorpusGenerator<'a> {
    lang: &'a SyntheticLanguage,
    rng: rand::rngs::StdRng,
    min_len: usize,
    max_len: usize,
}

impl<'a> CorpusGenerator<'a> {
    /// Creates a generator with default length range (4..=12).
    pub fn new(lang: &'a SyntheticLanguage, seed: u64) -> Self {
        Self::with_params(lang, seed, 4, 12)
    }

    /// Creates a generator with an explicit length range.
    ///
    /// # Panics
    ///
    /// Panics if `min_len == 0` or `min_len > max_len`.
    pub fn with_params(
        lang: &'a SyntheticLanguage,
        seed: u64,
        min_len: usize,
        max_len: usize,
    ) -> Self {
        assert!(min_len > 0 && min_len <= max_len, "invalid length range");
        CorpusGenerator {
            lang,
            rng: seeded_rng(seed),
            min_len,
            max_len,
        }
    }

    /// Generates one sentence in `domain` with the given rendering.
    pub fn sentence(&mut self, domain: Domain, rendering: Rendering<'_>) -> Sentence {
        let len = self.rng.gen_range(self.min_len..=self.max_len);
        let (lang, zipf) = (self.lang, self.lang.concept_zipf());
        let concepts: Vec<ConceptId> = (0..len)
            .map(|_| lang.domain_concepts(domain)[zipf.sample(&mut self.rng)])
            .collect();
        let tokens = self.tokens(&concepts, rendering);
        Sentence {
            domain,
            concepts,
            tokens,
        }
    }

    /// Generates `n` sentences in `domain`.
    pub fn sentences(
        &mut self,
        domain: Domain,
        rendering: Rendering<'_>,
        n: usize,
    ) -> Vec<Sentence> {
        (0..n).map(|_| self.sentence(domain, rendering)).collect()
    }

    /// Renders an explicit concept sequence to a [`Sentence`].
    pub fn render(
        &mut self,
        domain: Domain,
        concepts: &[ConceptId],
        rendering: Rendering<'_>,
    ) -> Sentence {
        Sentence {
            domain,
            concepts: concepts.to_vec(),
            tokens: self.tokens(concepts, rendering),
        }
    }

    /// The surface tokens `concepts` are uttered as.
    fn tokens(&mut self, concepts: &[ConceptId], rendering: Rendering<'_>) -> Vec<usize> {
        concepts
            .iter()
            .map(|&c| match rendering {
                Rendering::Canonical => self.lang.primary_token(c),
                Rendering::Mixed(p) => {
                    let surfaces = self.lang.surfaces(c);
                    if surfaces.len() > 1 && self.rng.gen::<f64>() < p {
                        surfaces[self.rng.gen_range(1..surfaces.len())]
                    } else {
                        surfaces[0]
                    }
                }
                Rendering::Idiolect(id) => id.utter(self.lang, c),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idiolect::IdiolectConfig;
    use crate::language::LanguageConfig;

    fn lang() -> SyntheticLanguage {
        LanguageConfig::default().build(0)
    }

    #[test]
    fn sentence_lengths_respect_range() {
        let l = lang();
        let mut g = CorpusGenerator::with_params(&l, 1, 3, 5);
        for _ in 0..50 {
            let s = g.sentence(Domain::News, Rendering::Canonical);
            assert!(s.len() >= 3 && s.len() <= 5);
            assert_eq!(s.concepts.len(), s.len());
            assert_eq!(s.words(l.vocab()).count(), s.len());
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let l = lang();
        let mut a = CorpusGenerator::new(&l, 7);
        let mut b = CorpusGenerator::new(&l, 7);
        assert_eq!(
            a.sentences(Domain::It, Rendering::Canonical, 5),
            b.sentences(Domain::It, Rendering::Canonical, 5)
        );
    }

    #[test]
    fn canonical_rendering_resolves_to_ground_truth() {
        let l = lang();
        let mut g = CorpusGenerator::new(&l, 3);
        let s = g.sentence(Domain::Medical, Rendering::Canonical);
        for (c, t) in s.concepts.iter().zip(&s.tokens) {
            assert_eq!(l.token_sense(Domain::Medical, *t), Some(*c));
        }
    }

    #[test]
    fn mixed_rendering_uses_synonyms() {
        let l = lang();
        let mut g = CorpusGenerator::new(&l, 4);
        let mut synonyms_seen = 0;
        for _ in 0..30 {
            let s = g.sentence(Domain::It, Rendering::Mixed(0.5));
            for (c, t) in s.concepts.iter().zip(&s.tokens) {
                // Still correct sense…
                assert_eq!(l.token_sense(Domain::It, *t), Some(*c));
                // …but possibly not the primary form.
                if *t != l.primary_token(*c) {
                    synonyms_seen += 1;
                }
            }
        }
        assert!(synonyms_seen > 0, "Mixed rendering never used a synonym");
    }

    #[test]
    fn idiolect_rendering_applies_overrides() {
        let l = lang();
        let id = Idiolect::sample(&l, Domain::It, IdiolectConfig::with_strength(1.0), 5);
        let mut g = CorpusGenerator::new(&l, 6);
        let mut overridden = 0;
        for _ in 0..30 {
            let s = g.sentence(Domain::It, Rendering::Idiolect(&id));
            for (c, t) in s.concepts.iter().zip(&s.tokens) {
                assert_eq!(*t, id.utter(&l, *c));
                if id.token_override(*c).is_some() {
                    overridden += 1;
                }
            }
        }
        assert!(overridden > 0);
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let l = lang();
        let mut g = CorpusGenerator::with_params(&l, 9, 8, 8);
        let concepts = l.domain_concepts(Domain::News);
        let head = concepts[0];
        let tail = concepts[concepts.len() - 1];
        let mut head_n = 0;
        let mut tail_n = 0;
        for _ in 0..200 {
            let s = g.sentence(Domain::News, Rendering::Canonical);
            head_n += s.concepts.iter().filter(|&&c| c == head).count();
            tail_n += s.concepts.iter().filter(|&&c| c == tail).count();
        }
        assert!(head_n > tail_n, "head {head_n} vs tail {tail_n}");
    }

    #[test]
    fn text_and_utf8_bytes() {
        let l = lang();
        let mut g = CorpusGenerator::new(&l, 2);
        let s = g.sentence(Domain::It, Rendering::Canonical);
        let text = s.text(l.vocab());
        assert_eq!(text.split(' ').count(), s.len());
        assert_eq!(s.utf8_bytes(l.vocab()), text.len());
        let empty = g.render(Domain::It, &[], Rendering::Canonical);
        assert_eq!(empty.text(l.vocab()), "");
        assert_eq!(empty.utf8_bytes(l.vocab()), 0);
    }
}
