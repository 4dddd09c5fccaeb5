use crate::concept::ConceptId;
use crate::domain::Domain;
use crate::vocab::Vocabulary;
use crate::words::pseudo_word;
use semcom_nn::rng::Zipf;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Configuration for building a [`SyntheticLanguage`].
///
/// The defaults produce a language of ~180 concepts and ~500 surface words —
/// large enough that codecs must genuinely learn the lexicons, small enough
/// to train in seconds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LanguageConfig {
    /// Concepts unique to each domain.
    pub concepts_per_domain: usize,
    /// Concepts shared by all domains (domain-neutral meanings).
    pub shared_concepts: usize,
    /// Synonyms per concept in addition to the primary surface word.
    pub synonyms_per_concept: usize,
    /// Number of polysemous surface words. Polysemous word `j` becomes the
    /// *primary* surface of the `j`-th domain-specific concept of **every**
    /// domain, so its sense depends entirely on the domain — the paper's
    /// "bus" example (§II-A).
    pub polysemous_words: usize,
}

impl Default for LanguageConfig {
    fn default() -> Self {
        LanguageConfig {
            concepts_per_domain: 40,
            shared_concepts: 16,
            synonyms_per_concept: 2,
            polysemous_words: 8,
        }
    }
}

impl LanguageConfig {
    /// Zipf exponent of concept popularity inside a domain (see
    /// [`SyntheticLanguage::concept_zipf`]).
    pub const CONCEPT_ZIPF_ALPHA: f64 = 0.9;

    /// A miniature language for fast unit tests.
    pub fn tiny() -> Self {
        LanguageConfig {
            concepts_per_domain: 8,
            shared_concepts: 4,
            synonyms_per_concept: 1,
            polysemous_words: 2,
        }
    }

    /// Builds the language. `seed` currently only fixes tie-breaking order
    /// and is kept for forward compatibility; construction is deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `polysemous_words > concepts_per_domain`.
    pub fn build(&self, seed: u64) -> SyntheticLanguage {
        assert!(
            self.polysemous_words <= self.concepts_per_domain,
            "more polysemous words than domain concepts"
        );
        let _ = seed;
        let mut vocab = Vocabulary::new();
        let mut concepts: Vec<ConceptInfo> = Vec::new();
        let mut next_word = 0usize;
        let mut fresh_word = |vocab: &mut Vocabulary| {
            let w = pseudo_word(next_word);
            next_word += 1;
            vocab.intern(&w)
        };

        // Shared concepts: same surfaces in every domain.
        for _ in 0..self.shared_concepts {
            let id = ConceptId(concepts.len() as u32);
            let mut surfaces = Vec::with_capacity(1 + self.synonyms_per_concept);
            for _ in 0..=self.synonyms_per_concept {
                surfaces.push(fresh_word(&mut vocab));
            }
            concepts.push(ConceptInfo {
                id,
                domain: None,
                surfaces,
            });
        }

        // Polysemous surface words, shared as primaries across domains.
        let poly_tokens: Vec<usize> = (0..self.polysemous_words)
            .map(|_| fresh_word(&mut vocab))
            .collect();

        // Domain-specific concepts.
        for d in Domain::ALL {
            for i in 0..self.concepts_per_domain {
                let id = ConceptId(concepts.len() as u32);
                let mut surfaces = Vec::with_capacity(2 + self.synonyms_per_concept);
                if let Some(&poly) = poly_tokens.get(i) {
                    // Primary surface is the shared polysemous word; the
                    // concept also gets an unambiguous synonym of its own.
                    surfaces.push(poly);
                }
                for _ in 0..=self.synonyms_per_concept {
                    surfaces.push(fresh_word(&mut vocab));
                }
                concepts.push(ConceptInfo {
                    id,
                    domain: Some(d),
                    surfaces,
                });
            }
        }

        // Per-domain sense maps and concept lists.
        let mut senses: Vec<HashMap<usize, ConceptId>> = vec![HashMap::new(); Domain::COUNT];
        let mut domain_concepts: Vec<Vec<ConceptId>> = vec![Vec::new(); Domain::COUNT];
        for c in &concepts {
            match c.domain {
                None => {
                    for d in Domain::ALL {
                        for &t in &c.surfaces {
                            senses[d.index()].insert(t, c.id);
                        }
                        domain_concepts[d.index()].push(c.id);
                    }
                }
                Some(d) => {
                    for &t in &c.surfaces {
                        senses[d.index()].insert(t, c.id);
                    }
                    domain_concepts[d.index()].push(c.id);
                }
            }
        }

        // Every domain lists the same number of concepts.
        let concept_zipf = Zipf::new(
            self.shared_concepts + self.concepts_per_domain,
            Self::CONCEPT_ZIPF_ALPHA,
        );
        SyntheticLanguage {
            config: self.clone(),
            vocab,
            concepts,
            senses,
            domain_concepts,
            concept_zipf,
            poly_tokens,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ConceptInfo {
    id: ConceptId,
    /// `None` for shared (domain-neutral) concepts.
    domain: Option<Domain>,
    /// Surface token ids; index 0 is the primary form.
    surfaces: Vec<usize>,
}

/// A fully-built synthetic language: concept inventory, per-domain lexicons,
/// and the global surface vocabulary.
///
/// See the [crate documentation](crate) for the linguistic phenomena this
/// models and why.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SyntheticLanguage {
    config: LanguageConfig,
    vocab: Vocabulary,
    concepts: Vec<ConceptInfo>,
    /// Per-domain `token id -> concept` maps.
    senses: Vec<HashMap<usize, ConceptId>>,
    /// Concepts usable in each domain (shared first, then domain-specific).
    domain_concepts: Vec<Vec<ConceptId>>,
    /// Popularity of a domain's concepts by rank, built once here.
    concept_zipf: Zipf,
    poly_tokens: Vec<usize>,
}

impl SyntheticLanguage {
    /// The configuration the language was built from.
    pub fn config(&self) -> &LanguageConfig {
        &self.config
    }

    /// The global surface vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Total number of concepts (= semantic decoder classes).
    pub fn concept_count(&self) -> usize {
        self.concepts.len()
    }

    /// Concepts available in a domain (shared concepts first).
    pub fn domain_concepts(&self, d: Domain) -> &[ConceptId] {
        &self.domain_concepts[d.index()]
    }

    /// Popularity of a domain's concepts: rank `k` of
    /// [`Self::domain_concepts`] is drawn with Zipf probability
    /// (exponent [`LanguageConfig::CONCEPT_ZIPF_ALPHA`]), so shared
    /// concepts are the most frequent.
    pub fn concept_zipf(&self) -> &Zipf {
        &self.concept_zipf
    }

    /// The domain a concept belongs to (`None` for shared concepts).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn concept_domain(&self, c: ConceptId) -> Option<Domain> {
        self.concepts[c.index()].domain
    }

    /// All surface token ids of a concept; index 0 is the primary form.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn surfaces(&self, c: ConceptId) -> &[usize] {
        &self.concepts[c.index()].surfaces
    }

    /// The primary surface token of a concept.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn primary_token(&self, c: ConceptId) -> usize {
        self.concepts[c.index()].surfaces[0]
    }

    /// The primary surface word of a concept.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn primary_word(&self, c: ConceptId) -> &str {
        self.vocab
            .word_of(self.primary_token(c))
            .expect("primary token is interned")
    }

    /// The sense of a surface token in a domain, if the token is used there.
    pub fn token_sense(&self, d: Domain, token: usize) -> Option<ConceptId> {
        self.senses[d.index()].get(&token).copied()
    }

    /// The sense of a surface word in a domain.
    pub fn word_sense(&self, d: Domain, word: &str) -> Option<ConceptId> {
        self.vocab.id_of(word).and_then(|t| self.token_sense(d, t))
    }

    /// The deliberately polysemous surface tokens (senses differ by domain).
    pub fn polysemous_tokens(&self) -> &[usize] {
        &self.poly_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lang() -> SyntheticLanguage {
        LanguageConfig::default().build(1)
    }

    #[test]
    fn concept_count_matches_config() {
        let l = lang();
        let cfg = l.config();
        assert_eq!(
            l.concept_count(),
            cfg.shared_concepts + cfg.concepts_per_domain * Domain::COUNT
        );
    }

    #[test]
    fn domain_concepts_include_shared_plus_own() {
        let l = lang();
        for d in Domain::ALL {
            assert_eq!(
                l.domain_concepts(d).len(),
                l.config().shared_concepts + l.config().concepts_per_domain
            );
        }
    }

    #[test]
    fn polysemous_words_have_distinct_senses_per_domain() {
        let l = lang();
        for &t in l.polysemous_tokens() {
            let senses: Vec<ConceptId> = Domain::ALL
                .iter()
                .filter_map(|&d| l.token_sense(d, t))
                .collect();
            assert_eq!(senses.len(), Domain::COUNT, "poly token missing a sense");
            for i in 1..senses.len() {
                assert_ne!(senses[0], senses[i], "polysemous senses must differ");
            }
        }
    }

    #[test]
    fn non_polysemous_primaries_are_unambiguous() {
        let l = lang();
        for d in Domain::ALL {
            for &c in l.domain_concepts(d) {
                if l.concept_domain(c).is_none() {
                    // Shared concept: same sense in all domains.
                    for d2 in Domain::ALL {
                        assert_eq!(l.token_sense(d2, l.primary_token(c)), Some(c));
                    }
                }
            }
        }
    }

    #[test]
    fn every_surface_resolves_in_its_domain() {
        let l = lang();
        for d in Domain::ALL {
            for &c in l.domain_concepts(d) {
                for &t in l.surfaces(c) {
                    assert_eq!(l.token_sense(d, t), Some(c), "surface of {c} in {d}");
                }
            }
        }
    }

    #[test]
    fn shared_concepts_have_no_domain() {
        let l = lang();
        let shared = l.config().shared_concepts;
        for i in 0..shared {
            assert_eq!(l.concept_domain(ConceptId(i as u32)), None);
        }
        assert!(l.concept_domain(ConceptId(shared as u32)).is_some());
    }

    #[test]
    fn build_is_deterministic() {
        let a = LanguageConfig::default().build(1);
        let b = LanguageConfig::default().build(2);
        assert_eq!(a, b, "construction does not depend on seed");
    }

    #[test]
    #[should_panic(expected = "more polysemous words")]
    fn rejects_excess_polysemy() {
        LanguageConfig {
            concepts_per_domain: 2,
            polysemous_words: 3,
            ..LanguageConfig::tiny()
        }
        .build(0);
    }

    #[test]
    fn tiny_language_is_well_formed() {
        let l = LanguageConfig::tiny().build(0);
        assert!(l.concept_count() > 0);
        assert!(l.vocab().len() > 2);
    }
}
