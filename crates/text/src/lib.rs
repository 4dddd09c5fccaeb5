//! # semcom-text
//!
//! A synthetic multi-domain language for the `semcom` reproduction of
//! *"Semantic Communications, Semantic Edge Computing, and Semantic
//! Caching"* (Yu & Zhao, ICDCS 2023).
//!
//! The paper motivates domain-specialized and user-specific knowledge bases
//! with two lexical phenomena:
//!
//! 1. **Domain polysemy** (§II-A): the word *"bus"* means a vehicle in daily
//!    life but an interconnect in computer architecture. A general model must
//!    commit to one sense and mismatches the other domains.
//! 2. **User idiolects** (§II-B): different people use the same word or
//!    phrase to mean different things, so a domain-general model misreads
//!    individual users.
//!
//! Real corpora exhibit these phenomena uncontrollably; this crate generates
//! a language in which both are **explicit and tunable**, so the semantic
//! mismatch the paper argues about can be measured exactly:
//!
//! * a global inventory of [`ConceptId`]s (meanings) — what semantic
//!   communication actually transmits;
//! * per-[`Domain`] lexicons mapping each concept to a primary surface word
//!   plus synonyms, with a configurable number of **polysemous** words whose
//!   sense depends on the domain;
//! * per-user [`Idiolect`]s that systematically prefer synonyms or even
//!   *cross-sense* words (the user's word choice collides with another
//!   concept's primary word);
//! * seeded [`CorpusGenerator`]s producing [`Sentence`]s that carry their
//!   ground-truth concept sequence, so *semantic accuracy is exactly
//!   computable*;
//! * text metrics ([`metrics::bleu`], [`metrics::concept_accuracy`],
//!   [`metrics::bow_cosine`]).
//!
//! # Example
//!
//! ```
//! use semcom_text::{LanguageConfig, Domain, CorpusGenerator, Rendering};
//!
//! let lang = LanguageConfig::default().build(7);
//! let mut gen = CorpusGenerator::new(&lang, 42);
//! let s = gen.sentence(Domain::It, Rendering::Canonical);
//! assert_eq!(s.concepts.len(), s.tokens.len());
//! // Every canonical word resolves back to its concept in-domain.
//! for (c, w) in s.concepts.iter().zip(s.words(lang.vocab())) {
//!     assert_eq!(lang.word_sense(Domain::It, w), Some(*c));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod concept;
mod corpus;
mod domain;
mod idiolect;
mod language;
mod tokenizer;
mod vocab;
mod words;

pub mod metrics;

pub use concept::ConceptId;
pub use corpus::{CorpusGenerator, Rendering, Sentence};
pub use domain::Domain;
pub use idiolect::{Idiolect, IdiolectConfig};
pub use language::{LanguageConfig, SyntheticLanguage};
pub use tokenizer::{tokenize, tokenize_words};
pub use vocab::Vocabulary;
