//! # semcom-codec
//!
//! Semantic encoder/decoder **knowledge bases** (KBs) and the traditional
//! bit-level baseline for the `semcom` reproduction of *"Semantic
//! Communications, Semantic Edge Computing, and Semantic Caching"*
//! (Yu & Zhao, ICDCS 2023).
//!
//! The paper's KBs are "deep-learning models that self-learn over time"
//! performing *semantic feature extraction and restoration* (§I). Here a KB
//! is a compact neural codec over the synthetic language of [`semcom_text`]:
//!
//! * [`SemanticEncoder`] — input → [`Frontend`] (for text the token
//!   embedding) → linear projection → power normalization →
//!   `feature_dim`-float semantic symbols transmitted as analog I/Q
//!   samples, with [`QuantizedEncoder`] as its int8 form;
//! * [`SemanticDecoder`] — noisy features → MLP → **concept** logits, with
//!   [`QuantizedDecoder`] as its int8 form. The decoder emits meanings, not
//!   words: this is what makes domain polysemy and user idiolects
//!   measurable (see [`semcom_text`]);
//! * [`KnowledgeBase<F>`] — an encoder/decoder pair over front end `F`
//!   tagged with its scope (general, domain-specialized `e_i^m`, or
//!   user-specific `e_{u}^m`), the one fp32 KB of every modality: text (the
//!   default, trainable with [`train::Trainer`]) and, built with
//!   [`KnowledgeBase::for_source`] over a [`concept::ConceptSource`], the
//!   non-text modalities of §III-B — `semcom-audio` (MLP front end) and
//!   `semcom-vision` (CNN, images and video). [`QuantizedKb<F>`] is its
//!   one int8 form. KBs are the cached objects of the semantic cache, and
//!   both precisions count their bytes by one rule;
//! * [`mismatch::mismatch_rate`] — the encoder/decoder mismatch `ε(e, d)`
//!   the sender edge measures with its **decoder copy** (§II-C);
//! * [`TraditionalCodec`] — Huffman source coding + channel coding +
//!   modulation: the "transmit data bit by bit" baseline (§I), including
//!   its receiver-side lexicon interpretation.
//!
//! # Example: train a domain KB and transmit a sentence
//!
//! ```
//! use semcom_codec::{CodecConfig, KnowledgeBase, KbScope, train::{Trainer, TrainConfig}};
//! use semcom_text::{LanguageConfig, Domain, CorpusGenerator, Rendering};
//! use semcom_channel::AwgnChannel;
//! use semcom_nn::rng::seeded_rng;
//!
//! let lang = LanguageConfig::tiny().build(0);
//! let mut gen = CorpusGenerator::new(&lang, 1);
//! let train_set = gen.sentences(Domain::It, Rendering::Mixed(0.2), 60);
//!
//! let mut kb = KnowledgeBase::new(
//!     CodecConfig::tiny(),
//!     lang.vocab().len(),
//!     lang.concept_count(),
//!     KbScope::DomainGeneral(Domain::It),
//!     7,
//! );
//! let mut trainer = Trainer::new(TrainConfig { epochs: 10, ..TrainConfig::default() });
//! trainer.fit(&mut kb, &train_set, 7);
//!
//! let mut rng = seeded_rng(2);
//! let s = gen.sentence(Domain::It, Rendering::Canonical);
//! let decoded = kb.transmit(&kb, &s.tokens, &AwgnChannel::new(12.0), &mut rng);
//! assert_eq!(decoded.len(), s.tokens.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod config;
mod decoder;
mod encoder;
mod huffman;
mod kb;
mod quantized;

pub mod concept;
pub mod eval;
pub mod mismatch;
pub mod train;

pub use baseline::{TraditionalCodec, UNINTERPRETABLE};
pub use config::CodecConfig;
pub use decoder::SemanticDecoder;
pub use encoder::{Frontend, QuantizedFrontend, SemanticEncoder};
pub use huffman::HuffmanCode;
pub use kb::{KbScope, KnowledgeBase};
pub use quantized::{
    quantize_model, DecodeScratch, EncodeScratch, QuantizedDecoder, QuantizedEncoder, QuantizedKb,
};
