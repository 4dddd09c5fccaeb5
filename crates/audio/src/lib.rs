//! # semcom-audio
//!
//! The audio leg of the **multimodal** extension (paper §III-B: "text,
//! image, video, and audio"): a semantic codec over a synthetic tone-melody
//! modality.
//!
//! * [`ToneSet`] — each auditory concept is a deterministic three-note
//!   melody over a small frequency alphabet, rendered to a 64-sample
//!   waveform; samples add Gaussian acoustic noise and amplitude jitter, so
//!   ground-truth meaning is exactly known;
//! * [`MlpFrontend`] — the `Linear(64→32) → ReLU` front end that makes
//!   `KnowledgeBase::for_source(&tones, …)` (semcom-codec's one
//!   [`KnowledgeBase`](semcom_codec::KnowledgeBase) type) an MLP knowledge
//!   base sending `feature_dim` analog symbols per melody;
//! * [`MatchedFilter`] — the classical receiver baseline: ship the raw
//!   waveform as analog I/Q samples (32 channel symbols) and classify at
//!   the receiver by correlation against the known prototypes.
//!
//! Experiment F10 (`semcom-bench`, `f10_audio_codec`) sweeps SNR and
//! compares accuracy and channel uses.
//!
//! # Example
//!
//! ```
//! use semcom_audio::ToneSet;
//! use semcom_channel::AwgnChannel;
//! use semcom_codec::concept::ConceptTrainConfig;
//! use semcom_codec::KnowledgeBase;
//! use semcom_nn::rng::seeded_rng;
//!
//! let tones = ToneSet::new(6, 1);
//! let mut kb = KnowledgeBase::for_source(&tones, 8, 2);
//! kb.train(&tones, &ConceptTrainConfig { epochs: 4, ..Default::default() }, 3);
//! let acc = kb.accuracy(&tones, &AwgnChannel::new(15.0), 100, &mut seeded_rng(4));
//! assert!(acc > 0.8, "accuracy {acc}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod frontend;
mod tones;

pub use frontend::{MlpFrontend, QuantizedMlpFrontend};
pub use tones::{MatchedFilter, ToneSet, WAVE_SAMPLES};
