//! # semcom-vision
//!
//! The **multimodal** extension of the `semcom` reproduction: an image
//! semantic codec, as called for by the paper's §III-B — "given the
//! diverse nature of message types, including text, image, video, and
//! audio, it is crucial to consider multimodality … promising approaches
//! include convolutional neural networks (CNNs)".
//!
//! Real image corpora are out of scope for a deterministic laptop-scale
//! reproduction (see DESIGN.md → Substitutions), so this crate supplies:
//!
//! * [`GlyphSet`] — a synthetic image modality: each concept has a
//!   deterministic 12×12 prototype glyph; samples are noisy, jittered
//!   renderings, so ground-truth *meaning* is exactly known (the same
//!   trick the text modality uses);
//! * [`ConvFrontend`] — the Conv → ReLU → MaxPool front end that makes
//!   `KnowledgeBase::for_source(&glyphs, …)` (semcom-codec's one
//!   [`KnowledgeBase`](semcom_codec::KnowledgeBase) type) a CNN knowledge
//!   base sending a handful of analog symbols per image;
//! * [`PixelBaseline`] — the traditional leg: 1-bit pixels through a
//!   channel-coded bit pipeline, classified at the receiver by nearest
//!   prototype;
//! * [`VideoSet`] — the **video** leg: short clips whose meaning is a
//!   `(glyph, motion)` pair; `KnowledgeBase::for_source(&videos, …)`
//!   encodes them with the same front end, its input channels the frames
//!   (temporal differences visible to the kernels).
//!
//! Experiment F7 (`semcom-bench`, `f7_image_codec`) sweeps SNR and
//! compares accuracy and channel uses.
//!
//! # Example
//!
//! ```
//! use semcom_vision::GlyphSet;
//! use semcom_channel::AwgnChannel;
//! use semcom_codec::concept::ConceptTrainConfig;
//! use semcom_codec::KnowledgeBase;
//! use semcom_nn::rng::seeded_rng;
//!
//! let glyphs = GlyphSet::new(6, 1);
//! let mut kb = KnowledgeBase::for_source(&glyphs, 8, 2);
//! kb.train(&glyphs, &ConceptTrainConfig { epochs: 4, ..Default::default() }, 3);
//! let acc = kb.accuracy(&glyphs, &AwgnChannel::new(15.0), 100, &mut seeded_rng(4));
//! assert!(acc > 0.8, "accuracy {acc}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod frontend;
mod glyphs;
mod video;

pub use baseline::PixelBaseline;
pub use frontend::ConvFrontend;
pub use glyphs::{GlyphSet, GLYPH_PIXELS, GLYPH_SIDE};
pub use video::{Motion, VideoSet, CLIP_SAMPLES, FRAMES};
