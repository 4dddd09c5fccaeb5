//! Int8 post-training-quantized knowledge bases for the serving hot path.
//!
//! A trained [`KnowledgeBase`] is converted once with [`quantize_model`]
//! (or [`KnowledgeBase::quantize`]) into a [`QuantizedKb`]: embedding table
//! and linear weights stored as `i8` with per-row affine parameters
//! (~4x smaller — the quantity the semantic cache and the cloud→edge fetch
//! pay for), forward passes accumulating the integer code products exactly
//! (see [`semcom_nn::quant`]). Quantized KBs are inference-only: they have no
//! backward pass and no trainable parameters, which matches how the edge
//! serves messages — training happens on the f32 model, and re-quantization
//! after a sync round is a cheap one-shot conversion.
//!
//! The batch entry point [`QuantizedEncoder::encode_batch_into`] takes the
//! *concatenation* of many users' token lists: every token row flows
//! through the encoder independently (embedding gather, per-row projection,
//! per-row power normalization), so packing users into one activation
//! matrix changes throughput, never results.

use crate::decoder::{over_channel, SemanticDecoder};
use crate::encoder::{Frontend, QuantizedFrontend, SemanticEncoder};
use crate::kb::KnowledgeBase;
use rand::RngCore;
use semcom_channel::Channel;
use semcom_nn::layers::{Embedding, LayerNorm};
use semcom_nn::quant::{ModelScratch, QuantizedLinear, QuantizedModel};
use semcom_nn::Tensor;
use semcom_text::ConceptId;
use serde::{Deserialize, Serialize};

/// Reusable buffers for the quantized encode path; one per serving thread.
/// Warm calls to [`QuantizedEncoder::encode_batch_into`] are
/// allocation-free once the buffers have grown to the largest batch seen.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    quant: semcom_nn::quant::QuantScratch,
    feat: Vec<f32>,
}

impl EncodeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable buffers for the quantized decode path.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    model: ModelScratch,
    logits: Vec<f32>,
}

impl DecodeScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Int8 twin of [`SemanticEncoder`]: the front end's int8 form (for text
/// the quantized embedding table, the bulk of a text KB's bytes), quantized
/// projection, f32 power normalization.
#[derive(Debug, Clone)]
pub struct QuantizedEncoder<F: Frontend = Embedding> {
    frontend: F::Quantized,
    proj: QuantizedLinear,
    norm: LayerNorm,
}

impl<F: Frontend> QuantizedEncoder<F> {
    /// Quantizes a trained f32 encoder.
    pub fn from_encoder(enc: &SemanticEncoder<F>) -> Self {
        QuantizedEncoder {
            frontend: enc.frontend().quantize(),
            proj: QuantizedLinear::from_linear(enc.proj()),
            norm: enc.norm().clone(),
        }
    }

    /// Feature dimensionality per row.
    pub fn feature_dim(&self) -> usize {
        self.proj.out_dim()
    }

    /// The int8 front end (read-only).
    pub(crate) fn frontend(&self) -> &F::Quantized {
        &self.frontend
    }

    /// Encodes `x` (for text, the concatenation of one or many users' token
    /// lists) into `[rows, feature_dim]` power-normalized features, returned
    /// as a borrow of the scratch buffer. Allocation-free once `scratch` is
    /// warm wherever the front end's [`QuantizedFrontend::project_into`] is.
    ///
    /// # Panics
    ///
    /// Panics where [`SemanticEncoder::encode`] does.
    pub fn encode_batch_into<'a>(&self, x: &F::Input, scratch: &'a mut EncodeScratch) -> &'a [f32] {
        self.frontend
            .project_into(&self.proj, x, &mut scratch.quant, &mut scratch.feat);
        self.norm.normalize_rows(&mut scratch.feat);
        &scratch.feat
    }

    /// Allocating convenience wrapper over
    /// [`QuantizedEncoder::encode_batch_into`].
    pub fn encode(&self, x: &F::Input) -> Tensor {
        let mut scratch = EncodeScratch::new();
        let rows = self.encode_batch_into(x, &mut scratch).len() / self.feature_dim();
        Tensor::from_vec(rows, self.feature_dim(), scratch.feat)
            .expect("shape correct by construction")
    }

    /// Serialized size in bytes (int8 front end + projection + f32 norm).
    pub fn size_bytes(&self) -> usize {
        self.frontend.size_bytes() + self.proj.size_bytes() + 2 * self.norm.dim() * 4
    }
}

/// Int8 twin of [`SemanticDecoder`]: feature → quantized MLP → concept
/// logits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedDecoder {
    model: QuantizedModel,
}

impl QuantizedDecoder {
    /// Quantizes a trained f32 decoder.
    pub fn from_decoder(dec: &SemanticDecoder) -> Self {
        QuantizedDecoder {
            model: QuantizedModel::from_linears(&[dec.l1(), dec.l2()]),
        }
    }

    /// Number of concept classes.
    pub fn concept_count(&self) -> usize {
        self.model.out_dim()
    }

    /// Feature dimensionality expected on input.
    pub fn feature_dim(&self) -> usize {
        self.model.in_dim()
    }

    /// Hard decisions for a flat `[rows, feature_dim]` buffer, appended to
    /// `out` (cleared first). Allocation-free once `scratch` is warm.
    ///
    /// # Panics
    ///
    /// Panics if `features.len() != rows * feature_dim()`.
    pub fn predict_into(
        &self,
        features: &[f32],
        rows: usize,
        scratch: &mut DecodeScratch,
        out: &mut Vec<ConceptId>,
    ) {
        self.model
            .forward_into(features, rows, &mut scratch.model, &mut scratch.logits);
        let c = self.concept_count();
        out.clear();
        for row in scratch.logits.chunks_exact(c) {
            let mut best = 0;
            for (i, &v) in row.iter().enumerate() {
                if v > row[best] {
                    best = i;
                }
            }
            out.push(ConceptId(best as u32));
        }
    }

    /// Allocating convenience wrapper over
    /// [`QuantizedDecoder::predict_into`].
    pub fn predict(&self, features: &Tensor) -> Vec<ConceptId> {
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        self.predict_into(features.as_slice(), features.rows(), &mut scratch, &mut out);
        out
    }

    /// Serialized size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.model.size_bytes()
    }
}

/// An int8 post-training-quantized [`KnowledgeBase`] over front end `F`,
/// for inference only: ~4x smaller, same air interface.
#[derive(Debug, Clone)]
pub struct QuantizedKb<F: Frontend = Embedding> {
    /// The quantized encoder.
    pub encoder: QuantizedEncoder<F>,
    /// The quantized decoder.
    pub decoder: QuantizedDecoder,
}

/// Converts a trained f32 knowledge base into its int8 inference twin
/// (see [`KnowledgeBase::quantize`]).
pub fn quantize_model<F: Frontend>(kb: &KnowledgeBase<F>) -> QuantizedKb<F> {
    kb.quantize()
}

impl<F: Frontend> KnowledgeBase<F> {
    /// Converts this trained KB into its int8 inference twin.
    pub fn quantize(&self) -> QuantizedKb<F> {
        QuantizedKb {
            encoder: QuantizedEncoder::from_encoder(&self.encoder),
            decoder: QuantizedDecoder::from_decoder(&self.decoder),
        }
    }
}

impl<F: Frontend> QuantizedKb<F> {
    /// Features per transmitted row (the air interface of the fp32 KB).
    pub fn feature_dim(&self) -> usize {
        self.encoder.feature_dim()
    }

    /// Storage/transfer size in bytes, the rule of
    /// [`KnowledgeBase::size_bytes`]: encoder (int8 front end and
    /// projection, f32 norm), decoder and a 64-byte header.
    pub fn size_bytes(&self) -> usize {
        self.encoder.size_bytes() + self.decoder.size_bytes() + 64
    }

    /// The int8 twin of [`KnowledgeBase::transmit`]: encode `x` with
    /// `self`'s encoder, pass the features through `channel`, decode with
    /// `receiver`'s decoder.
    ///
    /// # Panics
    ///
    /// Panics if the feature dimensions of the two KBs differ.
    pub fn transmit(
        &self,
        receiver: &Self,
        x: &F::Input,
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> Vec<ConceptId> {
        assert_eq!(
            self.feature_dim(),
            receiver.feature_dim(),
            "encoder/decoder feature dimensions differ"
        );
        let received = over_channel(self.encoder.encode(x), channel, rng);
        receiver.decoder.predict(&received)
    }

    /// Complex channel symbols needed to transmit `rows` tokens or samples
    /// (those of the f32 model: quantization changes model bytes, not the
    /// air interface).
    pub fn symbols_for(&self, rows: usize) -> usize {
        rows * self.feature_dim().div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecConfig;
    use crate::kb::KbScope;
    use semcom_channel::NoiselessChannel;
    use semcom_nn::rng::seeded_rng;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::new(CodecConfig::tiny(), 30, 12, KbScope::General, 1)
    }

    #[test]
    fn quantized_kb_is_much_smaller() {
        // Realistic dimensions: with 12 bytes of affine parameters per
        // row, the size win approaches 4x as rows widen; tiny test
        // configs (12-wide rows) sit nearer 2x.
        let k = KnowledgeBase::new(CodecConfig::default(), 300, 20, KbScope::General, 1);
        let q = k.quantize();
        assert!(
            (q.size_bytes() as f64) < 0.45 * k.size_bytes() as f64,
            "quantized {} vs f32 {}",
            q.size_bytes(),
            k.size_bytes()
        );
        let tiny = kb();
        let qt = tiny.quantize();
        assert!(qt.size_bytes() < tiny.size_bytes());
        assert_eq!(qt.symbols_for(7), tiny.symbols_for(7));
    }

    /// Exact model bytes of the text KBs — what the semantic cache charges
    /// against its capacity and T9 reports as `model_bytes` — for both
    /// codec configs over their matching synthetic languages.
    #[test]
    fn text_kb_sizes_are_pinned() {
        use semcom_text::LanguageConfig;
        let sizes = |codec: CodecConfig, lang: LanguageConfig| {
            let lang = lang.build(0);
            let k = KnowledgeBase::new(
                codec,
                lang.vocab().len(),
                lang.concept_count(),
                KbScope::General,
                1,
            );
            (k.size_bytes(), k.quantize().size_bytes())
        };
        let default = sizes(CodecConfig::default(), LanguageConfig::default());
        let tiny = sizes(CodecConfig::tiny(), LanguageConfig::tiny());
        assert_eq!([default, tiny], [(100_640, 35_496), (8_344, 4_136)]);
    }

    #[test]
    fn quantized_features_track_f32_features() {
        let k = kb();
        let q = quantize_model(&k);
        let tokens = [1, 5, 7, 7, 20];
        let exact = k.encoder.encode(&tokens);
        let approx = q.encoder.encode(&tokens);
        assert_eq!(approx.shape(), exact.shape());
        // Power-normalized rows: absolute tolerance is meaningful.
        for (e, a) in exact.as_slice().iter().zip(approx.as_slice()) {
            assert!((e - a).abs() < 0.15, "exact={e} approx={a}");
        }
        // Same token -> same feature row, exactly, also when quantized.
        assert_eq!(approx.row(2), approx.row(3));
    }

    #[test]
    fn encode_batch_into_matches_encode() {
        let k = kb();
        let q = k.quantize();
        let tokens = [3usize, 9, 14, 2];
        let mut scratch = EncodeScratch::new();
        let batched = q.encoder.encode_batch_into(&tokens, &mut scratch).to_vec();
        assert_eq!(batched, q.encoder.encode(&tokens).into_vec());
    }

    #[test]
    fn quantized_transmit_runs_end_to_end() {
        let k = kb();
        let q = k.quantize();
        let mut rng = seeded_rng(5);
        let out = q.transmit(&q, &[1, 2, 3], &NoiselessChannel, &mut rng);
        assert_eq!(out.len(), 3);
        assert!(q.transmit(&q, &[], &NoiselessChannel, &mut rng).is_empty());
    }

    #[test]
    fn predict_into_matches_predict() {
        let k = kb();
        let q = k.quantize();
        let features = k.encoder.encode(&[4, 8, 15]);
        let mut scratch = DecodeScratch::new();
        let mut out = Vec::new();
        q.decoder
            .predict_into(features.as_slice(), 3, &mut scratch, &mut out);
        assert_eq!(out, q.decoder.predict(&features));
    }
}
