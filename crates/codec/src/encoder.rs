use crate::decoder::SemanticDecoder;
use rand::RngCore;
use semcom_channel::AwgnChannel;
use semcom_nn::layers::{DenseLayer, Embedding, LayerNorm, Linear};
use semcom_nn::params::Param;
use semcom_nn::quant::{QuantScratch, QuantizedLinear, QuantizedTable};
use semcom_nn::Tensor;
use std::fmt::Debug;

/// The modality-specific input stage of a [`SemanticEncoder`]:
/// `in_len()`-wide input rows in, `out_len()`-wide activation rows out.
/// Text's is the [`Embedding`] table; the other modalities' come from their
/// [`ConceptSource`](crate::concept::ConceptSource).
pub trait Frontend: Clone + Debug + Send + Sync {
    /// What one pass reads: token ids for text, flattened sample rows
    /// otherwise.
    type Input: ?Sized;

    /// The int8 inference form of this front end.
    type Quantized: QuantizedFrontend<Self::Input>;

    /// Width of one input row: the length of one flattened sample (one
    /// token id for text).
    fn in_len(&self) -> usize;

    /// Width of one output row (the projection's input width).
    fn out_len(&self) -> usize;

    /// Forward pass without caching (inference path).
    fn infer(&self, x: &Self::Input) -> Tensor;

    /// Forward pass, caching what [`Frontend::backward`] needs.
    fn forward(&mut self, x: &Self::Input) -> Tensor;

    /// Accumulates parameter gradients from the output gradient.
    fn backward(&mut self, dout: &Tensor);

    /// The trainable parameters, in a stable order.
    fn params_mut(&mut self) -> Vec<&mut Param>;

    /// Trainable scalar count.
    fn param_count(&self) -> usize;

    /// Converts the trained front end into its int8 inference form.
    fn quantize(&self) -> Self::Quantized;
}

/// The inference-only form of a [`Frontend`] over inputs `I` inside a
/// [`QuantizedEncoder`](crate::QuantizedEncoder).
pub trait QuantizedFrontend<I: ?Sized>: Clone + Debug + Send + Sync {
    /// Width of one input row, that of the fp32 front end.
    fn in_len(&self) -> usize;

    /// Runs this front end and then `proj` over `x`, writing the
    /// `[rows, proj.out_dim()]` result into `out` (resized and fully
    /// overwritten); `scratch` lends the activation-code buffers.
    fn project_into(
        &self,
        proj: &QuantizedLinear,
        x: &I,
        scratch: &mut QuantScratch,
        out: &mut Vec<f32>,
    );

    /// Storage size in bytes.
    fn size_bytes(&self) -> usize;
}

impl Frontend for Embedding {
    type Input = [usize];
    type Quantized = QuantizedTable;

    fn in_len(&self) -> usize {
        1
    }

    fn out_len(&self) -> usize {
        self.dim()
    }

    fn infer(&self, ids: &[usize]) -> Tensor {
        Embedding::infer(self, ids)
    }

    fn forward(&mut self, ids: &[usize]) -> Tensor {
        Embedding::forward(self, ids)
    }

    fn backward(&mut self, dout: &Tensor) {
        Embedding::backward(self, dout);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Embedding::params_mut(self)
    }

    fn param_count(&self) -> usize {
        Embedding::param_count(self)
    }

    fn quantize(&self) -> QuantizedTable {
        QuantizedTable::from_tensor(self.table())
    }
}

impl QuantizedFrontend<[usize]> for QuantizedTable {
    fn in_len(&self) -> usize {
        1
    }

    fn project_into(
        &self,
        proj: &QuantizedLinear,
        ids: &[usize],
        scratch: &mut QuantScratch,
        out: &mut Vec<f32>,
    ) {
        // The embedding rows are already i8 codes: the gather hands them to
        // the kernel as they are — no dequantize-to-f32, no dynamic
        // re-quantization; the whole hot path stays integer-valued until the
        // single per-output dequantization.
        proj.forward_gathered_into(self, ids, scratch, out);
    }

    fn size_bytes(&self) -> usize {
        QuantizedTable::size_bytes(self)
    }
}

/// The semantic encoder of every [`KnowledgeBase`](crate::KnowledgeBase) —
/// text (front end an [`Embedding`]) and every other modality: performs the
/// paper's "semantic feature extraction" (§I).
///
/// Architecture: front end → [`Linear`] projection → frozen power
/// normalization. The normalization keeps every transmitted feature row at
/// zero mean / unit variance, so `E[f²] = 1` matches the unit-energy
/// digital constellations and channel SNRs are comparable across the
/// semantic and traditional legs.
#[derive(Debug, Clone)]
pub struct SemanticEncoder<F = Embedding> {
    frontend: F,
    proj: Linear,
    /// Power normalization; parameters are frozen (never exposed via
    /// [`Self::params_mut`]) so output power stays exactly unit.
    norm: LayerNorm,
}

impl<F: Frontend> SemanticEncoder<F> {
    /// Creates an encoder over `frontend` emitting `feature_dim` features
    /// per row, its projection initialized from `proj_seed`.
    pub fn new(frontend: F, feature_dim: usize, proj_seed: u64) -> Self {
        SemanticEncoder {
            proj: Linear::new(frontend.out_len(), feature_dim, proj_seed),
            frontend,
            norm: LayerNorm::new(feature_dim),
        }
    }

    /// Feature dimensionality per row.
    pub fn feature_dim(&self) -> usize {
        self.proj.out_dim()
    }

    /// The front end (read-only).
    pub fn frontend(&self) -> &F {
        &self.frontend
    }

    /// The projection layer (read-only).
    pub fn proj(&self) -> &Linear {
        &self.proj
    }

    /// The frozen power normalization (read-only).
    pub fn norm(&self) -> &LayerNorm {
        &self.norm
    }

    /// Encodes `x` to power-normalized semantic features
    /// `[rows, feature_dim]` without caching (inference path).
    ///
    /// # Panics
    ///
    /// Panics if the front end rejects `x` (a token id out of the
    /// vocabulary range, a row of the wrong width).
    pub fn encode(&self, x: &F::Input) -> Tensor {
        self.norm.infer(&self.proj.infer(&self.frontend.infer(x)))
    }

    /// The one training step of every knowledge base, leaving the gradients
    /// in `self` and `decoder`: the forward pass over `x`, the decoder half
    /// [`SemanticDecoder::backprop`] (channel noise from `rng`) against
    /// `labels`, then this encoder's gradients cleared and its backward
    /// pass run. Returns the mean loss.
    pub fn backprop(
        &mut self,
        decoder: &mut SemanticDecoder,
        x: &F::Input,
        labels: &[usize],
        channel: Option<&AwgnChannel>,
        rng: &mut dyn RngCore,
    ) -> f32 {
        let h = self.frontend.forward(x);
        let features = self.norm.forward(&self.proj.forward(&h));
        let (loss, dfeatures) = decoder.backprop(features, labels, channel, rng);
        for p in self.frontend.params_mut() {
            p.zero_grad();
        }
        self.proj.zero_grad();
        self.norm.zero_grad();
        let dh = self.proj.backward(&self.norm.backward(&dfeatures));
        self.frontend.backward(&dh);
        loss
    }

    /// Trainable parameters (front end + projection; normalization frozen).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.frontend.params_mut();
        ps.extend(self.proj.params_mut());
        ps
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.frontend.param_count() + self.proj.weight().len() + self.proj.bias().len()
    }

    /// Serialized size in bytes: 4 per trainable scalar plus the frozen
    /// power norm's scale and shift.
    pub fn size_bytes(&self) -> usize {
        (self.param_count() + 2 * self.norm.dim()) * 4
    }
}

impl SemanticEncoder {
    /// Encodes many token lists in one forward pass, returning one feature
    /// tensor per input list.
    ///
    /// Every token row flows through the encoder independently (embedding
    /// gather, per-row projection, per-row power normalization), so the
    /// packed pass is **bit-identical** to encoding each list separately —
    /// batching across users changes throughput, never results. The packed
    /// activation matrix amortizes per-call dispatch (allocation, kernel
    /// setup) over all users in the batch.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of the vocabulary range.
    pub fn encode_batch(&self, batches: &[&[usize]]) -> Vec<Tensor> {
        let features = self.encode(&batches.concat());
        let dim = features.cols();
        let mut rest = features.as_slice();
        batches
            .iter()
            .map(|b| {
                let (part, tail) = rest.split_at(b.len() * dim);
                rest = tail;
                Tensor::from_vec(b.len(), dim, part.to_vec()).expect("split preserves shape")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecConfig;
    use semcom_nn::loss::softmax_cross_entropy;
    use semcom_nn::rng::seeded_rng;

    fn enc() -> SemanticEncoder {
        let c = CodecConfig::tiny();
        SemanticEncoder::new(Embedding::new(20, c.embed_dim, 1), c.feature_dim, 2)
    }

    fn dec() -> SemanticDecoder {
        let c = CodecConfig::tiny();
        SemanticDecoder::new(c.feature_dim, c.hidden_dim, 5, [5, 6])
    }

    #[test]
    fn output_shape_and_power() {
        let e = enc();
        let f = e.encode(&[1, 5, 7, 7]);
        assert_eq!(f.shape(), (4, CodecConfig::tiny().feature_dim));
        for r in 0..f.rows() {
            let p: f32 = f.row(r).iter().map(|x| x * x).sum::<f32>() / f.cols() as f32;
            assert!((p - 1.0).abs() < 0.01, "row power {p}");
        }
    }

    #[test]
    fn same_token_same_feature() {
        let e = enc();
        let f = e.encode(&[3, 3]);
        assert_eq!(f.row(0), f.row(1));
    }

    #[test]
    fn encode_batch_is_bit_identical_to_individual_encodes() {
        let e = enc();
        let users: [&[usize]; 4] = [&[1, 5, 7], &[2], &[], &[9, 9, 0, 3]];
        let batched = e.encode_batch(&users);
        assert_eq!(batched.len(), users.len());
        for (b, u) in batched.iter().zip(users) {
            assert_eq!(b, &e.encode(u), "tokens {u:?}");
        }
    }

    /// The training forward pass computes `encode`'s features: the step's
    /// loss is the cross-entropy of decoding them, to the bit.
    #[test]
    fn forward_matches_encode() {
        let (mut e, mut d) = (enc(), dec());
        let (tokens, labels) = ([2, 9, 14], [0, 4, 2]);
        let (want, _) = softmax_cross_entropy(&d.decode(&e.encode(&tokens)), &labels);
        let got = e.backprop(&mut d, &tokens, &labels, None, &mut seeded_rng(1));
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn backward_accumulates_embedding_gradients() {
        let (mut e, mut d) = (enc(), dec());
        let mut step = |e: &mut SemanticEncoder| {
            e.backprop(&mut d, &[4, 6], &[1, 3], None, &mut seeded_rng(1));
            e.params_mut()
                .iter()
                .map(|p| p.grad.clone())
                .collect::<Vec<_>>()
        };
        let first = step(&mut e);
        assert!(first[0].as_slice().iter().any(|&g| g != 0.0));
        // The step clears the encoder's gradients before its backward pass.
        assert_eq!(step(&mut e), first);
    }

    #[test]
    fn norm_params_are_not_trainable() {
        let mut e = enc();
        // embedding table + proj weight + proj bias = 3 parameter tensors.
        assert_eq!(e.params_mut().len(), 3);
    }
}
