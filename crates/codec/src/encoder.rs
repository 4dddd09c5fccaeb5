use crate::config::CodecConfig;
use semcom_nn::layers::{DenseLayer, Embedding, LayerNorm, Linear};
use semcom_nn::params::Param;
use semcom_nn::rng::derive_seed;
use semcom_nn::Tensor;
use serde::{Deserialize, Serialize};

/// The semantic encoder of a knowledge base: performs the paper's "semantic
/// feature extraction" (§I).
///
/// Architecture: token id → [`Embedding`] → [`Linear`] projection → frozen
/// power normalization. The normalization keeps every transmitted feature
/// row at zero mean / unit variance, so `E[f²] = 1` matches the unit-energy
/// digital constellations and channel SNRs are comparable across the
/// semantic and traditional legs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemanticEncoder {
    embedding: Embedding,
    proj: Linear,
    /// Power normalization; parameters are frozen (never exposed via
    /// [`Self::params_mut`]) so output power stays exactly unit.
    norm: LayerNorm,
}

impl SemanticEncoder {
    /// Creates an encoder for the given vocabulary size.
    pub fn new(config: &CodecConfig, vocab_size: usize, seed: u64) -> Self {
        SemanticEncoder {
            embedding: Embedding::new(vocab_size, config.embed_dim, derive_seed(seed, 1)),
            proj: Linear::new(config.embed_dim, config.feature_dim, derive_seed(seed, 2)),
            norm: LayerNorm::new(config.feature_dim),
        }
    }

    /// Vocabulary size this encoder accepts.
    pub fn vocab_size(&self) -> usize {
        self.embedding.vocab_size()
    }

    /// Feature dimensionality per token.
    pub fn feature_dim(&self) -> usize {
        self.proj.out_dim()
    }

    /// Encodes tokens to power-normalized semantic features `[n, feature]`
    /// without caching (inference path).
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of the vocabulary range.
    pub fn encode(&self, tokens: &[usize]) -> Tensor {
        let e = self.embedding.infer(tokens);
        let p = self.proj.infer(&e);
        self.norm.infer(&p)
    }

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
        let total: usize = batches.iter().map(|b| b.len()).sum();
        let mut packed = Vec::with_capacity(total);
        for b in batches {
            packed.extend_from_slice(b);
        }
        let features = self.encode(&packed);
        let dim = features.cols();
        let flat = features.as_slice();
        let mut out = Vec::with_capacity(batches.len());
        let mut row = 0;
        for b in batches {
            let take = b.len();
            let part = flat[row * dim..(row + take) * dim].to_vec();
            out.push(Tensor::from_vec(take, dim, part).expect("split preserves shape"));
            row += take;
        }
        out
    }

    /// The raw embedding table (read-only; used by the int8 quantizer).
    pub fn embedding_table(&self) -> &Tensor {
        self.embedding.table()
    }

    /// The projection layer (read-only; used by the int8 quantizer).
    pub fn proj(&self) -> &Linear {
        &self.proj
    }

    /// The frozen power normalization (read-only; shared with the
    /// quantized inference path).
    pub fn norm(&self) -> &LayerNorm {
        &self.norm
    }

    /// Training forward pass (caches activations).
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of the vocabulary range.
    pub fn forward(&mut self, tokens: &[usize]) -> Tensor {
        let e = self.embedding.forward(tokens);
        let p = self.proj.forward(&e);
        self.norm.forward(&p)
    }

    /// Backward pass from the feature gradient; accumulates parameter
    /// gradients.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::forward`].
    pub fn backward(&mut self, dfeatures: &Tensor) {
        let dp = self.norm.backward(dfeatures);
        let de = self.proj.backward(&dp);
        self.embedding.backward(&de);
    }

    /// Trainable parameters (embedding + projection; normalization frozen).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.embedding.params_mut();
        ps.extend(self.proj.params_mut());
        ps
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.embedding.zero_grad();
        self.proj.zero_grad();
        self.norm.zero_grad();
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.embedding.param_count() + self.proj.weight().len() + self.proj.bias().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enc() -> SemanticEncoder {
        SemanticEncoder::new(&CodecConfig::tiny(), 20, 3)
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

    #[test]
    fn forward_matches_encode() {
        let mut e = enc();
        let tokens = [2, 9, 14];
        assert_eq!(e.encode(&tokens), e.forward(&tokens));
    }

    #[test]
    fn backward_accumulates_embedding_gradients() {
        let mut e = enc();
        let f = e.forward(&[4, 6]);
        e.backward(&Tensor::filled(2, f.cols(), 0.5));
        let has_grad = e
            .params_mut()
            .iter()
            .any(|p| p.grad.as_slice().iter().any(|&g| g != 0.0));
        assert!(has_grad);
        e.zero_grad();
        let all_zero = e
            .params_mut()
            .iter()
            .all(|p| p.grad.as_slice().iter().all(|&g| g == 0.0));
        assert!(all_zero);
    }

    #[test]
    fn norm_params_are_not_trainable() {
        let mut e = enc();
        // embedding table + proj weight + proj bias = 3 parameter tensors.
        assert_eq!(e.params_mut().len(), 3);
    }
}
