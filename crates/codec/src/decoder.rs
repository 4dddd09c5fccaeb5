use rand::RngCore;
use semcom_channel::{AwgnChannel, Channel, FeatureScratch};
use semcom_nn::layers::{Activation, DenseLayer, Linear};
use semcom_nn::loss::softmax_cross_entropy;
use semcom_nn::params::Param;
use semcom_nn::Tensor;
use semcom_text::ConceptId;
use serde::{Deserialize, Serialize};

/// The semantic decoder of every [`KnowledgeBase`](crate::KnowledgeBase),
/// whatever its modality: performs the paper's "semantic restoration"
/// (§I), mapping noisy received features to **concepts**.
///
/// Architecture: feature → [`Linear`] → ReLU → [`Linear`] → concept logits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SemanticDecoder {
    l1: Linear,
    act: Activation,
    l2: Linear,
}

impl SemanticDecoder {
    /// Creates a decoder from `feature_dim` features through `hidden_dim`
    /// hidden units to logits over `concept_count` classes, its two layers
    /// initialized from `seeds`.
    pub fn new(
        feature_dim: usize,
        hidden_dim: usize,
        concept_count: usize,
        seeds: [u64; 2],
    ) -> Self {
        SemanticDecoder {
            l1: Linear::new(feature_dim, hidden_dim, seeds[0]),
            act: Activation::relu(),
            l2: Linear::new(hidden_dim, concept_count, seeds[1]),
        }
    }

    /// Number of concept classes.
    pub fn concept_count(&self) -> usize {
        self.l2.out_dim()
    }

    /// Feature dimensionality expected on input.
    pub fn feature_dim(&self) -> usize {
        self.l1.in_dim()
    }

    /// Hidden width.
    pub fn hidden_dim(&self) -> usize {
        self.l1.out_dim()
    }

    /// Computes concept logits `[n, concepts]` without caching.
    pub fn decode(&self, features: &Tensor) -> Tensor {
        self.l2.infer(&self.act.infer(&self.l1.infer(features)))
    }

    /// The first linear layer (read-only; used by the int8 quantizer).
    pub fn l1(&self) -> &Linear {
        &self.l1
    }

    /// The output linear layer (read-only; used by the int8 quantizer).
    pub fn l2(&self) -> &Linear {
        &self.l2
    }

    /// Hard decision: the most likely concept per received feature row.
    pub fn predict(&self, features: &Tensor) -> Vec<ConceptId> {
        let logits = self.decode(features);
        (0..logits.rows())
            .map(|r| ConceptId(logits.argmax_row(r) as u32))
            .collect()
    }

    /// Training forward pass (caches activations).
    pub fn forward(&mut self, features: &Tensor) -> Tensor {
        let h = self.l1.forward(features);
        let a = self.act.forward(&h);
        self.l2.forward(&a)
    }

    /// Backward pass from the logit gradient; returns the gradient with
    /// respect to the received features.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::forward`].
    pub fn backward(&mut self, dlogits: &Tensor) -> Tensor {
        let da = self.l2.backward(dlogits);
        let dh = self.act.backward(&da);
        self.l1.backward(&dh)
    }

    /// The decoder half of a training step: passes the encoder's clean
    /// `features` through `channel` (noise from `rng`; `None` is
    /// noiseless), runs forward, takes softmax cross-entropy against
    /// `labels`, clears this decoder's gradients and runs backward. Returns
    /// the mean loss and the gradient with respect to `features` — AWGN is
    /// additive, so the gradient through the channel is the identity.
    pub fn backprop(
        &mut self,
        features: Tensor,
        labels: &[usize],
        channel: Option<&AwgnChannel>,
        rng: &mut dyn RngCore,
    ) -> (f32, Tensor) {
        let received = match channel {
            Some(ch) => over_channel(features, ch, rng),
            None => features,
        };
        let logits = self.forward(&received);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        self.zero_grad();
        (loss, self.backward(&dlogits))
    }

    /// Trainable parameters, in stable order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.l1.params_mut();
        ps.extend(self.l2.params_mut());
        ps
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.l1.zero_grad();
        self.act.zero_grad();
        self.l2.zero_grad();
    }

    /// Number of trainable scalars.
    pub fn param_count(&self) -> usize {
        [&self.l1, &self.l2]
            .iter()
            .map(|l| l.weight().len() + l.bias().len())
            .sum()
    }

    /// Serialized size in bytes: 4 per trainable scalar.
    pub fn size_bytes(&self) -> usize {
        self.param_count() * 4
    }
}

/// `features` after `channel`, in place; an empty batch draws no noise.
pub(crate) fn over_channel(
    mut features: Tensor,
    channel: &dyn Channel,
    rng: &mut dyn RngCore,
) -> Tensor {
    if !features.is_empty() {
        channel.transmit_f32_in_place(features.as_mut_slice(), &mut FeatureScratch::new(), rng);
    }
    features
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecConfig;

    fn dec() -> SemanticDecoder {
        let cfg = CodecConfig::tiny();
        SemanticDecoder::new(cfg.feature_dim, cfg.hidden_dim, 10, [5, 6])
    }

    #[test]
    fn logit_shape() {
        let d = dec();
        let f = Tensor::zeros(3, CodecConfig::tiny().feature_dim);
        assert_eq!(d.decode(&f).shape(), (3, 10));
        assert_eq!(d.concept_count(), 10);
        assert_eq!(d.feature_dim(), CodecConfig::tiny().feature_dim);
    }

    #[test]
    fn predict_returns_argmax_concepts() {
        let d = dec();
        let f = Tensor::filled(2, CodecConfig::tiny().feature_dim, 0.3);
        let logits = d.decode(&f);
        let preds = d.predict(&f);
        assert_eq!(preds.len(), 2);
        for (r, p) in preds.iter().enumerate() {
            assert_eq!(p.index(), logits.argmax_row(r));
        }
    }

    #[test]
    fn forward_matches_decode() {
        let mut d = dec();
        let f = Tensor::filled(2, CodecConfig::tiny().feature_dim, -0.2);
        assert_eq!(d.decode(&f), d.forward(&f));
    }

    #[test]
    fn backward_produces_feature_gradient() {
        let mut d = dec();
        let f = Tensor::filled(2, CodecConfig::tiny().feature_dim, 0.4);
        let logits = d.forward(&f);
        let dl = Tensor::filled(2, logits.cols(), 0.1);
        let df = d.backward(&dl);
        assert_eq!(df.shape(), f.shape());
    }

    #[test]
    fn param_count_matches_architecture() {
        let cfg = CodecConfig::tiny();
        let d = dec();
        let expected = cfg.feature_dim * cfg.hidden_dim + cfg.hidden_dim + cfg.hidden_dim * 10 + 10;
        assert_eq!(d.param_count(), expected);
    }
}
