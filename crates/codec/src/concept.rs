//! The non-text modalities (paper §III-B: "text, image, video, and
//! audio"). A modality is a [`ConceptSource`]: labelled samples and the
//! [`Frontend`] that reads them. Its KB is the text KB's type,
//! [`KnowledgeBase<F>`] (int8: [`QuantizedKb<F>`]), built with
//! [`KnowledgeBase::for_source`]; this module adds what only sample-valued
//! KBs need — encoding `&[f32]` samples, single-sample decode, accuracy
//! over fresh draws and training on generated batches.

use crate::{
    Frontend, KbScope, KnowledgeBase, QuantizedFrontend, QuantizedKb, SemanticDecoder,
    SemanticEncoder,
};
use rand::RngCore;
use semcom_channel::{AwgnChannel, Channel};
use semcom_nn::optim::{shard_count, sharded_step, Adam};
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use serde::{Deserialize, Serialize};

/// Decoder hidden width.
const HIDDEN: usize = 32;

/// Minimum minibatch rows per training shard: below this, replica-clone
/// overhead outweighs the parallel speedup.
const MIN_SHARD_ROWS: usize = 8;

/// A modality: labelled samples, and the front end that encodes them.
pub trait ConceptSource {
    /// The front end a KB for this source uses.
    type Frontend: Frontend<Input = Tensor>;

    /// Number of concepts (decoder classes).
    fn classes(&self) -> usize;

    /// Draws a random concept and a noisy rendering of it.
    fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize);

    /// Builds an untrained front end from `seed`.
    fn frontend(&self, seed: u64) -> Self::Frontend;
}

/// Training hyper-parameters for a KB over a [`ConceptSource`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConceptTrainConfig {
    /// Passes over the generated training set.
    pub epochs: usize,
    /// Samples per epoch.
    pub samples_per_epoch: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Channel-noise injection SNR (dB); `None` trains noiselessly.
    pub train_snr_db: Option<f64>,
}

impl Default for ConceptTrainConfig {
    fn default() -> Self {
        ConceptTrainConfig {
            epochs: 8,
            samples_per_epoch: 400,
            batch_size: 32,
            learning_rate: 0.005,
            train_snr_db: Some(8.0),
        }
    }
}

impl<F: Frontend<Input = Tensor>> KnowledgeBase<F> {
    /// Creates an untrained general KB for `source` with `feature_dim`
    /// features per sample.
    pub fn for_source<S: ConceptSource<Frontend = F>>(
        source: &S,
        feature_dim: usize,
        seed: u64,
    ) -> Self {
        KnowledgeBase {
            scope: KbScope::General,
            version: 0,
            encoder: SemanticEncoder::new(
                source.frontend(derive_seed(seed, 0)),
                feature_dim,
                derive_seed(seed, 1),
            ),
            decoder: SemanticDecoder::new(
                feature_dim,
                HIDDEN,
                source.classes(),
                [2, 3].map(|i| derive_seed(seed, i)),
            ),
        }
    }

    /// Encodes one sample to power-normalized features.
    ///
    /// # Panics
    ///
    /// Panics if `sample` has the wrong length.
    pub fn encode(&self, sample: &[f32]) -> Vec<f32> {
        self.encode_batch(&[sample]).into_vec()
    }

    /// Encodes many samples in one forward pass, returning
    /// `[samples.len(), feature_dim]` features. Every row flows through the
    /// network independently, so this is bit-identical to encoding each
    /// sample separately.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample has the wrong length.
    pub fn encode_batch(&self, samples: &[&[f32]]) -> Tensor {
        let x = stack(samples, self.encoder.frontend().in_len());
        self.encoder.encode(&x)
    }

    /// Decodes received features to the most likely concept.
    pub fn decode(&self, features: &[f32]) -> usize {
        self.decoder.predict(&Tensor::row_from_slice(features))[0].index()
    }

    /// Classification accuracy over `n` fresh samples through `channel`.
    pub fn accuracy<S: ConceptSource<Frontend = F>>(
        &self,
        source: &S,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        accuracy(source, n, rng, |x, rng| {
            self.decode(&channel.transmit_f32(&self.encode(x), rng))
        })
    }

    /// Trains encoder and decoder jointly with channel-noise injection;
    /// returns the mean loss of the last epoch and bumps the version. Each
    /// minibatch takes one [`sharded_step`] over [`shard_count`] shards:
    /// data-parallel at two or more, otherwise serial with noise drawn from
    /// the main RNG.
    pub fn train<S: ConceptSource<Frontend = F>>(
        &mut self,
        source: &S,
        config: &ConceptTrainConfig,
        seed: u64,
    ) -> f32 {
        let mut rng = seeded_rng(seed);
        let mut opt = Adam::new(config.learning_rate);
        let channel = config.train_snr_db.map(AwgnChannel::new);
        let in_len = self.encoder.frontend().in_len();
        let mut last_loss = 0.0;
        for _ in 0..config.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            let mut remaining = config.samples_per_epoch;
            while remaining > 0 {
                let bs = config.batch_size.clamp(1, remaining);
                remaining -= bs;
                let (xs, labels): (Vec<_>, Vec<_>) =
                    (0..bs).map(|_| source.sample(&mut rng)).unzip();
                let xs: Vec<&[f32]> = xs.iter().map(Vec::as_slice).collect();
                epoch_loss += sharded_step(
                    self,
                    bs,
                    shard_count(bs, MIN_SHARD_ROWS, MIN_SHARD_ROWS),
                    &mut rng,
                    &mut opt,
                    |kb, rows, rng| {
                        let x = stack(&xs[rows.clone()], in_len);
                        let labels = &labels[rows];
                        kb.encoder
                            .backprop(&mut kb.decoder, &x, labels, channel.as_ref(), rng)
                    },
                    Self::params_mut,
                );
                batches += 1;
            }
            if batches > 0 {
                last_loss = epoch_loss / batches as f32;
            }
        }
        self.bump_version();
        last_loss
    }
}

impl<F: Frontend<Input = Tensor>> QuantizedKb<F> {
    /// Encodes one sample to power-normalized features.
    ///
    /// # Panics
    ///
    /// Panics if `sample` has the wrong length.
    pub fn encode(&self, sample: &[f32]) -> Vec<f32> {
        self.encode_batch(&[sample]).into_vec()
    }

    /// Encodes many samples in one quantized forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or any sample has the wrong length.
    pub fn encode_batch(&self, samples: &[&[f32]]) -> Tensor {
        let x = stack(samples, self.encoder.frontend().in_len());
        self.encoder.encode(&x)
    }

    /// Decodes received features to the most likely concept.
    pub fn decode(&self, features: &[f32]) -> usize {
        self.decoder.predict(&Tensor::row_from_slice(features))[0].index()
    }

    /// Classification accuracy over `n` fresh samples through `channel` —
    /// the protocol of [`KnowledgeBase::accuracy`], so fp32 and int8
    /// accuracy are directly comparable at equal seeds.
    pub fn accuracy<S: ConceptSource<Frontend = F>>(
        &self,
        source: &S,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        accuracy(source, n, rng, |x, rng| {
            self.decode(&channel.transmit_f32(&self.encode(x), rng))
        })
    }
}

/// Packs equal-length samples into one `[samples.len(), in_len]` batch.
fn stack(samples: &[&[f32]], in_len: usize) -> Tensor {
    let mut flat = Vec::with_capacity(samples.len() * in_len);
    for s in samples {
        assert_eq!(s.len(), in_len, "wrong sample length");
        flat.extend_from_slice(s);
    }
    Tensor::from_vec(samples.len(), in_len, flat).expect("lengths checked")
}

/// Share of `n` fresh samples that `transmit` decodes to their concept.
fn accuracy<S: ConceptSource>(
    source: &S,
    n: usize,
    rng: &mut dyn RngCore,
    transmit: impl Fn(&[f32], &mut dyn RngCore) -> usize,
) -> f64 {
    let mut correct = 0;
    for _ in 0..n {
        let (x, label) = source.sample(rng);
        if transmit(&x, rng) == label {
            correct += 1;
        }
    }
    correct as f64 / n.max(1) as f64
}
