//! One semantic codec for every non-text modality (paper §III-B: "text,
//! image, video, and audio").
//!
//! A modality is a [`ConceptSource`]: labelled samples of a fixed length
//! and the [`Frontend`] that reads them. Everything after the front end is
//! the text KB's — a [`SemanticEncoder`] over that front end, a
//! [`SemanticDecoder`], the training step [`SemanticEncoder::backprop`]
//! (AWGN between encoder and decoder) and their int8 forms — so encode,
//! decode, transmit, accuracy, training and quantization are written once,
//! in [`ConceptKb`].

use crate::{Frontend, QuantizedDecoder, QuantizedEncoder, SemanticDecoder, SemanticEncoder};
use rand::RngCore;
use semcom_channel::{AwgnChannel, Channel};
use semcom_nn::optim::{shard_count, sharded_step, Adam};
use semcom_nn::params::Param;
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use serde::{Deserialize, Serialize};

/// Decoder hidden width.
const HIDDEN: usize = 32;

/// Minimum minibatch rows per training shard: below this, replica-clone
/// overhead outweighs the parallel speedup.
const MIN_SHARD_ROWS: usize = 8;

/// A modality: labelled samples of a fixed length, and the front end that
/// encodes them.
pub trait ConceptSource {
    /// The front end a KB for this source uses.
    type Frontend: Frontend<Input = Tensor>;

    /// Number of concepts (decoder classes).
    fn classes(&self) -> usize;

    /// Length of one flattened sample.
    fn input_len(&self) -> usize;

    /// Draws a random concept and a noisy rendering of it.
    fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize);

    /// Builds an untrained front end from `seed`.
    fn frontend(&self, seed: u64) -> Self::Frontend;
}

/// Training hyper-parameters for a [`ConceptKb`].
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

/// A concept knowledge base over front end `F`: encoder a
/// [`SemanticEncoder<F>`], decoder a [`SemanticDecoder`].
#[derive(Debug, Clone)]
pub struct ConceptKb<F> {
    encoder: SemanticEncoder<F>,
    decoder: SemanticDecoder,
    input_len: usize,
}

impl<F: Frontend<Input = Tensor>> ConceptKb<F> {
    /// Creates an untrained KB for `source` with `feature_dim` features per
    /// sample.
    pub fn new<S: ConceptSource<Frontend = F>>(source: &S, feature_dim: usize, seed: u64) -> Self {
        ConceptKb {
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
            input_len: source.input_len(),
        }
    }

    /// Features per sample.
    pub fn feature_dim(&self) -> usize {
        self.encoder.feature_dim()
    }

    /// Complex channel symbols per transmitted sample.
    pub fn symbols_per_concept(&self) -> usize {
        self.feature_dim().div_ceil(2)
    }

    /// The trainable parameters: encoder (front end, projection), decoder.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.encoder.params_mut();
        ps.extend(self.decoder.params_mut());
        ps
    }

    /// Total trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.encoder.param_count() + self.decoder.param_count()
    }

    /// Storage size in bytes: 4 per parameter, the power norm's scale and
    /// shift, and a 64-byte header.
    pub fn size_bytes(&self) -> usize {
        self.param_count() * 4 + 2 * self.feature_dim() * 4 + 64
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
        self.encoder.encode(&stack(samples, self.input_len))
    }

    /// Decodes received features to the most likely concept.
    pub fn decode(&self, features: &[f32]) -> usize {
        self.decoder.predict(&Tensor::row_from_slice(features))[0].index()
    }

    /// End-to-end transmission: `self` encodes, `receiver` decodes.
    pub fn transmit(
        &self,
        receiver: &Self,
        sample: &[f32],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> usize {
        let received = channel.transmit_f32(&self.encode(sample), rng);
        receiver.decode(&received)
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
            self.transmit(self, x, channel, rng)
        })
    }

    /// Converts this trained KB into its int8 inference twin.
    pub fn quantize(&self) -> QuantizedConceptKb<F> {
        QuantizedConceptKb {
            encoder: QuantizedEncoder::from_encoder(&self.encoder),
            decoder: QuantizedDecoder::from_decoder(&self.decoder),
            input_len: self.input_len,
        }
    }

    /// Trains encoder and decoder jointly with channel-noise injection;
    /// returns the mean loss of the last epoch. Each minibatch takes one
    /// [`sharded_step`] over [`shard_count`] shards: data-parallel at two
    /// or more, otherwise serial with noise drawn from the main RNG.
    pub fn train<S: ConceptSource<Frontend = F>>(
        &mut self,
        source: &S,
        config: &ConceptTrainConfig,
        seed: u64,
    ) -> f32 {
        let mut rng = seeded_rng(seed);
        let mut opt = Adam::new(config.learning_rate);
        let channel = config.train_snr_db.map(AwgnChannel::new);
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
                        let x = stack(&xs[rows.clone()], kb.input_len);
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
        last_loss
    }
}

/// Int8 post-training-quantized twin of a [`ConceptKb`] for inference: a
/// [`QuantizedEncoder`] (the front end's int8 form, quantized projection,
/// f32 power norm) and a [`QuantizedDecoder`] (exact integer accumulation).
#[derive(Debug, Clone)]
pub struct QuantizedConceptKb<F: Frontend> {
    encoder: QuantizedEncoder<F>,
    decoder: QuantizedDecoder,
    input_len: usize,
}

impl<F: Frontend<Input = Tensor>> QuantizedConceptKb<F> {
    /// Features per sample (the air interface of the fp32 KB).
    pub fn feature_dim(&self) -> usize {
        self.encoder.feature_dim()
    }

    /// Storage size in bytes, counted like [`ConceptKb::size_bytes`]:
    /// encoder (int8 front end and projection, f32 norm), decoder, 64-byte
    /// header.
    pub fn size_bytes(&self) -> usize {
        self.encoder.size_bytes() + self.decoder.size_bytes() + 64
    }

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
        self.encoder.encode(&stack(samples, self.input_len))
    }

    /// Decodes received features to the most likely concept.
    pub fn decode(&self, features: &[f32]) -> usize {
        self.decoder.predict(&Tensor::row_from_slice(features))[0].index()
    }

    /// Classification accuracy over `n` fresh samples through `channel` —
    /// the protocol of [`ConceptKb::accuracy`], so fp32 and int8 accuracy
    /// are directly comparable at equal seeds.
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

/// Packs equal-length samples into one `[samples.len(), input_len]` batch.
fn stack(samples: &[&[f32]], input_len: usize) -> Tensor {
    let mut flat = Vec::with_capacity(samples.len() * input_len);
    for s in samples {
        assert_eq!(s.len(), input_len, "wrong sample length");
        flat.extend_from_slice(s);
    }
    Tensor::from_vec(samples.len(), input_len, flat).expect("lengths checked")
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
