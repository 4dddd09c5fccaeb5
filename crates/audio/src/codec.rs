use crate::tones::{ToneSet, WAVE_SAMPLES};
use rand::RngCore;
use semcom_channel::{AwgnChannel, Channel};
use semcom_nn::layers::{Activation, DenseLayer, LayerNorm, Linear};
use semcom_nn::loss::softmax_cross_entropy;
use semcom_nn::optim::{Adam, Optimizer};
use semcom_nn::quant::QuantizedModel;
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use serde::{Deserialize, Serialize};

const HIDDEN_ENC: usize = 32;
const HIDDEN_DEC: usize = 32;

/// Minimum batch rows per training shard: below this, replica-clone
/// overhead outweighs the parallel speedup.
const MIN_SHARD_ROWS: usize = 8;

/// Training hyper-parameters for an [`AudioKb`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AudioTrainConfig {
    /// Passes over the generated training set.
    pub epochs: usize,
    /// Waveforms per epoch.
    pub samples_per_epoch: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Channel-noise injection SNR (dB); `None` trains noiselessly.
    pub train_snr_db: Option<f64>,
}

impl Default for AudioTrainConfig {
    fn default() -> Self {
        AudioTrainConfig {
            epochs: 8,
            samples_per_epoch: 400,
            batch_size: 32,
            learning_rate: 0.005,
            train_snr_db: Some(8.0),
        }
    }
}

/// An MLP audio knowledge base (paper §III-B): encoder
/// `Linear(64→32) → ReLU → Linear(32→feature) → power norm` producing
/// `feature_dim` analog symbols per melody; decoder
/// `Linear → ReLU → Linear → concept logits`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AudioKb {
    enc1: Linear,
    act1: Activation,
    enc2: Linear,
    norm: LayerNorm,
    dec1: Linear,
    act2: Activation,
    dec2: Linear,
    feature_dim: usize,
    classes: usize,
}

impl AudioKb {
    /// Creates an untrained audio KB for `tones` with `feature_dim`
    /// channel symbols per melody.
    pub fn new(tones: &ToneSet, feature_dim: usize, seed: u64) -> Self {
        AudioKb {
            enc1: Linear::new(WAVE_SAMPLES, HIDDEN_ENC, derive_seed(seed, 0)),
            act1: Activation::relu(),
            enc2: Linear::new(HIDDEN_ENC, feature_dim, derive_seed(seed, 1)),
            norm: LayerNorm::new(feature_dim),
            dec1: Linear::new(feature_dim, HIDDEN_DEC, derive_seed(seed, 2)),
            act2: Activation::relu(),
            dec2: Linear::new(HIDDEN_DEC, tones.len(), derive_seed(seed, 3)),
            feature_dim,
            classes: tones.len(),
        }
    }

    /// Features (channel symbols) per melody.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of auditory concepts the decoder can emit.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Complex channel symbols per transmitted melody.
    pub fn symbols_per_melody(&self) -> usize {
        self.feature_dim.div_ceil(2)
    }

    fn params(&mut self) -> Vec<&mut semcom_nn::params::Param> {
        let mut ps = self.enc1.params_mut();
        ps.extend(self.enc2.params_mut());
        ps.extend(self.dec1.params_mut());
        ps.extend(self.dec2.params_mut());
        ps
    }

    /// Total trainable scalar count.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Encodes one waveform to power-normalized features.
    ///
    /// # Panics
    ///
    /// Panics if `waveform.len() != WAVE_SAMPLES`.
    pub fn encode(&self, waveform: &[f32]) -> Vec<f32> {
        assert_eq!(waveform.len(), WAVE_SAMPLES, "wrong waveform length");
        let x = Tensor::row_from_slice(waveform);
        let h = self.act1.infer(&self.enc1.infer(&x));
        self.norm.infer(&self.enc2.infer(&h)).into_vec()
    }

    /// Encodes many waveforms in one forward pass, returning
    /// `[waveforms.len(), feature_dim]` features. Every row flows through
    /// the MLP independently, so this is bit-identical to encoding each
    /// waveform separately.
    ///
    /// # Panics
    ///
    /// Panics if `waveforms` is empty or any waveform has the wrong length.
    pub fn encode_batch(&self, waveforms: &[&[f32]]) -> Tensor {
        let mut flat = Vec::with_capacity(waveforms.len() * WAVE_SAMPLES);
        for w in waveforms {
            assert_eq!(w.len(), WAVE_SAMPLES, "wrong waveform length");
            flat.extend_from_slice(w);
        }
        let x = Tensor::from_vec(waveforms.len(), WAVE_SAMPLES, flat).expect("lengths checked");
        let h = self.act1.infer(&self.enc1.infer(&x));
        self.norm.infer(&self.enc2.infer(&h))
    }

    /// Converts this trained KB into its int8 inference twin (all four
    /// linears quantized; see [`semcom_nn::quant`]).
    pub fn quantize(&self) -> QuantizedAudioKb {
        QuantizedAudioKb {
            enc: QuantizedModel::from_linears(&[&self.enc1, &self.enc2]),
            norm: self.norm.clone(),
            dec: QuantizedModel::from_linears(&[&self.dec1, &self.dec2]),
            feature_dim: self.feature_dim,
            classes: self.classes,
        }
    }

    /// Decodes received features to the most likely concept.
    pub fn decode(&self, features: &[f32]) -> usize {
        let f = Tensor::row_from_slice(features);
        let logits = self.dec2.infer(&self.act2.infer(&self.dec1.infer(&f)));
        logits.argmax_row(0)
    }

    /// End-to-end transmission: `self` encodes, `receiver` decodes.
    pub fn transmit(
        &self,
        receiver: &AudioKb,
        waveform: &[f32],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> usize {
        let features = self.encode(waveform);
        let received = channel.transmit_f32(&features, rng);
        receiver.decode(&received)
    }

    /// Trains encoder and decoder jointly with channel-noise injection.
    ///
    /// With more than one `semcom-par` worker, each minibatch is sharded
    /// across cloned replicas and per-shard gradients are reduced in fixed
    /// shard order (size-weighted, matching the full-batch mean) before one
    /// optimizer step — reproducible at any fixed worker count, and
    /// bit-identical to the serial path at one worker.
    pub fn train(&mut self, tones: &ToneSet, config: &AudioTrainConfig, seed: u64) -> f32 {
        let mut rng = seeded_rng(seed);
        let mut opt = Adam::new(config.learning_rate);
        let channel = config.train_snr_db.map(AwgnChannel::new);
        let mut last_loss = 0.0;
        for _ in 0..config.epochs {
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            let mut remaining = config.samples_per_epoch;
            while remaining > 0 {
                let bs = config.batch_size.min(remaining);
                remaining -= bs;
                let mut rows = Vec::with_capacity(bs);
                let mut labels = Vec::with_capacity(bs);
                for _ in 0..bs {
                    let (wave, label) = tones.sample(&mut rng);
                    rows.push(Tensor::row_from_slice(&wave));
                    labels.push(label);
                }
                let shards = semcom_par::max_workers().min(bs / MIN_SHARD_ROWS);
                let loss = if shards >= 2 {
                    self.step_sharded(
                        &rows,
                        &labels,
                        config.train_snr_db,
                        &mut opt,
                        &mut rng,
                        shards,
                    )
                } else {
                    self.step_serial(&rows, &labels, channel.as_ref(), &mut opt, &mut rng)
                };
                epoch_loss += loss;
                batches += 1;
            }
            if batches > 0 {
                last_loss = epoch_loss / batches as f32;
            }
        }
        last_loss
    }

    /// One serial optimizer step (the original training path; noise drawn
    /// from the main training RNG).
    fn step_serial(
        &mut self,
        rows: &[Tensor],
        labels: &[usize],
        channel: Option<&AwgnChannel>,
        opt: &mut Adam,
        rng: &mut dyn RngCore,
    ) -> f32 {
        let x = Tensor::vstack(rows);

        // Forward.
        let h1 = self.act1.forward(&self.enc1.forward(&x));
        let f = self.norm.forward(&self.enc2.forward(&h1));
        let received = match channel {
            Some(ch) => {
                let noisy = ch.transmit_f32(f.as_slice(), rng);
                Tensor::from_vec(f.rows(), f.cols(), noisy).expect("channel preserves length")
            }
            None => f.clone(),
        };
        let h2 = self.act2.forward(&self.dec1.forward(&received));
        let logits = self.dec2.forward(&h2);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);

        // Backward (AWGN gradient = identity).
        for p in self.params() {
            p.zero_grad();
        }
        self.norm.zero_grad();
        let dh2 = self.dec2.backward(&dlogits);
        let drec = self.dec1.backward(&self.act2.backward(&dh2));
        let dh1 = self.enc2.backward(&self.norm.backward(&drec));
        let dx = self.act1.backward(&dh1);
        self.enc1.backward(&dx);
        opt.step(&mut self.params());
        loss
    }

    /// One data-parallel optimizer step: contiguous batch shards run on
    /// cloned replicas; gradients reduce in fixed shard order.
    fn step_sharded(
        &mut self,
        rows: &[Tensor],
        labels: &[usize],
        snr_db: Option<f64>,
        opt: &mut Adam,
        rng: &mut dyn RngCore,
        shards: usize,
    ) -> f32 {
        // Shard bounds and noise seeds are fixed up front, in shard order,
        // so the main RNG stream never depends on scheduling.
        let n = rows.len();
        let base = n / shards;
        let extra = n % shards;
        let mut jobs = Vec::with_capacity(shards);
        let mut start = 0;
        for s in 0..shards {
            let end = start + base + usize::from(s < extra);
            jobs.push((start, end, rng.next_u64()));
            start = end;
        }
        let me = &*self;
        let results = semcom_par::par_map_indexed(&jobs, |_, &(s, e, seed)| {
            me.shard_grads(&rows[s..e], &labels[s..e], snr_db, seed)
        });

        let mut total_loss = 0.0;
        let mut acc: Option<Vec<Tensor>> = None;
        for (&(s, e, _), (loss, grads)) in jobs.iter().zip(&results) {
            let w = (e - s) as f32 / n as f32;
            total_loss += w * loss;
            match &mut acc {
                None => acc = Some(grads.iter().map(|g| g.scale(w)).collect()),
                Some(acc) => {
                    for (a, g) in acc.iter_mut().zip(grads) {
                        a.add_scaled(g, w);
                    }
                }
            }
        }
        let acc = acc.expect("at least one shard");
        let mut params = self.params();
        assert_eq!(params.len(), acc.len(), "replica parameter layout drift");
        for (p, g) in params.iter_mut().zip(acc) {
            p.grad = g;
        }
        opt.step(&mut params);
        total_loss
    }

    /// Forward + backward for one shard on a cloned replica; returns the
    /// shard's mean loss and gradients in [`AudioKb::params`] order. Depends
    /// only on `(inputs, seed)`, never on scheduling.
    fn shard_grads(
        &self,
        rows: &[Tensor],
        labels: &[usize],
        snr_db: Option<f64>,
        seed: u64,
    ) -> (f32, Vec<Tensor>) {
        let mut local = self.clone();
        let mut rng = seeded_rng(seed);
        let x = Tensor::vstack(rows);
        let h1 = local.act1.forward(&local.enc1.forward(&x));
        let f = local.norm.forward(&local.enc2.forward(&h1));
        let received = match snr_db.map(AwgnChannel::new) {
            Some(ch) => {
                let noisy = ch.transmit_f32(f.as_slice(), &mut rng);
                Tensor::from_vec(f.rows(), f.cols(), noisy).expect("channel preserves length")
            }
            None => f.clone(),
        };
        let h2 = local.act2.forward(&local.dec1.forward(&received));
        let logits = local.dec2.forward(&h2);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        for p in local.params() {
            p.zero_grad();
        }
        local.norm.zero_grad();
        let dh2 = local.dec2.backward(&dlogits);
        let drec = local.dec1.backward(&local.act2.backward(&dh2));
        let dh1 = local.enc2.backward(&local.norm.backward(&drec));
        let dx = local.act1.backward(&dh1);
        local.enc1.backward(&dx);
        let grads = local
            .params()
            .into_iter()
            .map(|p| std::mem::replace(&mut p.grad, Tensor::zeros(0, 0)))
            .collect();
        (loss, grads)
    }

    /// Classification accuracy over `n` fresh samples through `channel`.
    pub fn accuracy(
        &self,
        tones: &ToneSet,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let mut correct = 0;
        for _ in 0..n {
            let (wave, label) = tones.sample(rng);
            if self.transmit(self, &wave, channel, rng) == label {
                correct += 1;
            }
        }
        correct as f64 / n.max(1) as f64
    }
}

/// Int8 post-training-quantized twin of [`AudioKb`] for inference: all
/// four linear layers stored as quantized weights with exact integer
/// accumulation, power normalization kept f32.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedAudioKb {
    enc: QuantizedModel,
    norm: LayerNorm,
    dec: QuantizedModel,
    feature_dim: usize,
    classes: usize,
}

impl QuantizedAudioKb {
    /// Features (channel symbols) per melody.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of auditory concepts the decoder can emit.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Complex channel symbols per transmitted melody.
    pub fn symbols_per_melody(&self) -> usize {
        self.feature_dim.div_ceil(2)
    }

    /// Storage size in bytes, counterpart of the f32 KB's
    /// `param_count * 4 + 64` accounting.
    pub fn size_bytes(&self) -> usize {
        self.enc.size_bytes() + 2 * self.feature_dim * 4 + self.dec.size_bytes() + 64
    }

    /// Encodes one waveform to power-normalized features.
    ///
    /// # Panics
    ///
    /// Panics if `waveform.len() != WAVE_SAMPLES`.
    pub fn encode(&self, waveform: &[f32]) -> Vec<f32> {
        self.encode_batch(&[waveform]).into_vec()
    }

    /// Encodes many waveforms in one quantized forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `waveforms` is empty or any waveform has the wrong length.
    pub fn encode_batch(&self, waveforms: &[&[f32]]) -> Tensor {
        let mut flat = Vec::with_capacity(waveforms.len() * WAVE_SAMPLES);
        for w in waveforms {
            assert_eq!(w.len(), WAVE_SAMPLES, "wrong waveform length");
            flat.extend_from_slice(w);
        }
        let x = Tensor::from_vec(waveforms.len(), WAVE_SAMPLES, flat).expect("lengths checked");
        let mut feat = self.enc.forward(&x);
        self.norm.normalize_rows(feat.as_mut_slice());
        feat
    }

    /// Decodes received features to the most likely concept.
    pub fn decode(&self, features: &[f32]) -> usize {
        let f = Tensor::row_from_slice(features);
        self.dec.forward(&f).argmax_row(0)
    }

    /// End-to-end transmission: `self` encodes, `receiver` decodes.
    pub fn transmit(
        &self,
        receiver: &QuantizedAudioKb,
        waveform: &[f32],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> usize {
        let features = self.encode(waveform);
        let received = channel.transmit_f32(&features, rng);
        receiver.decode(&received)
    }

    /// Classification accuracy over `n` fresh samples through `channel` —
    /// same protocol as [`AudioKb::accuracy`], so fp32 and int8 accuracy
    /// are directly comparable at equal seeds.
    pub fn accuracy(
        &self,
        tones: &ToneSet,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let mut correct = 0;
        for _ in 0..n {
            let (wave, label) = tones.sample(rng);
            if self.transmit(self, &wave, channel, rng) == label {
                correct += 1;
            }
        }
        correct as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcom_channel::NoiselessChannel;

    fn quick() -> AudioTrainConfig {
        AudioTrainConfig {
            epochs: 6,
            samples_per_epoch: 240,
            train_snr_db: None,
            ..AudioTrainConfig::default()
        }
    }

    #[test]
    fn feature_power_is_normalized() {
        let t = ToneSet::new(5, 1);
        let kb = AudioKb::new(&t, 8, 2);
        let mut rng = seeded_rng(3);
        let (wave, _) = t.sample(&mut rng);
        let f = kb.encode(&wave);
        let power: f32 = f.iter().map(|v| v * v).sum::<f32>() / f.len() as f32;
        assert!((power - 1.0).abs() < 0.02, "power {power}");
    }

    #[test]
    fn training_learns_the_melodies() {
        let t = ToneSet::new(6, 1);
        let mut kb = AudioKb::new(&t, 8, 2);
        let mut rng = seeded_rng(4);
        let before = kb.accuracy(&t, &NoiselessChannel, 100, &mut rng);
        let loss = kb.train(&t, &quick(), 5);
        let after = kb.accuracy(&t, &NoiselessChannel, 100, &mut rng);
        assert!(loss < 1.0, "final loss {loss}");
        assert!(after > before, "{before} -> {after}");
        assert!(after > 0.9, "accuracy {after}");
    }

    /// Paired comparison: for each training seed both models are scored
    /// on the *same* 1 000 evaluation draws (same eval seed), so the
    /// binomial error of the draw cancels instead of swamping the ≈0.03
    /// effect — an unpaired 150-sample comparison off one continuing RNG
    /// has ±0.03 error of its own and flipped sign on some hosts.
    #[test]
    fn noise_trained_model_is_more_robust() {
        let t = ToneSet::new(6, 2);
        // Harsh enough that the cleanly-trained model actually degrades;
        // at milder SNRs both models saturate and the comparison is vacuous.
        let harsh = AwgnChannel::new(-4.0);
        for train_seed in 6..10 {
            let mut clean = AudioKb::new(&t, 8, 3);
            clean.train(&t, &quick(), train_seed);
            let mut robust = AudioKb::new(&t, 8, 3);
            robust.train(
                &t,
                &AudioTrainConfig {
                    train_snr_db: Some(2.0),
                    ..quick()
                },
                train_seed,
            );
            let acc_clean = clean.accuracy(&t, &harsh, 1_000, &mut seeded_rng(7));
            let acc_robust = robust.accuracy(&t, &harsh, 1_000, &mut seeded_rng(7));
            assert!(
                acc_robust > acc_clean,
                "noise injection should help (train seed {train_seed}): {acc_clean} vs {acc_robust}"
            );
        }
    }

    #[test]
    fn symbols_per_melody_is_half_features() {
        let t = ToneSet::new(3, 1);
        assert_eq!(AudioKb::new(&t, 10, 1).symbols_per_melody(), 5);
    }

    #[test]
    #[should_panic(expected = "wrong waveform length")]
    fn wrong_length_panics() {
        let t = ToneSet::new(3, 1);
        AudioKb::new(&t, 8, 1).encode(&[0.0; 3]);
    }

    #[test]
    fn encode_batch_is_bit_identical_to_individual_encodes() {
        let t = ToneSet::new(5, 1);
        let kb = AudioKb::new(&t, 8, 2);
        let mut rng = seeded_rng(9);
        let waves: Vec<Vec<f32>> = (0..4).map(|_| t.sample(&mut rng).0).collect();
        let refs: Vec<&[f32]> = waves.iter().map(|w| w.as_slice()).collect();
        let batched = kb.encode_batch(&refs);
        assert_eq!(batched.rows(), waves.len());
        for (r, wave) in waves.iter().enumerate() {
            assert_eq!(batched.row(r), kb.encode(wave).as_slice(), "row {r}");
        }
    }

    #[test]
    fn quantized_kb_tracks_f32_accuracy_and_is_smaller() {
        let t = ToneSet::new(6, 1);
        let mut kb = AudioKb::new(&t, 8, 2);
        kb.train(&t, &quick(), 5);
        let q = kb.quantize();
        assert_eq!(q.feature_dim(), kb.feature_dim());
        assert_eq!(q.classes(), kb.classes());
        assert_eq!(q.symbols_per_melody(), kb.symbols_per_melody());

        // Same sample stream for both legs: re-seed between evaluations.
        let acc_f32 = kb.accuracy(&t, &NoiselessChannel, 200, &mut seeded_rng(11));
        let acc_int8 = q.accuracy(&t, &NoiselessChannel, 200, &mut seeded_rng(11));
        assert!(
            acc_f32 - acc_int8 < 0.01,
            "int8 accuracy loss too large: {acc_f32} vs {acc_int8}"
        );
        let f32_bytes = kb.param_count() * 4 + 2 * kb.feature_dim() * 4 + 64;
        assert!(
            q.size_bytes() * 2 < f32_bytes,
            "quantized {} vs f32 {f32_bytes}",
            q.size_bytes()
        );
    }
}
