use crate::glyphs::{GlyphSet, GLYPH_PIXELS, GLYPH_SIDE};
use rand::RngCore;
use semcom_channel::{AwgnChannel, Channel};
use semcom_nn::layers::{Activation, Conv2d, DenseLayer, LayerNorm, Linear, MaxPool2};
use semcom_nn::loss::softmax_cross_entropy;
use semcom_nn::optim::{Adam, Optimizer};
use semcom_nn::quant::{QuantizedLinear, QuantizedModel};
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_nn::Tensor;
use serde::{Deserialize, Serialize};

const CONV_CH: usize = 4;
const KERNEL: usize = 3;
const HIDDEN: usize = 32;

/// Minimum batch rows per training shard: below this, replica-clone
/// overhead outweighs the parallel speedup.
const MIN_SHARD_ROWS: usize = 8;

/// Training hyper-parameters for an [`ImageKb`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImageTrainConfig {
    /// Passes over the generated training set.
    pub epochs: usize,
    /// Images per epoch.
    pub samples_per_epoch: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Channel-noise injection SNR (dB); `None` trains noiselessly.
    pub train_snr_db: Option<f64>,
}

impl Default for ImageTrainConfig {
    fn default() -> Self {
        ImageTrainConfig {
            epochs: 8,
            samples_per_epoch: 400,
            batch_size: 32,
            learning_rate: 0.005,
            train_snr_db: Some(8.0),
        }
    }
}

/// A CNN image knowledge base (paper §III-B): encoder
/// `Conv(1→4, 3×3) → ReLU → MaxPool(2×2) → Linear → power norm` producing
/// `feature_dim` analog symbols per image; decoder
/// `Linear → ReLU → Linear → concept logits`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImageKb {
    conv: Conv2d,
    act1: Activation,
    pool: MaxPool2,
    proj: Linear,
    norm: LayerNorm,
    dec1: Linear,
    act2: Activation,
    dec2: Linear,
    feature_dim: usize,
    classes: usize,
}

impl ImageKb {
    /// Creates an untrained image KB for `glyphs` with `feature_dim`
    /// channel symbols per image.
    pub fn new(glyphs: &GlyphSet, feature_dim: usize, seed: u64) -> Self {
        let conv_h = GLYPH_SIDE - KERNEL + 1; // 10
        let pooled = conv_h / 2; // 5
        let flat = CONV_CH * pooled * pooled;
        ImageKb {
            conv: Conv2d::new(
                1,
                CONV_CH,
                GLYPH_SIDE,
                GLYPH_SIDE,
                KERNEL,
                derive_seed(seed, 0),
            ),
            act1: Activation::relu(),
            pool: MaxPool2::new(CONV_CH, conv_h, conv_h),
            proj: Linear::new(flat, feature_dim, derive_seed(seed, 1)),
            norm: LayerNorm::new(feature_dim),
            dec1: Linear::new(feature_dim, HIDDEN, derive_seed(seed, 2)),
            act2: Activation::relu(),
            dec2: Linear::new(HIDDEN, glyphs.len(), derive_seed(seed, 3)),
            feature_dim,
            classes: glyphs.len(),
        }
    }

    /// Features (channel symbols) per image.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of visual concepts the decoder can emit.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Complex channel symbols per transmitted image.
    pub fn symbols_per_image(&self) -> usize {
        self.feature_dim.div_ceil(2)
    }

    /// Total trainable scalar count.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Storage size in bytes (4 per parameter + header).
    pub fn size_bytes(&mut self) -> usize {
        self.param_count() * 4 + 64
    }

    fn params(&mut self) -> Vec<&mut semcom_nn::params::Param> {
        let mut ps = self.conv.params_mut();
        ps.extend(self.proj.params_mut());
        ps.extend(self.dec1.params_mut());
        ps.extend(self.dec2.params_mut());
        ps
    }

    /// Encodes one image to power-normalized features (inference path).
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != GLYPH_PIXELS`.
    pub fn encode(&self, image: &[f32]) -> Vec<f32> {
        assert_eq!(image.len(), GLYPH_PIXELS, "wrong image size");
        let x = Tensor::row_from_slice(image);
        let h = self.pool.infer(&self.act1.infer(&self.conv.infer(&x)));
        self.norm.infer(&self.proj.infer(&h)).into_vec()
    }

    /// Encodes many images in one forward pass, returning
    /// `[images.len(), feature_dim]` features. Every image flows through
    /// the CNN independently (per-row conv, pool, projection, power norm),
    /// so this is bit-identical to encoding each image separately — the
    /// packed activation matrix only amortizes dispatch.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or any image has the wrong size.
    pub fn encode_batch(&self, images: &[&[f32]]) -> Tensor {
        let mut flat = Vec::with_capacity(images.len() * GLYPH_PIXELS);
        for img in images {
            assert_eq!(img.len(), GLYPH_PIXELS, "wrong image size");
            flat.extend_from_slice(img);
        }
        let x = Tensor::from_vec(images.len(), GLYPH_PIXELS, flat).expect("sizes checked above");
        let h = self.pool.infer(&self.act1.infer(&self.conv.infer(&x)));
        self.norm.infer(&self.proj.infer(&h))
    }

    /// Converts this trained KB into its int8 inference twin: projection
    /// and decoder linears quantized, the (tiny) conv front-end kept f32.
    pub fn quantize(&self) -> QuantizedImageKb {
        QuantizedImageKb {
            conv: self.conv.clone(),
            act1: self.act1.clone(),
            pool: self.pool.clone(),
            proj: QuantizedLinear::from_linear(&self.proj),
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
        receiver: &ImageKb,
        image: &[f32],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> usize {
        let features = self.encode(image);
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
    pub fn train(&mut self, glyphs: &GlyphSet, config: &ImageTrainConfig, seed: u64) -> f32 {
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
                    let (img, label) = glyphs.sample(&mut rng);
                    rows.push(Tensor::row_from_slice(&img));
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
        let c = self.conv.forward(&x);
        let a = self.act1.forward(&c);
        let p = self.pool.forward(&a);
        let f = self.norm.forward(&self.proj.forward(&p));
        let received = match channel {
            Some(ch) => {
                let noisy = ch.transmit_f32(f.as_slice(), rng);
                Tensor::from_vec(f.rows(), f.cols(), noisy).expect("channel preserves length")
            }
            None => f.clone(),
        };
        let h = self.act2.forward(&self.dec1.forward(&received));
        let logits = self.dec2.forward(&h);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);

        // Backward (AWGN gradient = identity).
        for param in self.params() {
            param.zero_grad();
        }
        self.norm.zero_grad();
        let dh = self.dec2.backward(&dlogits);
        let drec = self.dec1.backward(&self.act2.backward(&dh));
        let dp = self.proj.backward(&self.norm.backward(&drec));
        let da = self.pool.backward(&dp);
        let dc = self.act1.backward(&da);
        self.conv.backward(&dc);
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
    /// shard's mean loss and gradients in [`ImageKb::params`] order. Depends
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
        let c = local.conv.forward(&x);
        let a = local.act1.forward(&c);
        let p = local.pool.forward(&a);
        let f = local.norm.forward(&local.proj.forward(&p));
        let received = match snr_db.map(AwgnChannel::new) {
            Some(ch) => {
                let noisy = ch.transmit_f32(f.as_slice(), &mut rng);
                Tensor::from_vec(f.rows(), f.cols(), noisy).expect("channel preserves length")
            }
            None => f.clone(),
        };
        let h = local.act2.forward(&local.dec1.forward(&received));
        let logits = local.dec2.forward(&h);
        let (loss, dlogits) = softmax_cross_entropy(&logits, labels);
        for param in local.params() {
            param.zero_grad();
        }
        local.norm.zero_grad();
        let dh = local.dec2.backward(&dlogits);
        let drec = local.dec1.backward(&local.act2.backward(&dh));
        let dp = local.proj.backward(&local.norm.backward(&drec));
        let da = local.pool.backward(&dp);
        let dc = local.act1.backward(&da);
        local.conv.backward(&dc);
        let grads = local
            .params()
            .into_iter()
            .map(|param| std::mem::replace(&mut param.grad, Tensor::zeros(0, 0)))
            .collect();
        (loss, grads)
    }

    /// Classification accuracy over `n` fresh samples through `channel`.
    pub fn accuracy(
        &self,
        glyphs: &GlyphSet,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let mut correct = 0;
        for _ in 0..n {
            let (img, label) = glyphs.sample(rng);
            if self.transmit(self, &img, channel, rng) == label {
                correct += 1;
            }
        }
        correct as f64 / n.max(1) as f64
    }
}

/// Int8 post-training-quantized twin of [`ImageKb`] for inference: the
/// projection and decoder linears (the bulk of the parameters) are stored
/// as quantized weights with exact integer accumulation; the conv
/// front-end (40 scalars) stays f32.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantizedImageKb {
    conv: Conv2d,
    act1: Activation,
    pool: MaxPool2,
    proj: QuantizedLinear,
    norm: LayerNorm,
    dec: QuantizedModel,
    feature_dim: usize,
    classes: usize,
}

impl QuantizedImageKb {
    /// Features (channel symbols) per image.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of visual concepts the decoder can emit.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Complex channel symbols per transmitted image (unchanged by
    /// quantization: model bytes shrink, the air interface does not).
    pub fn symbols_per_image(&self) -> usize {
        self.feature_dim.div_ceil(2)
    }

    /// Storage size in bytes: f32 conv front-end + quantized projection and
    /// decoder + f32 norm, same fixed header as [`ImageKb::size_bytes`].
    pub fn size_bytes(&self) -> usize {
        let conv_params = CONV_CH * KERNEL * KERNEL + CONV_CH;
        conv_params * 4
            + self.proj.size_bytes()
            + 2 * self.feature_dim * 4
            + self.dec.size_bytes()
            + 64
    }

    /// Encodes one image to power-normalized features.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != GLYPH_PIXELS`.
    pub fn encode(&self, image: &[f32]) -> Vec<f32> {
        self.encode_batch(&[image]).into_vec()
    }

    /// Encodes many images in one forward pass (f32 conv front-end, then
    /// one quantized projection over the packed activation matrix).
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or any image has the wrong size.
    pub fn encode_batch(&self, images: &[&[f32]]) -> Tensor {
        let mut flat = Vec::with_capacity(images.len() * GLYPH_PIXELS);
        for img in images {
            assert_eq!(img.len(), GLYPH_PIXELS, "wrong image size");
            flat.extend_from_slice(img);
        }
        let x = Tensor::from_vec(images.len(), GLYPH_PIXELS, flat).expect("sizes checked above");
        let h = self.pool.infer(&self.act1.infer(&self.conv.infer(&x)));
        let mut feat = self.proj.forward(&h);
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
        receiver: &QuantizedImageKb,
        image: &[f32],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> usize {
        let features = self.encode(image);
        let received = channel.transmit_f32(&features, rng);
        receiver.decode(&received)
    }

    /// Classification accuracy over `n` fresh samples through `channel` —
    /// same protocol as [`ImageKb::accuracy`], so fp32 and int8 accuracy
    /// are directly comparable at equal seeds.
    pub fn accuracy(
        &self,
        glyphs: &GlyphSet,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let mut correct = 0;
        for _ in 0..n {
            let (img, label) = glyphs.sample(rng);
            if self.transmit(self, &img, channel, rng) == label {
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

    fn quick() -> ImageTrainConfig {
        ImageTrainConfig {
            epochs: 6,
            samples_per_epoch: 240,
            train_snr_db: None,
            ..ImageTrainConfig::default()
        }
    }

    #[test]
    fn feature_power_is_normalized() {
        let g = GlyphSet::new(5, 1);
        let kb = ImageKb::new(&g, 8, 2);
        let mut rng = seeded_rng(3);
        let (img, _) = g.sample(&mut rng);
        let f = kb.encode(&img);
        let power: f32 = f.iter().map(|v| v * v).sum::<f32>() / f.len() as f32;
        assert!((power - 1.0).abs() < 0.02, "power {power}");
    }

    #[test]
    fn training_learns_the_glyphs() {
        let g = GlyphSet::new(6, 1);
        let mut kb = ImageKb::new(&g, 8, 2);
        let mut rng = seeded_rng(4);
        let before = kb.accuracy(&g, &NoiselessChannel, 100, &mut rng);
        let loss = kb.train(&g, &quick(), 5);
        let after = kb.accuracy(&g, &NoiselessChannel, 100, &mut rng);
        assert!(loss < 1.0, "final loss {loss}");
        assert!(after > before, "{before} -> {after}");
        assert!(after > 0.85, "accuracy {after}");
    }

    /// Paired like the audio twin: per training seed, both models are
    /// scored on the same 1 000 evaluation draws. Ignored because the
    /// claim does not hold for this deliberately tiny CNN — it is too small
    /// for the regularization benefit to overcome the extra gradient noise;
    /// the audio MLP equivalent passes and covers the train-SNR plumbing.
    #[test]
    #[ignore = "paired, 1 000 samples at 0 dB, clean vs noise-trained per train seed: 6: 0.893 vs 0.887, 7: 0.883 vs 0.883, 8: 0.882 vs 0.889, 9: 0.884 vs 0.881 — no effect to assert"]
    fn noisy_channel_degrades_but_noise_trained_model_resists() {
        let g = GlyphSet::new(6, 2);
        let harsh = AwgnChannel::new(0.0);
        for train_seed in 6..10 {
            let mut clean = ImageKb::new(&g, 8, 3);
            clean.train(&g, &quick(), train_seed);
            let mut robust = ImageKb::new(&g, 8, 3);
            robust.train(
                &g,
                &ImageTrainConfig {
                    train_snr_db: Some(2.0),
                    ..quick()
                },
                train_seed,
            );
            let acc_clean = clean.accuracy(&g, &harsh, 1_000, &mut seeded_rng(7));
            let acc_robust = robust.accuracy(&g, &harsh, 1_000, &mut seeded_rng(7));
            assert!(
                acc_robust > acc_clean,
                "noise-injected training should be more robust (train seed {train_seed}): {acc_clean} vs {acc_robust}"
            );
        }
    }

    #[test]
    fn symbols_per_image_is_half_features() {
        let g = GlyphSet::new(3, 1);
        let kb = ImageKb::new(&g, 10, 1);
        assert_eq!(kb.symbols_per_image(), 5);
    }

    #[test]
    fn param_count_is_positive_and_sized() {
        let g = GlyphSet::new(4, 1);
        let mut kb = ImageKb::new(&g, 8, 1);
        assert!(kb.param_count() > 1000);
        assert_eq!(kb.size_bytes(), kb.param_count() * 4 + 64);
    }

    #[test]
    #[should_panic(expected = "wrong image size")]
    fn wrong_image_size_panics() {
        let g = GlyphSet::new(3, 1);
        let kb = ImageKb::new(&g, 8, 1);
        kb.encode(&[0.0; 10]);
    }

    #[test]
    fn encode_batch_is_bit_identical_to_individual_encodes() {
        let g = GlyphSet::new(5, 1);
        let kb = ImageKb::new(&g, 8, 2);
        let mut rng = seeded_rng(9);
        let imgs: Vec<Vec<f32>> = (0..3).map(|_| g.sample(&mut rng).0).collect();
        let refs: Vec<&[f32]> = imgs.iter().map(Vec::as_slice).collect();
        let batched = kb.encode_batch(&refs);
        assert_eq!(batched.shape(), (3, 8));
        for (r, img) in refs.iter().enumerate() {
            assert_eq!(batched.row(r), kb.encode(img).as_slice(), "image {r}");
        }
    }

    #[test]
    fn quantized_kb_tracks_f32_accuracy_and_is_smaller() {
        let g = GlyphSet::new(6, 1);
        let mut kb = ImageKb::new(&g, 8, 2);
        kb.train(&g, &quick(), 5);
        let q = kb.quantize();
        assert_eq!(q.feature_dim(), kb.feature_dim());
        assert_eq!(q.classes(), kb.classes());
        assert_eq!(q.symbols_per_image(), kb.symbols_per_image());
        assert!(
            q.size_bytes() < kb.size_bytes() / 2,
            "quantized {} vs f32 {}",
            q.size_bytes(),
            kb.size_bytes()
        );
        let mut rng = seeded_rng(11);
        let acc_f32 = kb.accuracy(&g, &NoiselessChannel, 150, &mut rng);
        let mut rng = seeded_rng(11);
        let acc_int8 = q.accuracy(&g, &NoiselessChannel, 150, &mut rng);
        assert!(
            acc_f32 - acc_int8 < 0.01,
            "int8 accuracy loss too large: {acc_f32} -> {acc_int8}"
        );
        // Batch encode agrees with single encode.
        let (img, _) = g.sample(&mut rng);
        assert_eq!(q.encode_batch(&[&img]).into_vec(), q.encode(&img));
    }
}
