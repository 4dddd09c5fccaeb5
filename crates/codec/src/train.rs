//! Knowledge-base training.
//!
//! KBs are trained with channel-noise injection: semantic features are
//! passed through an AWGN channel at a configurable training SNR before the
//! decoder sees them, so the learned code is robust to the deployment
//! channel (the standard DeepSC training recipe). AWGN is additive, so the
//! gradient through the channel is the identity and backpropagation is
//! exact.
//!
//! # Data parallelism
//!
//! Every minibatch takes the shared step [`semcom_nn::optim::sharded_step`].
//! One of at least [`SHARD_MIN_BATCH`] tokens, with more than one
//! `semcom-par` worker, splits into contiguous shards on cloned
//! encoder/decoder replicas, per-shard noise seeds drawn from the main
//! training RNG in shard order, gradients reduced in **fixed shard order**
//! (weighted by shard size, matching the full-batch mean) before one
//! optimizer step. Runs are therefore reproducible at any fixed worker
//! count; with one worker every step is serial.

use crate::kb::KnowledgeBase;
use rand::seq::SliceRandom;
use semcom_channel::AwgnChannel;
use semcom_nn::optim::{shard_count, sharded_step, Adam};
use semcom_nn::rng::seeded_rng;
use semcom_text::Sentence;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Passes over the training data.
    pub epochs: usize,
    /// Mini-batch size in tokens.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Channel-noise injection SNR in dB (`None` trains noiselessly).
    pub train_snr_db: Option<f64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 8,
            batch_size: 64,
            learning_rate: 0.01,
            train_snr_db: Some(6.0),
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean cross-entropy of the final epoch.
    pub final_loss: f32,
    /// Token-level pairs seen per epoch.
    pub samples: usize,
    /// Epochs run.
    pub epochs: usize,
}

/// Trains [`KnowledgeBase`]s on `(token, concept)` supervision.
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains on whole sentences (each token labeled with its ground-truth
    /// concept). Bumps the KB version once per fit.
    pub fn fit(
        &mut self,
        kb: &mut KnowledgeBase,
        sentences: &[Sentence],
        seed: u64,
    ) -> TrainReport {
        let pairs: Vec<(usize, usize)> = sentences
            .iter()
            .flat_map(|s| {
                s.tokens
                    .iter()
                    .zip(&s.concepts)
                    .map(|(&t, c)| (t, c.index()))
            })
            .collect();
        self.fit_pairs(kb, &pairs, seed)
    }

    /// Trains on explicit `(token, concept-index)` pairs — the form stored
    /// in the paper's domain buffers `b_m`. Runs at least one epoch.
    ///
    /// # Panics
    ///
    /// Panics — before the first optimizer step, so `kb` is untouched — if
    /// any token is out of the encoder's vocabulary range or any concept
    /// index is out of the decoder's class range.
    pub fn fit_pairs(
        &mut self,
        kb: &mut KnowledgeBase,
        pairs: &[(usize, usize)],
        seed: u64,
    ) -> TrainReport {
        let (vocab, concepts) = (
            kb.encoder.frontend().vocab_size(),
            kb.decoder.concept_count(),
        );
        for &(token, concept) in pairs {
            assert!(
                token < vocab,
                "token id {token} out of range for vocab of {vocab}"
            );
            assert!(
                concept < concepts,
                "concept index {concept} out of range for {concepts} classes"
            );
        }
        let mut rng = seeded_rng(seed);
        let mut opt = Adam::new(self.config.learning_rate);
        let channel = self.config.train_snr_db.map(AwgnChannel::new);
        let channel = channel.as_ref();
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        let batch = self.config.batch_size.max(1);
        let mut tokens = Vec::with_capacity(batch.min(pairs.len()));
        let mut targets = Vec::with_capacity(batch.min(pairs.len()));
        let epochs = self.config.epochs.max(1);
        let mut final_loss = 0.0;

        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for chunk in order.chunks(batch) {
                tokens.clear();
                tokens.extend(chunk.iter().map(|&i| pairs[i].0));
                targets.clear();
                targets.extend(chunk.iter().map(|&i| pairs[i].1));
                epoch_loss += sharded_step(
                    kb,
                    tokens.len(),
                    shard_count(tokens.len(), MIN_SHARD_TOKENS, SHARD_MIN_BATCH),
                    &mut rng,
                    &mut opt,
                    |kb, r, rng| {
                        let (x, labels) = (&tokens[r.clone()], &targets[r]);
                        kb.encoder
                            .backprop(&mut kb.decoder, x, labels, channel, rng)
                    },
                    KnowledgeBase::params_mut,
                );
                batches += 1;
            }
            if batches > 0 {
                final_loss = epoch_loss / batches as f32;
            }
        }
        kb.bump_version();
        TrainReport {
            final_loss,
            samples: pairs.len(),
            epochs,
        }
    }
}

/// Minimum tokens per shard: below this, replica-clone overhead outweighs
/// the parallel speedup.
const MIN_SHARD_TOKENS: usize = 64;

/// Minimum minibatch size worth sharding at all. Each shard clones full
/// encoder/decoder replicas, so small batches (the default config uses 64)
/// train fastest on the serial path — sharding them regressed the
/// `trainer_epoch_4threads` benchmark by ~1.7x.
const SHARD_MIN_BATCH: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CodecConfig;
    use crate::kb::KbScope;
    use semcom_channel::NoiselessChannel;
    use semcom_nn::rng::seeded_rng;
    use semcom_text::{CorpusGenerator, Domain, LanguageConfig, Rendering};

    /// Tests that set or depend on the process-global worker count hold
    /// this to avoid cross-test interference.
    static WORKER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 12,
            batch_size: 32,
            learning_rate: 0.02,
            train_snr_db: None,
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_identity_mapping() {
        let lang = LanguageConfig::tiny().build(0);
        let mut gen = CorpusGenerator::new(&lang, 1);
        let train = gen.sentences(Domain::It, Rendering::Canonical, 80);

        let mut kb = KnowledgeBase::new(
            CodecConfig::tiny(),
            lang.vocab().len(),
            lang.concept_count(),
            KbScope::DomainGeneral(Domain::It),
            3,
        );
        let report = Trainer::new(quick_config()).fit(&mut kb, &train, 5);
        assert!(report.final_loss < 0.5, "loss {}", report.final_loss);
        assert_eq!(kb.version(), 1);

        // Evaluate on fresh canonical sentences over a clean channel.
        let mut rng = seeded_rng(9);
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..20 {
            let s = gen.sentence(Domain::It, Rendering::Canonical);
            let decoded = kb.transmit(&kb, &s.tokens, &NoiselessChannel, &mut rng);
            for (d, c) in decoded.iter().zip(&s.concepts) {
                total += 1;
                if d == c {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn noise_injected_training_is_robust_at_low_snr() {
        let lang = LanguageConfig::tiny().build(0);
        let mut gen = CorpusGenerator::new(&lang, 2);
        let train = gen.sentences(Domain::News, Rendering::Canonical, 80);

        let mut noisy_kb = KnowledgeBase::new(
            CodecConfig::tiny(),
            lang.vocab().len(),
            lang.concept_count(),
            KbScope::DomainGeneral(Domain::News),
            4,
        );
        let cfg = TrainConfig {
            train_snr_db: Some(3.0),
            ..quick_config()
        };
        Trainer::new(cfg).fit(&mut noisy_kb, &train, 6);

        let mut rng = seeded_rng(10);
        let channel = AwgnChannel::new(3.0);
        let mut correct = 0;
        let mut total = 0;
        for _ in 0..30 {
            let s = gen.sentence(Domain::News, Rendering::Canonical);
            let decoded = noisy_kb.transmit(&noisy_kb, &s.tokens, &channel, &mut rng);
            for (d, c) in decoded.iter().zip(&s.concepts) {
                total += 1;
                if d == c {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.6, "noisy-channel accuracy {acc}");
    }

    #[test]
    fn fit_pairs_handles_empty_input() {
        let mut kb = KnowledgeBase::new(CodecConfig::tiny(), 10, 5, KbScope::General, 1);
        let report = Trainer::new(quick_config()).fit_pairs(&mut kb, &[], 0);
        assert_eq!(report.samples, 0);
    }

    /// A bad pair in the *second* minibatch must be rejected before the
    /// first minibatch has updated anything.
    fn assert_rejected_untouched(bad: (usize, usize)) {
        let mut kb = KnowledgeBase::new(CodecConfig::tiny(), 10, 5, KbScope::General, 1);
        let before = (kb.encoder.encode(&[0, 3, 9]), kb.version());
        let mut pairs = vec![(1, 1); 40];
        pairs.push(bad);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Trainer::new(quick_config()).fit_pairs(&mut kb, &pairs, 0)
        }));
        let message = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(message.contains("out of range"), "{message}");
        assert_eq!((kb.encoder.encode(&[0, 3, 9]), kb.version()), before);
    }

    #[test]
    fn fit_pairs_rejects_bad_pairs_before_mutating() {
        assert_rejected_untouched((10, 1));
        assert_rejected_untouched((1, 5));
    }

    #[test]
    fn report_counts_the_epoch_a_zero_epoch_config_still_runs() {
        let mut kb = KnowledgeBase::new(CodecConfig::tiny(), 10, 5, KbScope::General, 1);
        let cfg = TrainConfig {
            epochs: 0,
            ..quick_config()
        };
        let report = Trainer::new(cfg).fit_pairs(&mut kb, &[(1, 1), (2, 2)], 0);
        assert_eq!(report.epochs, 1);
        assert!(report.final_loss > 0.0);
    }

    #[test]
    fn sharded_fit_is_deterministic_at_fixed_worker_count() {
        let _guard = WORKER_LOCK.lock().unwrap();
        let lang = LanguageConfig::tiny().build(0);
        let mut gen = CorpusGenerator::new(&lang, 4);
        // Enough sentences that a 512-pair minibatch clears SHARD_MIN_BATCH
        // and MIN_SHARD_TOKENS at 4 workers — the sharded path must
        // actually run for this test to mean anything.
        let train = gen.sentences(Domain::It, Rendering::Canonical, 150);
        let fit_with = |workers: usize| {
            semcom_par::set_workers(workers);
            let mut kb = KnowledgeBase::new(
                CodecConfig::tiny(),
                lang.vocab().len(),
                lang.concept_count(),
                KbScope::General,
                7,
            );
            let report = Trainer::new(TrainConfig {
                train_snr_db: Some(6.0),
                epochs: 4,
                batch_size: 512,
                ..quick_config()
            })
            .fit(&mut kb, &train, 11);
            semcom_par::set_workers(1);
            (report.final_loss, kb)
        };
        // Run-to-run identical at 4 workers (ordered reduction).
        let (loss_a, kb_a) = fit_with(4);
        let (loss_b, kb_b) = fit_with(4);
        assert_eq!(loss_a, loss_b);
        let mut r1 = seeded_rng(1);
        let mut r2 = seeded_rng(1);
        assert_eq!(
            kb_a.transmit(&kb_a, &[2, 3, 4], &NoiselessChannel, &mut r1),
            kb_b.transmit(&kb_b, &[2, 3, 4], &NoiselessChannel, &mut r2),
        );
        // The sharded path still learns: loss comparable to serial.
        let (loss_serial, _) = fit_with(1);
        assert!(
            loss_a < loss_serial * 2.0 + 0.5,
            "sharded {loss_a} vs serial {loss_serial}"
        );
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let _guard = WORKER_LOCK.lock().unwrap();
        let lang = LanguageConfig::tiny().build(0);
        let mut gen = CorpusGenerator::new(&lang, 3);
        let train = gen.sentences(Domain::It, Rendering::Canonical, 20);
        let make = || {
            let mut kb = KnowledgeBase::new(
                CodecConfig::tiny(),
                lang.vocab().len(),
                lang.concept_count(),
                KbScope::General,
                7,
            );
            Trainer::new(quick_config()).fit(&mut kb, &train, 11);
            kb
        };
        let a = make();
        let b = make();
        let mut rng1 = seeded_rng(1);
        let mut rng2 = seeded_rng(1);
        assert_eq!(
            a.transmit(&a, &[2, 3, 4], &NoiselessChannel, &mut rng1),
            b.transmit(&b, &[2, 3, 4], &NoiselessChannel, &mut rng2)
        );
    }
}
