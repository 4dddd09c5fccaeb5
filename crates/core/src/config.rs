use semcom_channel::adapt::AdaptSpec;
use semcom_codec::train::TrainConfig;
use semcom_codec::CodecConfig;
use semcom_fl::SyncProtocol;
use semcom_text::LanguageConfig;
use serde::{Deserialize, Serialize};

/// The physical channel between edge servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChannelModel {
    /// Additive white Gaussian noise at the given SNR (dB).
    Awgn {
        /// Signal-to-noise ratio in dB.
        snr_db: f64,
    },
    /// Flat Rayleigh fading (perfect-CSI equalization) at the given
    /// average SNR (dB).
    Rayleigh {
        /// Average signal-to-noise ratio in dB.
        snr_db: f64,
    },
}

/// How the sender edge picks the domain model for each message (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Naive Bayes scores blended with an exponentially-decayed
    /// conversation history.
    Contextual {
        /// History weight in `[0, 1)`.
        decay: f64,
    },
    /// ε-greedy reinforcement learning on top of naive Bayes, rewarded by
    /// decode success (available at the sender via the decoder copy,
    /// §II-C).
    Bandit {
        /// Exploration probability.
        epsilon: f64,
        /// Value-update step size.
        learning_rate: f64,
    },
}

/// Configuration of a [`crate::SemanticEdgeSystem`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The synthetic language.
    pub language: LanguageConfig,
    /// Codec architecture of every KB.
    pub codec: CodecConfig,
    /// Training recipe for the general KBs (pre-training in the cloud).
    pub pretrain: TrainConfig,
    /// Training recipe for user-specific fine-tuning from buffers.
    pub finetune: TrainConfig,
    /// Sentences per domain used to pre-train general KBs.
    pub pretrain_sentences: usize,
    /// Physical channel between the edges.
    pub channel: ChannelModel,
    /// Capacity of each per-user-per-domain buffer `b_m`.
    pub buffer_capacity: usize,
    /// Samples needed before user-model training triggers (§II-D).
    pub buffer_threshold: usize,
    /// Byte budget of the sender edge's user-model cache.
    pub user_cache_bytes: usize,
    /// Decoder synchronization protocol (§II-D).
    pub sync_protocol: SyncProtocol,
    /// Selection strategy (§III-A).
    pub selection: SelectionStrategy,
    /// Number of edge servers in the topology (min 2).
    pub n_edges: usize,
    /// Messages one worker takes from a
    /// [`crate::SemanticEdgeSystem::send_stream`] window, and so the most it
    /// packs into one batched NN call: a window holds at most
    /// `encode_batch_size × semcom_par::max_workers()` messages.
    pub encode_batch_size: usize,
    /// Per-user link adaptation: each user's channel follows a seeded
    /// Markov SNR trace and the ingress stage consults the user's
    /// [`semcom_channel::LinkState`] before composing the transmit
    /// config (SNR, kept feature dims). `None` (the default) reproduces
    /// the fixed-channel behavior exactly.
    pub adapt: Option<AdaptSpec>,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            language: LanguageConfig::default(),
            codec: CodecConfig::default(),
            pretrain: TrainConfig {
                epochs: 10,
                ..TrainConfig::default()
            },
            finetune: TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
            pretrain_sentences: 300,
            channel: ChannelModel::Awgn { snr_db: 8.0 },
            buffer_capacity: 400,
            buffer_threshold: 120,
            user_cache_bytes: 4_000_000,
            sync_protocol: SyncProtocol::DenseDelta,
            selection: SelectionStrategy::Contextual { decay: 0.7 },
            n_edges: 2,
            encode_batch_size: 16,
            adapt: None,
        }
    }
}

impl SystemConfig {
    /// A miniature configuration for fast tests: tiny language, tiny
    /// codec, few pre-training sentences.
    pub fn tiny() -> Self {
        SystemConfig {
            language: LanguageConfig::tiny(),
            codec: CodecConfig::tiny(),
            pretrain: TrainConfig {
                epochs: 10,
                train_snr_db: Some(8.0),
                ..TrainConfig::default()
            },
            finetune: TrainConfig {
                epochs: 6,
                train_snr_db: Some(8.0),
                ..TrainConfig::default()
            },
            pretrain_sentences: 60,
            channel: ChannelModel::Awgn { snr_db: 10.0 },
            buffer_capacity: 120,
            buffer_threshold: 40,
            user_cache_bytes: 1_000_000,
            sync_protocol: SyncProtocol::DenseDelta,
            selection: SelectionStrategy::Contextual { decay: 0.7 },
            n_edges: 2,
            encode_batch_size: 4,
            adapt: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_internally_consistent() {
        let c = SystemConfig::default();
        assert!(c.buffer_threshold <= c.buffer_capacity);
        match c.selection {
            SelectionStrategy::Contextual { decay } => {
                assert!((0.0..1.0).contains(&decay));
            }
            SelectionStrategy::Bandit { epsilon, .. } => {
                assert!((0.0..=1.0).contains(&epsilon));
            }
        }
        assert!(c.pretrain_sentences > 0);
        assert!(c.encode_batch_size >= 1);
    }

    #[test]
    fn tiny_is_smaller_than_default() {
        let t = SystemConfig::tiny();
        let d = SystemConfig::default();
        assert!(t.pretrain_sentences < d.pretrain_sentences);
        assert!(t.buffer_threshold < d.buffer_threshold);
    }
}
