use crate::config::CodecConfig;
use crate::decoder::{over_channel, SemanticDecoder};
use crate::encoder::{Frontend, SemanticEncoder};
use rand::RngCore;
use semcom_channel::Channel;
use semcom_nn::layers::Embedding;
use semcom_nn::params::Param;
use semcom_nn::rng::derive_seed;
use semcom_text::{ConceptId, Domain};
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a knowledge base is specialized for — the three model classes of the
/// paper's cache (§II-A, §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KbScope {
    /// A single model for all domains (the strawman the paper argues
    /// against in §II-A).
    General,
    /// A domain-specialized general model `e_i^m / d_i^m`.
    DomainGeneral(Domain),
    /// A user-specific individual model `e_u^m / d_u^m`, evolved from the
    /// domain-general model.
    UserSpecific {
        /// Stable user identifier.
        user: u64,
        /// The domain the user model specializes.
        domain: Domain,
    },
}

impl fmt::Display for KbScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KbScope::General => write!(f, "general"),
            KbScope::DomainGeneral(d) => write!(f, "domain:{d}"),
            KbScope::UserSpecific { user, domain } => write!(f, "user:{user}@{domain}"),
        }
    }
}

/// A knowledge base: a trained semantic encoder/decoder pair over front end
/// `F` — the token [`Embedding`] for text (the default), a
/// [`ConceptSource`](crate::concept::ConceptSource)'s front end for image,
/// audio and video (built with [`KnowledgeBase::for_source`]).
///
/// KBs are the objects the semantic cache stores, the federated protocol
/// synchronizes, and the edge servers execute. They report their
/// wire/storage size; [`KnowledgeBase::quantize`] converts one into its
/// int8 inference twin, a [`QuantizedKb`](crate::QuantizedKb).
#[derive(Debug, Clone)]
pub struct KnowledgeBase<F: Frontend = Embedding> {
    pub(crate) scope: KbScope,
    /// Monotonically increasing model version (bumped on every training
    /// round; used by the sync protocol to detect staleness).
    pub(crate) version: u64,
    /// The semantic encoder.
    pub encoder: SemanticEncoder<F>,
    /// The semantic decoder.
    pub decoder: SemanticDecoder,
}

impl KnowledgeBase {
    /// Creates an untrained text KB.
    pub fn new(
        config: CodecConfig,
        vocab_size: usize,
        concept_count: usize,
        scope: KbScope,
        seed: u64,
    ) -> Self {
        let s = derive_seed(seed, 10);
        KnowledgeBase {
            scope,
            version: 0,
            encoder: SemanticEncoder::new(
                Embedding::new(vocab_size, config.embed_dim, derive_seed(s, 1)),
                config.feature_dim,
                derive_seed(s, 2),
            ),
            decoder: SemanticDecoder::new(
                config.feature_dim,
                config.hidden_dim,
                concept_count,
                [3, 4].map(|i| derive_seed(derive_seed(seed, 11), i)),
            ),
        }
    }
}

impl<F: Frontend> KnowledgeBase<F> {
    /// The scope this KB is specialized for.
    pub fn scope(&self) -> KbScope {
        self.scope
    }

    /// The architecture, read off the layers: front-end width, features
    /// per row, decoder hidden width.
    pub fn config(&self) -> CodecConfig {
        CodecConfig {
            embed_dim: self.encoder.frontend().out_len(),
            feature_dim: self.feature_dim(),
            hidden_dim: self.decoder.hidden_dim(),
        }
    }

    /// Features per transmitted row (token or sample).
    pub fn feature_dim(&self) -> usize {
        self.encoder.feature_dim()
    }

    /// Current model version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Increments the model version (called after each training round).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    /// Derives a user-specific KB from this (domain-general) KB: same
    /// weights, new scope — the paper's `e_u^m, d_u^m … evolved from the
    /// general models` (§II-D).
    pub fn derive_user_model(&self, user: u64, domain: Domain) -> Self {
        let mut kb = self.clone();
        kb.scope = KbScope::UserSpecific { user, domain };
        kb.version = 0;
        kb
    }

    /// Encoder then decoder parameters, the order the optimizer keys on.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = self.encoder.params_mut();
        ps.extend(self.decoder.params_mut());
        ps
    }

    /// Total trainable scalar count.
    pub fn param_count(&self) -> usize {
        self.encoder.param_count() + self.decoder.param_count()
    }

    /// Storage/transfer size in bytes — encoder (its frozen power norm
    /// included), decoder and a 64-byte header, the rule of both
    /// precisions: the size the cache accounts against its capacity and
    /// the cloud→edge fetch cost in the simulator.
    pub fn size_bytes(&self) -> usize {
        self.encoder.size_bytes() + self.decoder.size_bytes() + 64
    }

    /// Transmits `x` (token ids, or sample rows) end-to-end: encode with
    /// `self`'s encoder, pass the features through `channel`, decode with
    /// `receiver`'s decoder. Returns one decoded concept per row.
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

    /// Complex channel symbols needed to transmit `rows` tokens or samples.
    pub fn symbols_for(&self, rows: usize) -> usize {
        rows * self.feature_dim().div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcom_channel::NoiselessChannel;
    use semcom_nn::rng::seeded_rng;

    fn kb(scope: KbScope) -> KnowledgeBase {
        KnowledgeBase::new(CodecConfig::tiny(), 30, 12, scope, 1)
    }

    #[test]
    fn scope_display() {
        assert_eq!(kb(KbScope::General).scope().to_string(), "general");
        assert_eq!(
            kb(KbScope::DomainGeneral(Domain::It)).scope().to_string(),
            "domain:it"
        );
        assert_eq!(
            kb(KbScope::UserSpecific {
                user: 3,
                domain: Domain::News
            })
            .scope()
            .to_string(),
            "user:3@news"
        );
    }

    #[test]
    fn param_count_matches_live_layers() {
        let mut k = kb(KbScope::General);
        let mut params = k.encoder.params_mut();
        params.extend(k.decoder.params_mut());
        let live: usize = params.iter().map(|p| p.len()).sum();
        // The architecture: embedding, projection, then the decoder MLP.
        let (c, vocab, concepts) = (CodecConfig::tiny(), 30, 12);
        let architecture = vocab * c.embed_dim
            + (c.embed_dim + 1) * c.feature_dim
            + (c.feature_dim + 1) * c.hidden_dim
            + (c.hidden_dim + 1) * concepts;
        assert_eq!(live, architecture);
        assert_eq!(k.param_count(), live);
        // 4 bytes per parameter, the frozen power norm's γ and β, a header.
        assert_eq!(k.size_bytes(), (live + 2 * c.feature_dim) * 4 + 64);
        assert_eq!(k.config(), c);
    }

    #[test]
    fn transmit_over_noiseless_channel_is_deterministic() {
        let k = kb(KbScope::General);
        let mut rng = seeded_rng(5);
        let a = k.transmit(&k, &[1, 2, 3], &NoiselessChannel, &mut rng);
        let b = k.transmit(&k, &[1, 2, 3], &NoiselessChannel, &mut rng);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn transmit_empty_is_empty() {
        let k = kb(KbScope::General);
        let mut rng = seeded_rng(5);
        assert!(k.transmit(&k, &[], &NoiselessChannel, &mut rng).is_empty());
    }

    #[test]
    fn derive_user_model_starts_from_parent_weights() {
        let parent = kb(KbScope::DomainGeneral(Domain::It));
        let user = parent.derive_user_model(9, Domain::It);
        assert_eq!(
            user.scope(),
            KbScope::UserSpecific {
                user: 9,
                domain: Domain::It
            }
        );
        let mut rng = seeded_rng(6);
        // Same weights -> identical transmissions.
        assert_eq!(
            parent.transmit(&parent, &[4, 5], &NoiselessChannel, &mut rng),
            user.transmit(&user, &[4, 5], &NoiselessChannel, &mut rng)
        );
    }

    #[test]
    fn version_bumps() {
        let mut k = kb(KbScope::General);
        assert_eq!(k.version(), 0);
        k.bump_version();
        assert_eq!(k.version(), 1);
    }

    #[test]
    fn symbols_for_uses_config() {
        let k = kb(KbScope::General);
        assert_eq!(
            k.symbols_for(10),
            10 * CodecConfig::tiny().symbols_per_token()
        );
    }
}
