//! Conversation-level selector evaluation (experiment T5).
//!
//! Conversations stay on one topic, but individual messages are sometimes
//! **locally ambiguous** — built entirely from shared (domain-neutral)
//! concepts — so per-message classifiers must guess while context-aware
//! selectors can carry the topic across messages. This operationalizes the
//! paper's claim that "context is often critical in selecting the
//! appropriate model" (§III-A).

use crate::DomainSelector;
use rand::Rng;
use semcom_nn::rng::{derive_seed, seeded_rng};
use semcom_text::{CorpusGenerator, Domain, Rendering, Sentence, SyntheticLanguage};

/// Fraction of messages rendered ambiguous (shared concepts only).
const AMBIGUOUS_RATE: f64 = 0.35;

/// A single-topic conversation.
#[derive(Debug, Clone)]
pub struct Conversation {
    /// The topic all messages belong to.
    pub domain: Domain,
    /// The messages, in order.
    pub messages: Vec<Sentence>,
}

/// A labeled set of conversations.
#[derive(Debug, Clone)]
pub struct ConversationSet {
    conversations: Vec<Conversation>,
}

impl ConversationSet {
    /// Generates `n_conversations` of `messages_each`, topic round-robin
    /// over the domains.
    pub fn generate(
        lang: &SyntheticLanguage,
        n_conversations: usize,
        messages_each: usize,
        seed: u64,
    ) -> Self {
        let mut gen = CorpusGenerator::with_params(lang, derive_seed(seed, 1), 3, 8);
        let mut rng = seeded_rng(derive_seed(seed, 2));
        let shared: Vec<_> = lang
            .domain_concepts(Domain::It)
            .iter()
            .copied()
            .filter(|&c| lang.concept_domain(c).is_none())
            .collect();

        let mut conversations = Vec::with_capacity(n_conversations);
        for i in 0..n_conversations {
            let domain = Domain::from_index(i % Domain::COUNT);
            let mut messages = Vec::with_capacity(messages_each);
            for _ in 0..messages_each {
                if !shared.is_empty() && rng.gen::<f64>() < AMBIGUOUS_RATE {
                    // Fully ambiguous message: shared concepts only.
                    let len = rng.gen_range(2..=4);
                    let concepts: Vec<_> = (0..len)
                        .map(|_| shared[rng.gen_range(0..shared.len())])
                        .collect();
                    messages.push(gen.render(domain, &concepts, Rendering::Canonical));
                } else {
                    messages.push(gen.sentence(domain, Rendering::Mixed(0.2)));
                }
            }
            conversations.push(Conversation { domain, messages });
        }
        ConversationSet { conversations }
    }

    /// The conversations.
    pub fn conversations(&self) -> &[Conversation] {
        &self.conversations
    }

    /// All messages flattened (training data for selectors).
    pub fn sentences(&self) -> Vec<Sentence> {
        self.conversations
            .iter()
            .flat_map(|c| c.messages.iter().cloned())
            .collect()
    }

    /// Total message count.
    pub fn message_count(&self) -> usize {
        self.conversations.iter().map(|c| c.messages.len()).sum()
    }

    /// Like [`Self::evaluate`] but feeds the bandit its reward after every
    /// message — simulating the decode-success signal the sender edge gets
    /// for free from its decoder copy (§II-C).
    pub fn evaluate_bandit(&self, selector: &mut crate::BanditSelector) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for conv in &self.conversations {
            selector.reset();
            for msg in &conv.messages {
                total += 1;
                let chosen = selector.select(&msg.tokens);
                let hit = chosen == conv.domain;
                selector.observe(hit as u32 as f64);
                if hit {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// Per-message selection accuracy of `selector`, resetting it at each
    /// conversation boundary.
    pub fn evaluate(&self, selector: &mut dyn DomainSelector) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for conv in &self.conversations {
            selector.reset();
            for msg in &conv.messages {
                total += 1;
                if selector.select(&msg.tokens) == conv.domain {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BanditSelector, ContextualSelector, NaiveBayesSelector};
    use semcom_text::LanguageConfig;

    #[test]
    fn generated_sets_are_deterministic_and_sized() {
        let lang = LanguageConfig::tiny().build(0);
        let a = ConversationSet::generate(&lang, 8, 5, 3);
        let b = ConversationSet::generate(&lang, 8, 5, 3);
        assert_eq!(a.message_count(), 40);
        assert_eq!(a.sentences().len(), b.sentences().len());
        for (x, y) in a.sentences().iter().zip(b.sentences().iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn some_messages_are_ambiguous() {
        let lang = LanguageConfig::default().build(0);
        let set = ConversationSet::generate(&lang, 10, 8, 1);
        let ambiguous = set
            .sentences()
            .iter()
            .filter(|s| s.concepts.iter().all(|&c| lang.concept_domain(c).is_none()))
            .count();
        assert!(ambiguous > 0, "no ambiguous messages generated");
    }

    #[test]
    fn context_beats_per_message_selection() {
        let lang = LanguageConfig::default().build(0);
        let train = ConversationSet::generate(&lang, 40, 6, 1);
        let test = ConversationSet::generate(&lang, 20, 6, 2);

        let mut nb = NaiveBayesSelector::fit(&lang, &train.sentences());
        let nb_acc = test.evaluate(&mut nb);

        let nb2 = NaiveBayesSelector::fit(&lang, &train.sentences());
        let mut ctx = ContextualSelector::new(Box::new(nb2), 0.7);
        let ctx_acc = test.evaluate(&mut ctx);

        assert!(
            ctx_acc > nb_acc,
            "contextual {ctx_acc} should beat per-message {nb_acc}"
        );
    }

    #[test]
    fn bandit_with_feedback_beats_its_base() {
        let lang = LanguageConfig::default().build(0);
        let train = ConversationSet::generate(&lang, 40, 8, 1);
        let test = ConversationSet::generate(&lang, 20, 8, 2);

        let mut nb = NaiveBayesSelector::fit(&lang, &train.sentences());
        let nb_acc = test.evaluate(&mut nb);

        let base = NaiveBayesSelector::fit(&lang, &train.sentences());
        let mut bandit = BanditSelector::new(Box::new(base), 0.05, 0.5, 7);
        let bandit_acc = test.evaluate_bandit(&mut bandit);
        assert!(
            bandit_acc > nb_acc,
            "bandit {bandit_acc} should beat per-message NB {nb_acc}"
        );
    }

    #[test]
    fn empty_set_scores_zero() {
        let lang = LanguageConfig::tiny().build(0);
        let set = ConversationSet::generate(&lang, 0, 0, 1);
        let mut nb = NaiveBayesSelector::fit(&lang, &[]);
        assert_eq!(set.evaluate(&mut nb), 0.0);
    }
}
