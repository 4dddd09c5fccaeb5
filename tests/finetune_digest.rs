//! Pins the numerics of one user-model fine-tune round to the bit.
//!
//! A derived user model is fine-tuned with the default system's
//! `finetune` configuration on 129 seeded pairs — 64 + 64 + 1, so every
//! epoch ends on a one-row optimizer step — and every encoder and decoder
//! parameter is folded into one FNV-1a digest. The expected value was
//! recorded before the optimizer, loss and matmul kernels it runs through
//! were rewritten; any change to a training kernel that moves a single
//! output bit fails here, at every worker count, without waiting for the
//! harness goldens in `scripts/ci.sh`.

use semcom::SystemConfig;
use semcom_codec::train::Trainer;
use semcom_codec::{KbScope, KnowledgeBase};
use semcom_fl::param_digest;
use semcom_nn::params::ParamVec;
use semcom_text::{CorpusGenerator, Domain, Idiolect, IdiolectConfig, Rendering};

const PAIRS: usize = 129;
const EXPECTED_DIGEST: u64 = 0x35cc_3dd6_e203_e931;

fn finetuned_digest() -> u64 {
    let cfg = SystemConfig::default();
    let lang = cfg.language.build(0);
    let general = KnowledgeBase::new(
        cfg.codec,
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        5,
    );
    let idiolect = Idiolect::sample(&lang, Domain::It, IdiolectConfig::with_strength(2.0), 3);
    let pairs: Vec<(usize, usize)> = CorpusGenerator::new(&lang, 77)
        .sentences(Domain::It, Rendering::Idiolect(&idiolect), PAIRS)
        .iter()
        .flat_map(|s| {
            s.tokens
                .iter()
                .zip(&s.concepts)
                .map(|(&t, c)| (t, c.index()))
        })
        .take(PAIRS)
        .collect();
    assert_eq!(pairs.len(), PAIRS);
    assert_eq!(PAIRS % cfg.finetune.batch_size, 1, "one-row step covered");

    let mut kb = general.derive_user_model(1, Domain::It);
    let report = Trainer::new(cfg.finetune).fit_pairs(&mut kb, &pairs, 10);
    assert!(report.final_loss.is_finite());

    let mut params = kb.encoder.params_mut();
    params.extend(kb.decoder.params_mut());
    param_digest(&ParamVec::values_of(&params))
}

/// The fine-tune minibatch (64) is below the trainer's sharding threshold,
/// so — unlike large-batch pre-training — the result may not depend on the
/// worker count either: checked at the process's own count (`SEMCOM_THREADS`
/// or the host's cores; `scripts/ci.sh` runs this at 1 and 4) and at
/// explicit overrides.
#[test]
fn finetune_round_is_bit_identical_to_the_recorded_digest() {
    for workers in [None, Some(1usize), Some(2), Some(4)] {
        if let Some(w) = workers {
            semcom_par::set_workers(w);
        }
        let got = finetuned_digest();
        semcom_par::reset_workers();
        assert_eq!(
            got, EXPECTED_DIGEST,
            "fine-tuned parameters moved at {workers:?} workers: {got:#018x}"
        );
    }
}
