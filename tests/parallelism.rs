//! Cross-crate determinism guarantees of the `semcom-par` thread pool:
//! parallel kernels and data-parallel training must reproduce exactly —
//! bit-identical matmuls at every worker count, and bit-identical training
//! runs at a fixed worker count.
//!
//! Worker count is process-global, so every test serializes on
//! [`WORKER_LOCK`] and restores the default before releasing it.

use semcom_channel::NoiselessChannel;
use semcom_codec::train::{TrainConfig, Trainer};
use semcom_codec::{CodecConfig, KbScope, KnowledgeBase};
use semcom_nn::{Tensor, PAR_WORK};
use semcom_text::{CorpusGenerator, Domain, LanguageConfig, Rendering};
use std::sync::Mutex;

static WORKER_LOCK: Mutex<()> = Mutex::new(());

fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let data = (0..rows * cols)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
        .collect();
    Tensor::from_vec(rows, cols, data).expect("shape matches data")
}

/// The row-partitioned matmul must be bit-identical at every worker count:
/// each output row is written by exactly one worker running the same
/// serial kernel over the same inputs.
#[test]
fn matmul_is_bit_identical_across_worker_counts() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Sized from the public threshold so the product really fans out:
    // rows · 2·k·n ≥ PAR_WORK, with a row count no worker count in 2..=4
    // divides, so the bands are uneven as well.
    let (k, n) = (96, 96);
    let mut rows = PAR_WORK.div_ceil(2 * k * n);
    while (2..=4).any(|w| rows.is_multiple_of(w)) {
        rows += 1;
    }
    assert!(rows * 2 * k * n >= PAR_WORK);
    let a = pseudo(rows, k, 1);
    let b = pseudo(k, n, 2);
    semcom_par::set_workers(1);
    let reference = a.matmul(&b);
    for workers in 2..=4 {
        semcom_par::set_workers(workers);
        let out = a.matmul(&b);
        assert_eq!(
            reference.as_slice(),
            out.as_slice(),
            "matmul diverged at {workers} workers"
        );
    }
    semcom_par::reset_workers();
}

/// The fused transpose variants must match the allocate-then-multiply
/// forms bit for bit — they reorder loops, not accumulation.
#[test]
fn fused_transpose_kernels_match_explicit_transpose() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    semcom_par::set_workers(3);
    for &(m, k, n) in &[(64usize, 24usize, 8usize), (96, 96, 96)] {
        let x = pseudo(m, k, 7);
        let d = pseudo(m, n, 8);
        assert_eq!(
            x.transpose().matmul(&d).as_slice(),
            x.matmul_transa(&d).as_slice(),
            "transa mismatch at ({m},{k},{n})"
        );
        let w = pseudo(k, n, 9);
        assert_eq!(
            d.matmul(&w.transpose()).as_slice(),
            d.matmul_transb(&w).as_slice(),
            "transb mismatch at ({m},{k},{n})"
        );
    }
    semcom_par::reset_workers();
}

fn train_once(workers: usize) -> (f32, Vec<f32>) {
    semcom_par::set_workers(workers);
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 1);
    let train = gen.sentences(Domain::It, Rendering::Canonical, 60);
    let mut kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        5,
    );
    let report = Trainer::new(TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    })
    .fit(&mut kb, &train, 9);
    let features = kb.encoder.encode(&train[0].tokens);
    (report.final_loss, features.as_slice().to_vec())
}

/// Data-parallel training must reproduce exactly run-to-run at a fixed
/// worker count: shard boundaries and per-shard seeds depend only on the
/// configured worker count, and gradients reduce in fixed shard order.
#[test]
fn training_is_reproducible_at_fixed_worker_count() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for workers in [1usize, 2, 4] {
        let (loss_a, feat_a) = train_once(workers);
        let (loss_b, feat_b) = train_once(workers);
        assert_eq!(
            loss_a.to_bits(),
            loss_b.to_bits(),
            "final loss diverged run-to-run at {workers} workers"
        );
        assert_eq!(
            feat_a, feat_b,
            "trained model diverged at {workers} workers"
        );
    }
    semcom_par::reset_workers();
}

/// `par_map_indexed` must preserve submission order regardless of which
/// worker finishes first.
#[test]
fn par_map_preserves_order_under_uneven_load() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    semcom_par::set_workers(4);
    let items: Vec<usize> = (0..64).collect();
    let out = semcom_par::par_map_indexed(&items, |i, &x| {
        // Earlier items do more work, so later items finish first.
        let spin = (64 - i) * 500;
        let mut acc = 0u64;
        for v in 0..spin as u64 {
            acc = acc.wrapping_add(v ^ x as u64);
        }
        std::hint::black_box(acc);
        x * 2
    });
    assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    semcom_par::reset_workers();
}

/// End-to-end sanity: a model trained under sharding still round-trips
/// its training sentence over a clean channel.
#[test]
fn sharded_training_produces_a_working_codec() {
    let _guard = WORKER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    semcom_par::set_workers(4);
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 1);
    let train = gen.sentences(Domain::It, Rendering::Canonical, 60);
    let mut kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        5,
    );
    Trainer::new(TrainConfig {
        epochs: 8,
        ..TrainConfig::default()
    })
    .fit(&mut kb, &train, 9);
    let mut rng = semcom_nn::rng::seeded_rng(3);
    let sent = &train[0];
    let out = kb.transmit(&kb, &sent.tokens, &NoiselessChannel, &mut rng);
    let correct = out
        .iter()
        .zip(&sent.concepts)
        .filter(|(a, b)| a == b)
        .count();
    assert!(
        correct * 2 >= sent.concepts.len(),
        "sharded-trained codec decodes only {correct}/{} concepts",
        sent.concepts.len()
    );
    semcom_par::reset_workers();
}
