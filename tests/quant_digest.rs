//! Pins the int8 inference kernels to the bit.
//!
//! The quantized forward pass is exact integer arithmetic followed by one
//! dequantization per output, so a kernel rewrite must not move a single
//! output bit. Two FNV-1a digests over `f32::to_bits` were recorded with
//! the `i32` register-tile kernel, before it was replaced: the logits of a
//! wide-codec-shaped decoder (`QuantizedModel::forward_into`, 32 → 1024 →
//! 176, at row counts that cover every row tile and its remainders) and
//! the features of a wide-codec encoder
//! (`QuantizedEncoder::encode_batch_into`, repeated ids included). The
//! kernels are single-threaded; `scripts/ci.sh` still runs this file at
//! `SEMCOM_THREADS` = 1 and 4 beside the other digests.

use rand::Rng;
use semcom_codec::{CodecConfig, EncodeScratch, KbScope, KnowledgeBase};
use semcom_nn::layers::Linear;
use semcom_nn::quant::{ModelScratch, QuantizedModel};
use semcom_nn::rng::seeded_rng;

const EXPECTED_LOGITS_DIGEST: u64 = 0x4268_9a65_7c55_c180;
const EXPECTED_FEATURES_DIGEST: u64 = 0x2c2b_ebf7_9087_6c7b;

const ROWS: [usize; 5] = [1, 4, 10, 13, 40];
const BATCHES: [usize; 4] = [1, 7, 10, 320];
const VOCAB: usize = 300;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(digest: &mut u64, values: &[f32]) {
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            *digest = (*digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn quantized_model_logits_are_bit_identical_to_the_recorded_digest() {
    let (l1, l2) = (Linear::new(32, 1024, 21), Linear::new(1024, 176, 22));
    let model = QuantizedModel::from_linears(&[&l1, &l2]);
    let mut rng = seeded_rng(23);
    let mut scratch = ModelScratch::new();
    let mut logits = Vec::new();
    let mut digest = FNV_OFFSET;
    for rows in ROWS {
        let x: Vec<f32> = (0..rows * 32).map(|_| rng.gen_range(-2.0..2.0)).collect();
        model.forward_into(&x, rows, &mut scratch, &mut logits);
        assert_eq!(logits.len(), rows * 176);
        fnv(&mut digest, &logits);
    }
    assert_eq!(
        digest, EXPECTED_LOGITS_DIGEST,
        "int8 decoder logits moved: {digest:#018x}"
    );
}

#[test]
fn quantized_encoder_features_are_bit_identical_to_the_recorded_digest() {
    let wide = CodecConfig {
        embed_dim: 128,
        feature_dim: 32,
        hidden_dim: 1024,
    };
    let kb = KnowledgeBase::new(wide, VOCAB, 176, KbScope::General, 24).quantize();
    let mut rng = seeded_rng(25);
    let mut scratch = EncodeScratch::new();
    let mut digest = FNV_OFFSET;
    for batch in BATCHES {
        // A third of the vocabulary: ids repeat inside every larger batch.
        let tokens: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..VOCAB / 3)).collect();
        let features = kb.encoder.encode_batch_into(&tokens, &mut scratch);
        assert_eq!(features.len(), batch * 32);
        fnv(&mut digest, features);
    }
    assert_eq!(
        digest, EXPECTED_FEATURES_DIGEST,
        "int8 encoder features moved: {digest:#018x}"
    );
}
