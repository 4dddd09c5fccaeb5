//! Pins [`fill_standard_normal`] **bit-identical** to a loop of
//! [`standard_normal`] — values and generator state — which is its
//! definition: the block sampler computes Box–Muller without libm and must
//! fall back wherever its `f64` could round to another `f32` than libm's.
//!
//! Three angles: volume (5·10⁷ seeded samples, where a port that was off by
//! more than its acceptance margin, or a margin that was too narrow for
//! this host's libm, shows up as a mismatch), every slice length around the
//! sampler's block, and hand-built draws at the edges of both
//! transcendentals — `u1` at the ends of (0, 1] and on the `log`
//! normalisation boundary at √½, `u2` on and beside every quadrant and
//! octant boundary of the `cos` argument reduction. `scripts/ci.sh` runs
//! this file a second time for baseline x86-64, where the compiler
//! vectorises the port differently (the arithmetic may not).

use rand::{Rng, RngCore};
use semcom_nn::rng::{fill_standard_normal, seeded_rng, standard_normal};

fn assert_fill_matches_loop<R: RngCore + Clone>(rng: &R, len: usize, what: &str) {
    let (mut bulk, mut single) = (rng.clone(), rng.clone());
    let mut got = vec![f32::NAN; len];
    fill_standard_normal(&mut bulk, &mut got);
    for (i, g) in got.iter().enumerate() {
        let want = standard_normal(&mut single);
        assert_eq!(
            g.to_bits(),
            want.to_bits(),
            "{what}: sample {i} of {len}: {g:e} vs {want:e}"
        );
    }
    assert_eq!(bulk.next_u64(), single.next_u64(), "{what}: draws consumed");
}

#[test]
fn fifty_million_samples_are_bit_identical_to_the_per_sample_loop() {
    // Fill lengths cycle through block multiples, odd and prime sizes.
    const LENS: [usize; 5] = [4096, 1000, 333, 64, 7919];
    let mut got = vec![0.0f32; 7919];
    let mut total = 0usize;
    for seed in 0..5u64 {
        let (mut bulk, mut single) = (seeded_rng(900 + seed), seeded_rng(900 + seed));
        let mut drawn = 0usize;
        for round in 0.. {
            if drawn >= 10_000_000 {
                break;
            }
            let got = &mut got[..LENS[round % LENS.len()]];
            fill_standard_normal(&mut bulk, got);
            for (i, g) in got.iter().enumerate() {
                let want = standard_normal(&mut single);
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "seed {seed}, sample {}: {g:e} vs {want:e}",
                    drawn + i
                );
            }
            drawn += got.len();
        }
        assert_eq!(bulk.next_u64(), single.next_u64(), "seed {seed}: draws");
        total += drawn;
    }
    assert!(total >= 50_000_000);
}

#[test]
fn every_slice_length_around_a_block_draws_exactly_its_samples() {
    // 0, 1, block − 1, block, block + 1, odd and even, for any block ≤ 128.
    let rng = seeded_rng(77);
    for len in 0..=260 {
        assert_fill_matches_loop(&rng, len, "seeded");
    }
}

/// A generator that repeats two words: every sample is Box–Muller of the
/// same `(u1, u2)`.
#[derive(Clone)]
struct TwoValues {
    words: [u64; 2],
    drawn: usize,
}

impl RngCore for TwoValues {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        self.drawn += 1;
        self.words[(self.drawn - 1) % 2]
    }
}

/// The word `gen::<f64>()` turns into `numerator · 2⁻⁵³`.
fn word(numerator: u64) -> u64 {
    assert!(numerator < 1 << 53);
    numerator << 11
}

#[test]
fn edge_draws_of_both_transcendentals_are_bit_identical() {
    const SCALE: f64 = (1u64 << 53) as f64;
    // u1 = 1 − n·2⁻⁵³, exact for u1 in [½, 1]; the smallest u1 is 2⁻⁵³.
    let u1_word = |u1: f64| word(((1.0 - u1) * SCALE) as u64);
    let sqrt_half = std::f64::consts::FRAC_1_SQRT_2;
    // Where fdlibm's log switches from 2⁻¹·(1 + f) to 2⁰·(1 + f).
    let log_split = f64::from_bits(0x3FE6_A09E_0000_0000);
    let mut u1_words = vec![word(0), word(1), word((1 << 53) - 1), u1_word(0.5)];
    for centre in [sqrt_half, log_split] {
        u1_words.extend([centre.next_down(), centre, centre.next_up()].map(u1_word));
    }
    assert_eq!(1.0 - (u1_words[2] >> 11) as f64 / SCALE, 1.0 / SCALE);

    // u2 = n·2⁻⁵³: 0, every eighth of a turn ± 1 ulp, and the largest.
    let mut u2_words = vec![word(0), word((1 << 53) - 1)];
    for eighth in 1..8u64 {
        let n = eighth << 50;
        u2_words.extend([n - 1, n, n + 1].map(word));
    }

    let mut samples = 0;
    for &w1 in &u1_words {
        for &w2 in &u2_words {
            let rng = TwoValues {
                words: [w1, w2],
                drawn: 0,
            };
            let what = format!("u1 word {w1:#x}, u2 word {w2:#x}");
            assert_fill_matches_loop(&rng, 1, &what);
            assert_fill_matches_loop(&rng, 37, &what);
            samples += 1;
        }
    }
    assert_eq!(samples, 10 * 23);

    // The ends are what they are meant to be: ln(1) = 0 keeps the sign
    // of −0·cos, and the smallest u1 is the largest finite sample.
    let mut one = TwoValues {
        words: [word(0), word(1 << 51)],
        drawn: 0,
    };
    let mut z = [f32::NAN; 1];
    fill_standard_normal(&mut one, &mut z);
    assert_eq!(z[0], 0.0);
    let mut tiny = TwoValues {
        words: [word((1 << 53) - 1), word(0)],
        drawn: 0,
    };
    fill_standard_normal(&mut tiny, &mut z);
    assert!((z[0] - 8.571_674).abs() < 1e-5, "{}", z[0]);
    assert_eq!(tiny.gen::<u64>(), word((1 << 53) - 1), "two draws a sample");
}
