//! Deterministic random-number helpers.
//!
//! Every stochastic component in the `semcom` stack takes an explicit `u64`
//! seed so that experiments and tests are reproducible run-to-run. This
//! module centralizes RNG construction and provides Gaussian sampling via
//! the Box–Muller transform (avoiding an extra `rand_distr` dependency).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Creates a deterministic [`StdRng`] from a `u64` seed.
///
/// # Example
///
/// ```
/// use rand::Rng;
/// let mut a = semcom_nn::rng::seeded_rng(7);
/// let mut b = semcom_nn::rng::seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives an independent child seed from a parent seed and a stream index.
///
/// Uses the SplitMix64 finalizer so that nearby `(seed, stream)` pairs yield
/// uncorrelated child seeds.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a standard normal (mean 0, variance 1) value via Box–Muller.
///
/// This is the definition of a sample: two `f64` draws, libm `ln` and
/// `cos`, one rounding to `f32`. [`fill_standard_normal`] produces the same
/// bits in bulk and falls back to this arithmetic where it cannot prove so.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    box_muller(u1, u2)
}

/// Box–Muller from the two uniforms of one sample, through libm.
#[inline]
fn box_muller(u1: f64, u2: f64) -> f32 {
    let r = (-2.0 * u1.ln()).sqrt();
    (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Fills `out` with standard normal samples: bit for bit the values, and
/// the generator state, that `out.len()` calls of [`standard_normal`]
/// leave behind.
///
/// The uniforms are drawn a block ahead, in the per-sample order, and the
/// block goes through [`box_muller_port`], a branch-free transcription of
/// the same formula that the compiler vectorises. The port's `f64` result
/// is not libm's to the last bit, so a lane is kept only where that cannot
/// matter (see the port); the few others, about two per million, are
/// recomputed as [`standard_normal`] computes them.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) {
    fill_counting_fallbacks(rng, out);
}

/// Samples per block of [`fill_standard_normal`]: four AVX-512 (eight
/// AVX2) `f64` vectors per stage, small enough that the padding lanes of a
/// message-sized fill stay cheap.
const NORMAL_BLOCK: usize = 32;

/// [`fill_standard_normal`], returning how many samples fell back to libm.
fn fill_counting_fallbacks<R: Rng + ?Sized>(rng: &mut R, out: &mut [f32]) -> usize {
    let mut fallbacks = 0;
    for chunk in out.chunks_mut(NORMAL_BLOCK) {
        // Padding lanes compute a harmless (1, 0) and are never read.
        let (mut u1, mut u2) = ([1.0f64; NORMAL_BLOCK], [0.0f64; NORMAL_BLOCK]);
        for (a, b) in u1.iter_mut().zip(&mut u2).take(chunk.len()) {
            *a = 1.0 - rng.gen::<f64>();
            *b = rng.gen();
        }
        let mut z = [0.0f32; NORMAL_BLOCK];
        for i in 0..NORMAL_BLOCK {
            z[i] = box_muller_port(u1[i], u2[i]);
        }
        for (i, o) in chunk.iter_mut().enumerate() {
            *o = z[i];
            if z[i].is_nan() {
                *o = box_muller(u1[i], u2[i]);
                fallbacks += 1;
            }
        }
    }
    fallbacks
}

/// [`box_muller`] without libm and without a branch, or NaN where its
/// `f32` could differ from [`box_muller`]'s.
///
/// `ln` and `cos` are the fdlibm algorithms (as in musl and FreeBSD),
/// restricted to the arguments Box–Muller makes: `u1` a positive normal
/// number in (0, 1], and `2π·u2` in [0, 2π), for which one Cody–Waite
/// step by π/2 is the whole argument reduction. Plain `*`, `+`, `/` and
/// `sqrt` only — never fused — so the bits do not depend on the target's
/// instruction set.
///
/// Exactness: fdlibm's `log`, `sin` and `cos` kernels are within 1 ulp of
/// the true value, and so is any libm worth the name; the two `f64`
/// products `r·cos` therefore agree to a few parts in 2⁵². A lane is kept
/// only if every `f64` within 2⁻⁴⁵ (relative, ≈ 200 ulp) of the port's
/// value rounds to the same `f32`, so libm's does. The one place where "a
/// few ulp" fails is next to a zero of the cosine, where the single
/// reduction step loses relative accuracy that libm's longer one keeps:
/// lanes whose reduced argument is below 10⁻⁶ are dropped regardless.
#[inline(always)]
fn box_muller_port(u1: f64, u2: f64) -> f32 {
    const MARGIN: f64 = 1.0 / (1u64 << 45) as f64;
    let (cos, reduced) = cos_port(2.0 * std::f64::consts::PI * u2);
    let d = (-2.0 * ln_port(u1)).sqrt() * cos;
    let z = d as f32;
    let safe = (reduced.abs() > 1e-6)
        & ((d * (1.0 + MARGIN)) as f32 == z)
        & ((d * (1.0 - MARGIN)) as f32 == z);
    if safe {
        z
    } else {
        f32::NAN
    }
}

/// fdlibm `log(x)` for a positive normal `x`: `x = 2ᵏ·(1 + f)` with
/// `1 + f` in [√½, √2), `log(1 + f)` from the series in `s = f / (2 + f)`.
#[inline(always)]
fn ln_port(x: f64) -> f64 {
    const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
    const LG1: f64 = f64::from_bits(0x3FE5_5555_5555_5593);
    const LG2: f64 = f64::from_bits(0x3FD9_9999_9997_FA04);
    const LG3: f64 = f64::from_bits(0x3FD2_4924_9422_9359);
    const LG4: f64 = f64::from_bits(0x3FCC_71C5_1D8E_78AF);
    const LG5: f64 = f64::from_bits(0x3FC7_4664_96CB_03DE);
    const LG6: f64 = f64::from_bits(0x3FC3_9A09_D078_C69F);
    const LG7: f64 = f64::from_bits(0x3FC2_F112_DF3E_5244);
    // High word of √½; adding the distance from it to 1.0 carries into the
    // exponent exactly when the mantissa is at or above √2's.
    const SQRT_HALF_HI: u64 = 0x3FE6_A09E << 32;
    const TWO52: u64 = 0x4330_0000_0000_0000;

    let t = x.to_bits() + ((0x3FF0_0000 << 32) - SQRT_HALF_HI);
    // The biased exponent as an `f64`, by way of 2⁵² + n: integer-to-float
    // conversion of 64-bit lanes needs AVX-512, this is an `or` and a `-`.
    let k = f64::from_bits(TWO52 | (t >> 52)) - (4_503_599_627_370_496.0 + 1023.0);
    let f = f64::from_bits((t & 0x000F_FFFF_FFFF_FFFF) + SQRT_HALF_HI) - 1.0;
    let hfsq = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// fdlibm `cos(x)` for `x` in [0, 2π], with the reduced argument `y` of
/// `x = q·π/2 + y`: `q` is read off the low mantissa bits of
/// `x·2/π + 1.5·2⁵²`, then `±__kernel_cos(y)` or `±__kernel_sin(y)` by
/// quadrant, both evaluated and one selected.
#[inline(always)]
fn cos_port(x: f64) -> (f64, f64) {
    const TO_INT: f64 = 6_755_399_441_055_744.0;
    const INV_PIO2: f64 = f64::from_bits(0x3FE4_5F30_6DC9_C883);
    const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
    const PIO2_1T: f64 = f64::from_bits(0x3DD0_B461_1A62_6331);
    const S1: f64 = f64::from_bits(0xBFC5_5555_5555_5549);
    const S2: f64 = f64::from_bits(0x3F81_1111_1110_F8A6);
    const S3: f64 = f64::from_bits(0xBF2A_01A0_19C1_61D5);
    const S4: f64 = f64::from_bits(0x3EC7_1DE3_57B1_FE7D);
    const S5: f64 = f64::from_bits(0xBE5A_E5E6_8A2B_9CEB);
    const S6: f64 = f64::from_bits(0x3DE5_D93A_5ACF_D57C);
    const C1: f64 = f64::from_bits(0x3FA5_5555_5555_554C);
    const C2: f64 = f64::from_bits(0xBF56_C16C_16C1_5177);
    const C3: f64 = f64::from_bits(0x3EFA_01A0_19CB_1590);
    const C4: f64 = f64::from_bits(0xBE92_7E4F_809C_52AD);
    const C5: f64 = f64::from_bits(0x3E21_EE9E_BDB4_B1C4);
    const C6: f64 = f64::from_bits(0xBDA8_FAE9_BE88_38D4);

    let shifted = x * INV_PIO2 + TO_INT;
    let q = shifted.to_bits();
    let quarter_turns = shifted - TO_INT;
    let r = x - quarter_turns * PIO2_1;
    let w = quarter_turns * PIO2_1T;
    let y = r - w;
    let y_tail = (r - y) - w;

    let z = y * y;
    let w = z * z;
    let v = z * y;
    let r = S2 + z * (S3 + z * S4) + z * w * (S5 + z * S6);
    let sin = y - ((z * (0.5 * y_tail - v * r) - y_tail) - v * S1);
    let r = z * (C1 + z * (C2 + z * C3)) + (w * w) * (C4 + z * (C5 + z * C6));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos = w + (((1.0 - w) - hz) + (z * r - y * y_tail));

    // Quadrants 0..=3 are cos, −sin, −cos, sin (4 is 0 again).
    let magnitude = if q & 1 == 0 { cos } else { sin };
    let sign = ((q + 1) & 2) << 62;
    (f64::from_bits(magnitude.to_bits() ^ sign), y)
}

/// A Zipf(α) sampler over `{0, 1, …, n-1}` (rank 0 is the most popular).
///
/// Popularity-skewed sampling appears throughout the reproduction: concept
/// frequency inside a domain corpus, and domain/model request popularity in
/// the edge cache workloads (experiment F4).
///
/// # Example
///
/// ```
/// use semcom_nn::rng::{Zipf, seeded_rng};
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = seeded_rng(1);
/// let x = zipf.sample(&mut rng);
/// assert!(x < 100);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `alpha >= 0`.
    ///
    /// `alpha = 0` is uniform; larger `alpha` is more skewed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `alpha` is negative or non-finite.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(n > 0, "zipf over empty support");
        assert!(alpha >= 0.0 && alpha.is_finite(), "invalid zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the support is empty (never true: `new` rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability of rank `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    /// Draws one rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        let va: Vec<u32> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u32> = (0..8).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn derive_seed_differs_per_stream() {
        let s0 = derive_seed(42, 0);
        let s1 = derive_seed(42, 1);
        assert_ne!(s0, s1);
        assert_eq!(s0, derive_seed(42, 0));
    }

    #[test]
    fn standard_normal_has_expected_moments() {
        let mut rng = seeded_rng(9);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// The fallback exists (some lanes do sit on an `f32` rounding boundary
    /// or a zero of the cosine) and is rare: about 2⁻²⁰ of samples for the
    /// boundaries plus 1.3·10⁻⁶ for the reduced arguments. Equality with
    /// [`standard_normal`] is `tests/noise_equivalence.rs`.
    #[test]
    fn block_sampler_falls_back_to_libm_for_a_few_samples_per_million() {
        let mut rng = seeded_rng(11);
        let mut samples = vec![0.0f32; 1 << 16];
        let (mut fallbacks, mut total) = (0, 0);
        for _ in 0..64 {
            fallbacks += fill_counting_fallbacks(&mut rng, &mut samples);
            total += samples.len();
            assert!(samples.iter().all(|z| z.is_finite()));
        }
        assert!(fallbacks > 0, "no fallback in {total} samples");
        assert!(
            (fallbacks as f64) < 1e-4 * total as f64,
            "{fallbacks} fallbacks in {total} samples"
        );
    }

    #[test]
    fn standard_normal_is_finite() {
        let mut rng = seeded_rng(1);
        for _ in 0..10_000 {
            assert!(standard_normal(&mut rng).is_finite());
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one_and_is_monotone() {
        let z = Zipf::new(50, 0.9);
        let total: f64 = (0..50).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        for k in 1..50 {
            assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12);
        }
    }

    #[test]
    fn zipf_alpha_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-9);
        }
    }

    #[test]
    fn zipf_empirical_frequencies_match_pmf() {
        let z = Zipf::new(10, 1.2);
        let mut rng = seeded_rng(3);
        let mut counts = [0usize; 10];
        let n = 50_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.01,
                "rank {k}: emp {emp} pmf {}",
                z.pmf(k)
            );
        }
    }

    #[test]
    #[should_panic(expected = "zipf over empty support")]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }
}
