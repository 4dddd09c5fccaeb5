use crate::bits::BitVec;
use crate::complex::Complex;
use crate::snr_db_to_noise_sigma;
use rand::{Rng, RngCore};
use semcom_nn::rng::fill_standard_normal;
use serde::{Deserialize, Serialize};

/// A physical channel acting on complex baseband symbols.
///
/// The trait is object-safe; experiments sweep over boxed channels.
pub trait Channel {
    /// Passes symbols through the channel, writing the (equalized) received
    /// symbols into a caller-owned buffer (cleared first), so warm
    /// transmits allocate nothing.
    fn transmit_into(&self, symbols: &[Complex], out: &mut Vec<Complex>, rng: &mut dyn RngCore);

    /// [`Self::transmit_into`] into a fresh buffer.
    fn transmit(&self, symbols: &[Complex], rng: &mut dyn RngCore) -> Vec<Complex> {
        let mut out = Vec::new();
        self.transmit_into(symbols, &mut out, rng);
        out
    }

    /// Transmits real-valued features as I/Q pairs (semantic-codec path).
    ///
    /// Features are packed two-per-symbol, transmitted, and unpacked; an
    /// odd-length tail is padded with zero and trimmed on return. The
    /// feature vector is assumed power-normalized by the semantic encoder
    /// (`E[f²] ≈ 1`), matching the unit-energy digital constellations so
    /// SNR values are comparable across the semantic and traditional legs.
    fn transmit_f32(&self, features: &[f32], rng: &mut dyn RngCore) -> Vec<f32> {
        let mut symbols = Vec::with_capacity(features.len().div_ceil(2));
        for pair in features.chunks(2) {
            let re = pair[0] as f64;
            let im = pair.get(1).copied().unwrap_or(0.0) as f64;
            symbols.push(Complex::new(re, im));
        }
        let received = self.transmit(&symbols, rng);
        let mut out = Vec::with_capacity(features.len());
        for s in received {
            out.push(s.re as f32);
            out.push(s.im as f32);
        }
        out.truncate(features.len());
        out
    }

    /// In-place, scratch-reusing variant of [`Self::transmit_f32`]:
    /// `features` is overwritten with the received values. Bit-identical to
    /// `transmit_f32` (same packing, same per-symbol RNG order) and
    /// allocation-free once the scratch buffers are warm — the semantic
    /// serving pipeline's PHY stage keeps one [`FeatureScratch`] per
    /// worker.
    fn transmit_f32_in_place(
        &self,
        features: &mut [f32],
        scratch: &mut FeatureScratch,
        rng: &mut dyn RngCore,
    ) {
        scratch.symbols.clear();
        scratch.symbols.reserve(features.len().div_ceil(2));
        for pair in features.chunks(2) {
            let re = pair[0] as f64;
            let im = pair.get(1).copied().unwrap_or(0.0) as f64;
            scratch.symbols.push(Complex::new(re, im));
        }
        self.transmit_into(&scratch.symbols, &mut scratch.received, rng);
        for (pair, s) in features.chunks_mut(2).zip(&scratch.received) {
            pair[0] = s.re as f32;
            if let Some(im) = pair.get_mut(1) {
                *im = s.im as f32;
            }
        }
    }
}

/// Reusable buffers for [`Channel::transmit_f32_in_place`]: holds the
/// packed I/Q symbols and the received symbols so warm feature transmits
/// allocate nothing.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    symbols: Vec<Complex>,
    received: Vec<Complex>,
}

impl FeatureScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        FeatureScratch::default()
    }
}

/// A rejected channel configuration: a NaN or infinite SNR would turn
/// into NaN noise sigma and silently poison every downstream sample, so
/// it is caught at construction with a typed error (the
/// `FleetConfig::validate` style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelError {
    /// `snr_db` was NaN or infinite.
    NonFiniteSnr(f64),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::NonFiniteSnr(s) => {
                write!(f, "channel SNR must be finite (got {s} dB)")
            }
        }
    }
}

impl std::error::Error for ChannelError {}

fn validate_snr(snr_db: f64) -> Result<f64, ChannelError> {
    if snr_db.is_finite() {
        Ok(snr_db)
    } else {
        Err(ChannelError::NonFiniteSnr(snr_db))
    }
}

/// The identity channel (no impairment). Useful as a baseline and in tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoiselessChannel;

impl Channel for NoiselessChannel {
    fn transmit_into(&self, symbols: &[Complex], out: &mut Vec<Complex>, _rng: &mut dyn RngCore) {
        out.clear();
        out.extend_from_slice(symbols);
    }
}

/// Additive white Gaussian noise at a fixed SNR (dB), assuming unit-energy
/// input symbols.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AwgnChannel {
    snr_db: f64,
}

impl AwgnChannel {
    /// Creates an AWGN channel at the given SNR in dB, rejecting NaN and
    /// ±inf (which [`snr_db_to_noise_sigma`] would turn into NaN noise).
    pub fn try_new(snr_db: f64) -> Result<Self, ChannelError> {
        validate_snr(snr_db).map(|snr_db| AwgnChannel { snr_db })
    }

    /// Creates an AWGN channel at the given SNR in dB.
    ///
    /// # Panics
    ///
    /// Panics if `snr_db` is NaN or infinite; use [`AwgnChannel::try_new`]
    /// for a typed error.
    pub fn new(snr_db: f64) -> Self {
        Self::try_new(snr_db).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configured SNR in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }
}

/// Normal samples drawn per [`fill_standard_normal`] call by the analog
/// channels, from a buffer on the stack: a whole number of the sampler's
/// blocks, and of the two (AWGN) or four (Rayleigh) samples a symbol takes.
const NOISE_BLOCK: usize = 128;

impl Channel for AwgnChannel {
    fn transmit_into(&self, symbols: &[Complex], out: &mut Vec<Complex>, rng: &mut dyn RngCore) {
        let sigma = snr_db_to_noise_sigma(self.snr_db);
        out.clear();
        out.reserve(symbols.len());
        let mut noise = [0.0f32; NOISE_BLOCK];
        for block in symbols.chunks(NOISE_BLOCK / 2) {
            let noise = &mut noise[..2 * block.len()];
            fill_standard_normal(rng, noise);
            for (&s, z) in block.iter().zip(noise.chunks_exact(2)) {
                out.push(s + Complex::new(sigma * z[0] as f64, sigma * z[1] as f64));
            }
        }
    }

    /// Adds the noise to the features where they lie: feature `2i` is the
    /// real and `2i + 1` the imaginary part of symbol `i`, and a complex
    /// add is componentwise, so no symbol has to be built. An odd tail
    /// still draws the imaginary sample of its zero-padded symbol.
    fn transmit_f32_in_place(
        &self,
        features: &mut [f32],
        _scratch: &mut FeatureScratch,
        rng: &mut dyn RngCore,
    ) {
        let sigma = snr_db_to_noise_sigma(self.snr_db);
        let mut noise = [0.0f32; NOISE_BLOCK];
        for block in features.chunks_mut(NOISE_BLOCK) {
            let noise = &mut noise[..block.len().next_multiple_of(2)];
            fill_standard_normal(rng, noise);
            for (f, &z) in block.iter_mut().zip(noise.iter()) {
                *f = (*f as f64 + sigma * z as f64) as f32;
            }
        }
    }
}

/// Flat Rayleigh fading with AWGN and perfect-CSI equalization.
///
/// Each symbol is multiplied by an independent complex Gaussian fade
/// `h ~ CN(0, 1)`, noise is added, and the receiver divides by `h`
/// (zero-forcing with perfect channel knowledge) — the standard evaluation
/// model in the semantic-communication literature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RayleighChannel {
    snr_db: f64,
}

impl RayleighChannel {
    /// Creates a Rayleigh fading channel at the given average SNR in dB,
    /// rejecting NaN and ±inf (which [`snr_db_to_noise_sigma`] would turn
    /// into NaN noise).
    pub fn try_new(snr_db: f64) -> Result<Self, ChannelError> {
        validate_snr(snr_db).map(|snr_db| RayleighChannel { snr_db })
    }

    /// Creates a Rayleigh fading channel at the given average SNR in dB.
    ///
    /// # Panics
    ///
    /// Panics if `snr_db` is NaN or infinite; use
    /// [`RayleighChannel::try_new`] for a typed error.
    pub fn new(snr_db: f64) -> Self {
        Self::try_new(snr_db).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The configured average SNR in dB.
    pub fn snr_db(&self) -> f64 {
        self.snr_db
    }
}

impl Channel for RayleighChannel {
    fn transmit_into(&self, symbols: &[Complex], out: &mut Vec<Complex>, rng: &mut dyn RngCore) {
        let sigma = snr_db_to_noise_sigma(self.snr_db);
        out.clear();
        out.reserve(symbols.len());
        let mut noise = [0.0f32; NOISE_BLOCK];
        for block in symbols.chunks(NOISE_BLOCK / 4) {
            let noise = &mut noise[..4 * block.len()];
            fill_standard_normal(rng, noise);
            for (&s, z) in block.iter().zip(noise.chunks_exact(4)) {
                let h = Complex::new(
                    z[0] as f64 * std::f64::consts::FRAC_1_SQRT_2,
                    z[1] as f64 * std::f64::consts::FRAC_1_SQRT_2,
                );
                // Deep fades would divide by ~0; floor |h| to keep the
                // equalized noise finite (receiver would declare an outage).
                let h = if h.norm_sq() < 1e-6 {
                    Complex::new(1e-3, 0.0)
                } else {
                    h
                };
                let n = Complex::new(sigma * z[2] as f64, sigma * z[3] as f64);
                out.push((h * s + n) / h);
            }
        }
    }
}

/// A binary symmetric channel flipping each **bit** independently.
///
/// Operates on bits rather than symbols; used for abstract link models in
/// the edge simulator and for property tests of the channel codes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinarySymmetricChannel {
    flip_prob: f64,
}

impl BinarySymmetricChannel {
    /// Creates a BSC with the given crossover probability.
    ///
    /// # Panics
    ///
    /// Panics if `flip_prob` is not in `[0, 1]`.
    pub fn new(flip_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&flip_prob),
            "flip probability must be in [0, 1]"
        );
        BinarySymmetricChannel { flip_prob }
    }

    /// The crossover probability.
    pub fn flip_prob(&self) -> f64 {
        self.flip_prob
    }

    /// Copies `bits` into `out` and flips each with the crossover
    /// probability: one uniform draw per bit, in bit order.
    pub fn transmit_bits_into(&self, bits: &BitVec, out: &mut BitVec, rng: &mut dyn RngCore) {
        out.copy_from(bits);
        for i in 0..out.len() {
            if rng.gen::<f64>() < self.flip_prob {
                out.set(i, !out.get(i));
            }
        }
    }
}

/// An erasure channel dropping each symbol independently; erased symbols
/// are returned as [`Complex::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErasureChannel {
    erasure_prob: f64,
}

impl ErasureChannel {
    /// Creates an erasure channel with the given drop probability.
    ///
    /// # Panics
    ///
    /// Panics if `erasure_prob` is not in `[0, 1]`.
    pub fn new(erasure_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&erasure_prob),
            "erasure probability must be in [0, 1]"
        );
        ErasureChannel { erasure_prob }
    }

    /// The erasure probability.
    pub fn erasure_prob(&self) -> f64 {
        self.erasure_prob
    }
}

impl Channel for ErasureChannel {
    fn transmit_into(&self, symbols: &[Complex], out: &mut Vec<Complex>, rng: &mut dyn RngCore) {
        out.clear();
        out.reserve(symbols.len());
        for &s in symbols {
            out.push(if rng.gen::<f64>() < self.erasure_prob {
                Complex::ZERO
            } else {
                s
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Modulation;
    use semcom_nn::rng::seeded_rng;

    fn bpsk(bits: &BitVec) -> Vec<Complex> {
        let mut symbols = Vec::new();
        Modulation::Bpsk.modulate_into(bits, &mut symbols);
        symbols
    }

    fn bpsk_decide(symbols: &[Complex]) -> BitVec {
        let mut bits = BitVec::new();
        Modulation::Bpsk.demodulate_into(symbols, &mut bits);
        bits
    }

    #[test]
    fn noiseless_is_identity() {
        let mut rng = seeded_rng(0);
        let s = vec![Complex::new(1.0, -1.0); 8];
        assert_eq!(NoiselessChannel.transmit(&s, &mut rng), s);
    }

    #[test]
    fn awgn_noise_power_matches_snr() {
        let mut rng = seeded_rng(1);
        let n = 40_000;
        let s = vec![Complex::new(1.0, 0.0); n];
        let ch = AwgnChannel::new(10.0);
        let out = ch.transmit(&s, &mut rng);
        let noise_power: f64 =
            out.iter().zip(&s).map(|(r, t)| r.dist_sq(*t)).sum::<f64>() / n as f64;
        // SNR 10 dB -> noise power 0.1 for unit-energy symbols.
        assert!((noise_power - 0.1).abs() < 0.01, "{noise_power}");
    }

    #[test]
    fn bpsk_over_awgn_ber_is_reasonable() {
        // Uncoded BPSK at 6 dB ≈ 2.4e-3 theoretical BER; accept an
        // order-of-magnitude window given finite samples.
        let mut rng = seeded_rng(2);
        let bits: BitVec = (0..60_000).map(|i| i % 2 == 1).collect();
        let rx = AwgnChannel::new(6.0).transmit(&bpsk(&bits), &mut rng);
        let ber = bits.hamming_distance(&bpsk_decide(&rx)) as f64 / bits.len() as f64;
        assert!(ber > 1e-4 && ber < 1e-2, "ber {ber}");
    }

    #[test]
    fn rayleigh_is_worse_than_awgn_at_same_snr() {
        let mut rng = seeded_rng(3);
        let bits: BitVec = (0..40_000).map(|i| (i * 13) % 2 == 1).collect();
        let tx = bpsk(&bits);
        let ber =
            |rx: Vec<Complex>| bits.hamming_distance(&bpsk_decide(&rx)) as f64 / bits.len() as f64;
        let awgn = ber(AwgnChannel::new(8.0).transmit(&tx, &mut rng));
        let ray = ber(RayleighChannel::new(8.0).transmit(&tx, &mut rng));
        assert!(ray > awgn, "rayleigh {ray} vs awgn {awgn}");
    }

    #[test]
    fn bsc_flip_rate_matches_probability() {
        let mut rng = seeded_rng(4);
        let bits: BitVec = std::iter::repeat_n(false, 50_000).collect();
        let mut out = BitVec::new();
        BinarySymmetricChannel::new(0.1).transmit_bits_into(&bits, &mut out, &mut rng);
        let flips = out.count_ones() as f64 / bits.len() as f64;
        assert!((flips - 0.1).abs() < 0.01, "{flips}");
    }

    #[test]
    fn bsc_zero_is_identity() {
        let mut rng = seeded_rng(5);
        let bits = BitVec::from_u8_bits(&[1, 0, 1, 1, 0]);
        let mut out = BitVec::new();
        BinarySymmetricChannel::new(0.0).transmit_bits_into(&bits, &mut out, &mut rng);
        assert_eq!(out, bits);
    }

    #[test]
    fn erasure_channel_zeroes_fraction() {
        let mut rng = seeded_rng(6);
        let s = vec![Complex::new(1.0, 1.0); 20_000];
        let out = ErasureChannel::new(0.25).transmit(&s, &mut rng);
        let erased = out.iter().filter(|c| c.norm_sq() == 0.0).count() as f64 / s.len() as f64;
        assert!((erased - 0.25).abs() < 0.02, "{erased}");
    }

    #[test]
    fn transmit_f32_roundtrips_noiselessly() {
        let mut rng = seeded_rng(7);
        let feats = vec![0.5f32, -0.25, 1.5, 0.0, -2.0]; // odd length
        let out = NoiselessChannel.transmit_f32(&feats, &mut rng);
        assert_eq!(out, feats);
    }

    #[test]
    fn transmit_f32_awgn_perturbs_but_preserves_scale() {
        let mut rng = seeded_rng(8);
        let feats = vec![1.0f32; 10_000];
        let out = AwgnChannel::new(15.0).transmit_f32(&feats, &mut rng);
        assert_eq!(out.len(), feats.len());
        let mse: f64 = out
            .iter()
            .zip(&feats)
            .map(|(a, b)| ((a - b) as f64).powi(2))
            .sum::<f64>()
            / feats.len() as f64;
        assert!(mse > 0.0 && mse < 0.1, "mse {mse}");
    }

    #[test]
    #[should_panic(expected = "flip probability")]
    fn bsc_rejects_invalid_probability() {
        BinarySymmetricChannel::new(1.5);
    }

    /// Regression: `new` used to accept NaN/±inf SNR, which
    /// `snr_db_to_noise_sigma` turned into NaN noise poisoning every
    /// downstream sample. Now rejected at construction.
    #[test]
    fn non_finite_snr_is_rejected_at_construction() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // NaN != NaN: pin the variant via the rendered message.
            let awgn = AwgnChannel::try_new(bad).expect_err("awgn must reject");
            assert!(awgn.to_string().contains("must be finite"), "{awgn}");
            let ray = RayleighChannel::try_new(bad).expect_err("rayleigh must reject");
            assert!(ray.to_string().contains("must be finite"), "{ray}");
        }
        // Finite SNRs still construct and produce finite samples.
        let ch = AwgnChannel::try_new(-10.0).unwrap();
        let mut rng = seeded_rng(5);
        let out = ch.transmit_f32(&[1.0, -1.0, 0.5], &mut rng);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn awgn_new_panics_on_nan_snr() {
        AwgnChannel::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rayleigh_new_panics_on_infinite_snr() {
        RayleighChannel::new(f64::NEG_INFINITY);
    }

    #[test]
    fn transmit_into_matches_transmit_bit_for_bit() {
        // Same seed through both paths must reproduce the exact symbol
        // stream, and a dirty output buffer must be cleared first.
        let symbols: Vec<Complex> = (0..257)
            .map(|i| Complex::new((i % 5) as f64 - 2.0, (i % 3) as f64 - 1.0))
            .collect();
        let channels: Vec<Box<dyn Channel>> = vec![
            Box::new(NoiselessChannel),
            Box::new(AwgnChannel::new(4.0)),
            Box::new(RayleighChannel::new(4.0)),
            Box::new(ErasureChannel::new(0.2)),
        ];
        for ch in &channels {
            let fresh = ch.transmit(&symbols, &mut seeded_rng(99));
            let mut buffered = vec![Complex::ZERO; 3]; // must be cleared
            ch.transmit_into(&symbols, &mut buffered, &mut seeded_rng(99));
            assert_eq!(buffered.len(), fresh.len());
            for (a, b) in buffered.iter().zip(&fresh) {
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
    }

    #[test]
    fn transmit_f32_in_place_matches_transmit_f32_bit_for_bit() {
        let feats: Vec<f32> = (0..513).map(|i| (i as f32) * 0.013 - 3.0).collect();
        let channels: Vec<Box<dyn Channel>> = vec![
            Box::new(NoiselessChannel),
            Box::new(AwgnChannel::new(7.0)),
            Box::new(RayleighChannel::new(7.0)),
            Box::new(ErasureChannel::new(0.15)),
        ];
        let mut scratch = FeatureScratch::new();
        for ch in &channels {
            for len in [0usize, 1, 2, 5, 513] {
                let fresh = ch.transmit_f32(&feats[..len], &mut seeded_rng(41));
                let mut in_place = feats[..len].to_vec();
                ch.transmit_f32_in_place(&mut in_place, &mut scratch, &mut seeded_rng(41));
                assert_eq!(in_place.len(), fresh.len());
                for (a, b) in in_place.iter().zip(&fresh) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn bsc_packed_matches_legacy_bit_for_bit() {
        // The per-bit recipe: one uniform draw per bit, in bit order.
        let bits: Vec<u8> = (0..300).map(|i| ((i * 7) % 2) as u8).collect();
        let bsc = BinarySymmetricChannel::new(0.3);
        let mut rng = seeded_rng(12);
        let legacy: Vec<u8> = bits
            .iter()
            .map(|&b| b ^ u8::from(rng.gen::<f64>() < bsc.flip_prob()))
            .collect();
        let mut out = BitVec::new();
        bsc.transmit_bits_into(&BitVec::from_u8_bits(&bits), &mut out, &mut seeded_rng(12));
        assert_eq!(out.to_u8_bits(), legacy);
    }
}
