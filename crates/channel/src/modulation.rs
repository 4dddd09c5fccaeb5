use crate::bits::BitVec;
use crate::complex::Complex;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A digital modulation scheme with Gray mapping and unit average symbol
/// energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Modulation {
    /// Binary phase-shift keying: 1 bit/symbol.
    Bpsk,
    /// Quadrature phase-shift keying: 2 bits/symbol.
    Qpsk,
    /// 16-ary quadrature amplitude modulation: 4 bits/symbol.
    Qam16,
}

/// Gray-coded 4-PAM levels scaled for unit average 16-QAM energy
/// (`E[|x|²] = 1` requires dividing ±1, ±3 by √10).
const PAM4: [f64; 4] = [-3.0, -1.0, 1.0, 3.0];
const QAM16_SCALE: f64 = 0.316227766016838; // 1/sqrt(10)

/// Symbol tables indexed by the MSB-first bit group a symbol carries: one
/// load per symbol. `tests/properties.rs` checks every entry against a
/// naive Gray mapper.
const BPSK_LUT: [Complex; 2] = [Complex { re: 1.0, im: 0.0 }, Complex { re: -1.0, im: 0.0 }];

const QPSK_LUT: [Complex; 4] = {
    const S: f64 = std::f64::consts::FRAC_1_SQRT_2;
    let mut t = [Complex { re: 0.0, im: 0.0 }; 4];
    let mut i = 0;
    while i < 4 {
        t[i] = Complex {
            re: if i >> 1 == 0 { S } else { -S },
            im: if i & 1 == 0 { S } else { -S },
        };
        i += 1;
    }
    t
};

const QAM16_LUT: [Complex; 16] = {
    let mut t = [Complex { re: 0.0, im: 0.0 }; 16];
    let mut i = 0;
    while i < 16 {
        let b = [
            ((i >> 3) & 1) as u8,
            ((i >> 2) & 1) as u8,
            ((i >> 1) & 1) as u8,
            (i & 1) as u8,
        ];
        t[i] = Complex {
            re: PAM4[gray_to_level(b[0], b[1])] * QAM16_SCALE,
            im: PAM4[gray_to_level(b[2], b[3])] * QAM16_SCALE,
        };
        i += 1;
    }
    t
};

impl Modulation {
    /// Bits carried per channel symbol.
    pub fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Bpsk => 1,
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
        }
    }

    /// Short lowercase name, stable for metric labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            Modulation::Bpsk => "bpsk",
            Modulation::Qpsk => "qpsk",
            Modulation::Qam16 => "qam16",
        }
    }

    /// Maps bits to symbols in a caller-owned buffer (cleared first). The
    /// bit string is zero-padded to a multiple of [`Self::bits_per_symbol`].
    ///
    /// One table load per symbol, with bit groups extracted a whole word
    /// (64 bits) at a time, and no per-call allocation once `out` has
    /// capacity.
    pub fn modulate_into(self, bits: &BitVec, out: &mut Vec<Complex>) {
        out.clear();
        let bps = self.bits_per_symbol();
        let n = bits.len();
        out.reserve(n.div_ceil(bps));
        let lut: &[Complex] = match self {
            Modulation::Bpsk => &BPSK_LUT,
            Modulation::Qpsk => &QPSK_LUT,
            Modulation::Qam16 => &QAM16_LUT,
        };
        let per_word = 64 / bps;
        let mask = (1usize << bps) - 1;
        let mut pos = 0;
        while pos + 64 <= n {
            let w = bits.get_bits(pos, 64);
            for i in 0..per_word {
                out.push(lut[(w >> (64 - bps * (i + 1))) as usize & mask]);
            }
            pos += 64;
        }
        while pos + bps <= n {
            out.push(lut[bits.get_bits(pos, bps) as usize]);
            pos += bps;
        }
        if pos < n {
            let m = n - pos;
            out.push(lut[(bits.get_bits(pos, m) << (bps - m)) as usize]);
        }
    }

    /// Hard-decision (minimum-distance) demodulation into a caller-owned
    /// buffer (cleared first): `symbols.len() * bits_per_symbol` bits; if
    /// the bit string was padded during modulation, the caller truncates.
    ///
    /// Per-symbol decisions accumulate in a 64-bit word that is appended in
    /// one shot, and 16-QAM quantizes with [`pam_level`]. For BPSK and QPSK
    /// a zero coordinate reads as bit 0 and a NaN one as bit 1; 16-QAM keeps
    /// the lower PAM level on an exact tie (zero included) and maps NaN to
    /// the lowest level.
    // `!(x >= 0.0)` (rather than `x < 0.0`) is what sends NaN to bit 1.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn demodulate_into(self, symbols: &[Complex], out: &mut BitVec) {
        out.clear();
        match self {
            Modulation::Bpsk => {
                let mut chunks = symbols.chunks_exact(64);
                for chunk in &mut chunks {
                    let mut acc = 0u64;
                    for &s in chunk {
                        acc = acc << 1 | !(s.re >= 0.0) as u64;
                    }
                    out.push_bits(acc, 64);
                }
                for &s in chunks.remainder() {
                    out.push(!(s.re >= 0.0));
                }
            }
            Modulation::Qpsk => {
                let mut chunks = symbols.chunks_exact(32);
                for chunk in &mut chunks {
                    let mut acc = 0u64;
                    for &s in chunk {
                        acc = acc << 2 | (!(s.re >= 0.0) as u64) << 1 | !(s.im >= 0.0) as u64;
                    }
                    out.push_bits(acc, 64);
                }
                for &s in chunks.remainder() {
                    out.push_bits((!(s.re >= 0.0) as u64) << 1 | !(s.im >= 0.0) as u64, 2);
                }
            }
            Modulation::Qam16 => {
                let t = qam16_thresholds();
                let group = |s: Complex| {
                    LEVEL_GRAY[pam_level(s.re, t)] << 2 | LEVEL_GRAY[pam_level(s.im, t)]
                };
                let mut chunks = symbols.chunks_exact(16);
                for chunk in &mut chunks {
                    let mut acc = 0u64;
                    for &s in chunk {
                        acc = acc << 4 | group(s);
                    }
                    out.push_bits(acc, 64);
                }
                for &s in chunks.remainder() {
                    out.push_bits(group(s), 4);
                }
            }
        }
    }

    /// All modulations, in increasing spectral efficiency.
    pub const ALL: [Modulation; 3] = [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16];
}

/// Gray bits (b0 b1) -> PAM4 level index. Mapping: 00→0(-3), 01→1(-1),
/// 11→2(+1), 10→3(+3) — adjacent levels differ in one bit.
const fn gray_to_level(b0: u8, b1: u8) -> usize {
    match (b0, b1) {
        (0, 0) => 0,
        (0, 1) => 1,
        (1, 1) => 2,
        (1, 0) => 3,
        _ => unreachable!(),
    }
}

fn nearest_pam(x: f64) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (i, &l) in PAM4.iter().enumerate() {
        let d = (x - l).abs();
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Division-free equivalent of `nearest_pam(x / QAM16_SCALE)` on a raw
/// symbol coordinate.
///
/// The PAM4 decision thresholds after the scaling division are -2, 0, +2,
/// and the linear search's strict `<` keeps the *lower* level on an exact
/// tie, so `q > t` (not `>=`) per threshold reproduces it exactly for any
/// quotient `q` with `|q| ≤ 2^51` (beyond that, `q - level` rounds all four
/// distances equal and the search degenerates to level 0). Each strict
/// compare on the quotient is then pulled back through the division:
/// rounded division by a positive constant is monotone in the numerator, so
/// `{x : x/S > t}` is upward-closed over the floats and `q > t ⟺ x ≥ T_t`
/// with `T_t` the set's minimum, found once by [`qam16_thresholds`]. The
/// zero threshold needs no bisection: a positive/positive quotient can
/// never round to zero here, so `q > 0 ⟺ x > 0` (signed zeros included).
///
/// Inputs with `|x| > 7e14` (quotient magnitude near/above `2^51`, ±∞) and
/// NaN fail the guard and defer to the reference form. Tie, boundary-ULP,
/// NaN, ∞, and huge-input equality is asserted in tests.
#[inline]
fn pam_level(x: f64, (t_neg, t_pos): (f64, f64)) -> usize {
    // 7e14 / QAM16_SCALE ≈ 2.21e15 < 2^51, so the quotient stays in the
    // range where the threshold form is exact.
    if x.abs() <= 7.0e14 {
        (x >= t_neg) as usize + (x > 0.0) as usize + (x >= t_pos) as usize
    } else {
        nearest_pam(x / QAM16_SCALE)
    }
}

/// `(T_-2, T_+2)` where `T_t = min { x : x / QAM16_SCALE > t }` — the PAM4
/// decision thresholds pulled back through the 16-QAM scaling division (see
/// [`pam_level`]). Bisected once and cached.
fn qam16_thresholds() -> (f64, f64) {
    static THRESHOLDS: OnceLock<(f64, f64)> = OnceLock::new();
    *THRESHOLDS.get_or_init(|| {
        let t_pos = min_positive_where(|x| x / QAM16_SCALE > 2.0);
        // Negative side, bisected on the magnitude: the smallest z with
        // -z/S ≤ -2 is the first *failing* x going downward, so the
        // predecessor of z, negated, is the smallest x with x/S > -2.
        let z = min_positive_where(|z| -z / QAM16_SCALE <= -2.0);
        let t_neg = -f64::from_bits(z.to_bits() - 1);
        (t_neg, t_pos)
    })
}

/// Smallest positive `f64` satisfying `pred`, which must be monotone
/// false→true over `[0, 10]`. Bisects on the bit pattern, which orders
/// non-negative floats.
fn min_positive_where(pred: impl Fn(f64) -> bool) -> f64 {
    debug_assert!(!pred(0.0) && pred(10.0));
    let (mut lo, mut hi) = (0u64, 10f64.to_bits());
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if pred(f64::from_bits(mid)) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    f64::from_bits(hi)
}

/// Gray 2-bit pattern per PAM level (MSB-first), the inverse of
/// [`gray_to_level`].
const LEVEL_GRAY: [u64; 4] = [0b00, 0b01, 0b11, 0b10];

#[cfg(test)]
mod tests {
    use super::*;

    fn modulate(m: Modulation, bits: &[u8]) -> Vec<Complex> {
        let mut out = Vec::new();
        m.modulate_into(&BitVec::from_u8_bits(bits), &mut out);
        out
    }

    fn demodulate(m: Modulation, symbols: &[Complex]) -> Vec<u8> {
        let mut out = BitVec::new();
        m.demodulate_into(symbols, &mut out);
        out.to_u8_bits()
    }

    /// Per-bit reference mapper for one symbol's MSB-first bit group.
    fn reference_symbol(m: Modulation, b: &[u8]) -> Complex {
        match m {
            Modulation::Bpsk => Complex::new(if b[0] == 0 { 1.0 } else { -1.0 }, 0.0),
            Modulation::Qpsk => {
                let s = std::f64::consts::FRAC_1_SQRT_2;
                Complex::new(
                    if b[0] == 0 { s } else { -s },
                    if b[1] == 0 { s } else { -s },
                )
            }
            Modulation::Qam16 => Complex::new(
                PAM4[gray_to_level(b[0], b[1])] * QAM16_SCALE,
                PAM4[gray_to_level(b[2], b[3])] * QAM16_SCALE,
            ),
        }
    }

    /// Per-bit reference modulator: zero-pads the tail to a whole symbol.
    fn reference_modulate(m: Modulation, bits: &[u8]) -> Vec<Complex> {
        let bps = m.bits_per_symbol();
        bits.chunks(bps)
            .map(|chunk| {
                let mut padded = [0u8; 4];
                padded[..chunk.len()].copy_from_slice(chunk);
                reference_symbol(m, &padded[..bps])
            })
            .collect()
    }

    /// Per-symbol reference demodulator: sign decisions, and the
    /// divide-then-search PAM quantizer for 16-QAM.
    fn reference_demodulate(m: Modulation, symbols: &[Complex]) -> Vec<u8> {
        let sign = |x: f64| if x >= 0.0 { 0 } else { 1 };
        let gray = |x: f64| {
            let g = LEVEL_GRAY[nearest_pam(x / QAM16_SCALE)];
            [(g >> 1) as u8, (g & 1) as u8]
        };
        symbols
            .iter()
            .flat_map(|s| match m {
                Modulation::Bpsk => vec![sign(s.re)],
                Modulation::Qpsk => vec![sign(s.re), sign(s.im)],
                Modulation::Qam16 => [gray(s.re), gray(s.im)].concat(),
            })
            .collect()
    }

    #[test]
    fn noiseless_roundtrip_all_modulations() {
        let bits: Vec<u8> = (0..64).map(|i| ((i * 7) % 3 == 0) as u8).collect();
        for m in Modulation::ALL {
            let mut out = demodulate(m, &modulate(m, &bits));
            out.truncate(bits.len());
            assert_eq!(out, bits, "{m:?}");
        }
    }

    #[test]
    fn unit_average_energy() {
        // Exhaustive over all symbol patterns per modulation.
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            let n = 1usize << bps;
            let mut total = 0.0;
            for pattern in 0..n {
                let bits: Vec<u8> = (0..bps)
                    .map(|i| ((pattern >> (bps - 1 - i)) & 1) as u8)
                    .collect();
                total += modulate(m, &bits)[0].norm_sq();
            }
            let avg = total / n as f64;
            assert!((avg - 1.0).abs() < 1e-9, "{m:?} energy {avg}");
        }
    }

    #[test]
    fn qam16_gray_neighbours_differ_by_one_bit() {
        // Adjacent PAM levels must differ in exactly one bit, and the
        // demodulator's table must invert the modulator's mapping.
        for lev in 0..3usize {
            assert_eq!((LEVEL_GRAY[lev] ^ LEVEL_GRAY[lev + 1]).count_ones(), 1);
        }
        for (lev, &gray) in LEVEL_GRAY.iter().enumerate() {
            assert_eq!(gray_to_level((gray >> 1) as u8, (gray & 1) as u8), lev);
        }
    }

    #[test]
    fn bits_per_symbol_values() {
        assert_eq!(Modulation::Bpsk.bits_per_symbol(), 1);
        assert_eq!(Modulation::Qpsk.bits_per_symbol(), 2);
        assert_eq!(Modulation::Qam16.bits_per_symbol(), 4);
    }

    #[test]
    fn padding_only_affects_tail() {
        let bits = vec![1, 0, 1]; // not a multiple of 2
        let symbols = modulate(Modulation::Qpsk, &bits);
        assert_eq!(symbols.len(), 2);
        let mut out = demodulate(Modulation::Qpsk, &symbols);
        out.truncate(3);
        assert_eq!(out, bits);
    }

    #[test]
    fn pam_level_matches_nearest_pam_everywhere() {
        // The division-free quantizer must agree with the reference
        // divide-then-search form on every raw coordinate, since packed
        // demod rests on it. Probe the pulled-back thresholds at their
        // exact bit neighbours, the post-division tie points, signed
        // zeros, NaN, infinities, the guard boundary, and a dense sweep.
        let t = qam16_thresholds();
        let mut probes = vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            -1e300,
            7.0e14,
            -7.0e14,
            7.1e14,
            2.3e15,
            1e16,
        ];
        for level in PAM4 {
            probes.push(level * QAM16_SCALE);
        }
        for tie in [-2.0, 0.0, 2.0] {
            probes.push(tie * QAM16_SCALE);
            probes.push(-tie * QAM16_SCALE);
        }
        for b in [t.0, t.1, 7.0e14, -7.0e14] {
            for delta in [-2i64, -1, 0, 1, 2] {
                probes.push(f64::from_bits(b.to_bits().wrapping_add_signed(delta)));
            }
        }
        for x in probes {
            assert_eq!(pam_level(x, t), nearest_pam(x / QAM16_SCALE), "x = {x}");
        }
        let mut x = -2.0;
        while x < 2.0 {
            assert_eq!(pam_level(x, t), nearest_pam(x / QAM16_SCALE), "x = {x}");
            x += 0.0037;
        }
    }

    #[test]
    fn luts_match_map_symbol_exhaustively() {
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            for pattern in 0..1usize << bps {
                let bits: Vec<u8> = (0..bps)
                    .map(|i| ((pattern >> (bps - 1 - i)) & 1) as u8)
                    .collect();
                let reference = reference_symbol(m, &bits);
                let mut packed_bits = BitVec::new();
                packed_bits.push_bits(pattern as u64, bps);
                let mut out = Vec::new();
                m.modulate_into(&packed_bits, &mut out);
                assert_eq!(out.len(), 1);
                assert_eq!(
                    out[0].re.to_bits(),
                    reference.re.to_bits(),
                    "{m:?} {pattern}"
                );
                assert_eq!(
                    out[0].im.to_bits(),
                    reference.im.to_bits(),
                    "{m:?} {pattern}"
                );
            }
        }
    }

    #[test]
    fn packed_paths_match_legacy_including_padding() {
        for m in Modulation::ALL {
            for len in [0usize, 1, 2, 3, 5, 17, 64, 67] {
                let bits: Vec<u8> = (0..len).map(|i| ((i * 11 + 2) % 3 == 0) as u8).collect();
                let reference_syms = reference_modulate(m, &bits);
                let syms = modulate(m, &bits);
                assert_eq!(syms, reference_syms, "{m:?} len {len}");
                assert_eq!(
                    demodulate(m, &syms),
                    reference_demodulate(m, &reference_syms),
                    "{m:?} demod"
                );
            }
        }
    }
}
