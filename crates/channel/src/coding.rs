//! Channel coding: block codes, a convolutional code with Viterbi decoding,
//! and CRC error detection.
//!
//! All codes implement [`BlockCode`] and are exercised by the traditional
//! (bit-level) communication baseline and the channel-coding ablation
//! experiment (F6).
//!
//! Every code encodes and decodes [`BitVec`] words with precomputed lookup
//! tables: Hamming(7,4) runs nibble→codeword and 7-bit-syndrome LUTs, the
//! convolutional encoder steps four input bits per table lookup, and
//! Viterbi reuses its survivor storage through [`CodeScratch`] so decoding
//! allocates nothing once warm. `tests/properties.rs` checks each code
//! against a naive byte-per-bit oracle.

use crate::bits::BitVec;
use serde::{Deserialize, Serialize};

/// Reusable decoder workspace, letting [`BlockCode::decode_packed`] run
/// without heap allocation once warm (the Viterbi survivor lattice is the
/// only code here needing per-call storage).
#[derive(Debug, Clone, Default)]
pub struct CodeScratch {
    /// Viterbi survivors, one bitmask byte per step: bit `s` is set when
    /// state `s` was reached from its upper predecessor.
    survivors: Vec<u8>,
}

impl CodeScratch {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        CodeScratch::default()
    }
}

/// A forward-error-correcting code over bit strings.
///
/// Implementations must satisfy `decode(encode(bits)) == bits` on a
/// noiseless channel for any input (checked by property tests). A code may
/// zero-pad its input (Hamming(7,4) to whole nibbles) or append flush bits
/// (the convolutional code); decoding drops the flush bits, and callers
/// trim any padding to the length they encoded.
pub trait BlockCode {
    /// Information bits per coded bit (`k/n`).
    fn rate(&self) -> f64;

    /// Short human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Coded length produced for `k` information bits, in closed form so
    /// pipelines can size frames in O(1).
    fn coded_len(&self, k: usize) -> usize;

    /// Encodes `bits` into a caller-owned buffer (cleared first).
    fn encode_packed(&self, bits: &BitVec, out: &mut BitVec);

    /// Decodes `coded` into a caller-owned buffer (cleared first),
    /// correcting errors where possible and using `scratch` for any
    /// per-call workspace. Any coded length is accepted: a partial final
    /// block decodes as if zero-padded (Hamming), by majority over the bits
    /// present (repetition), or is ignored (an odd trailing convolutional
    /// bit).
    fn decode_packed(&self, coded: &BitVec, out: &mut BitVec, scratch: &mut CodeScratch);
}

/// The trivial rate-1 code (uncoded transmission).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdentityCode;

impl BlockCode for IdentityCode {
    fn rate(&self) -> f64 {
        1.0
    }

    fn name(&self) -> &'static str {
        "uncoded"
    }

    fn coded_len(&self, k: usize) -> usize {
        k
    }

    fn encode_packed(&self, bits: &BitVec, out: &mut BitVec) {
        out.copy_from(bits);
    }

    fn decode_packed(&self, coded: &BitVec, out: &mut BitVec, _scratch: &mut CodeScratch) {
        out.copy_from(coded);
    }
}

/// An `n`-fold repetition code with majority-vote decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepetitionCode {
    n: usize,
}

impl RepetitionCode {
    /// Creates a repetition code repeating each bit `n` times.
    ///
    /// # Panics
    ///
    /// Panics if `n` is even or zero (majority voting needs odd `n`).
    pub fn new(n: usize) -> Self {
        assert!(n % 2 == 1, "repetition factor must be odd");
        RepetitionCode { n }
    }

    /// The repetition factor.
    pub fn factor(&self) -> usize {
        self.n
    }
}

impl BlockCode for RepetitionCode {
    fn rate(&self) -> f64 {
        1.0 / self.n as f64
    }

    fn name(&self) -> &'static str {
        "repetition"
    }

    fn coded_len(&self, k: usize) -> usize {
        k * self.n
    }

    fn encode_packed(&self, bits: &BitVec, out: &mut BitVec) {
        out.clear();
        for bit in bits {
            // `n` is odd and usually tiny (3, 5) but unbounded in the API;
            // emit whole-word runs for generality.
            let mut left = self.n;
            while left > 0 {
                let k = left.min(64);
                out.push_bits(if bit { u64::MAX } else { 0 }, k);
                left -= k;
            }
        }
    }

    fn decode_packed(&self, coded: &BitVec, out: &mut BitVec, _scratch: &mut CodeScratch) {
        out.clear();
        let mut pos = 0;
        while pos < coded.len() {
            let mut m = (coded.len() - pos).min(self.n);
            let mut ones = 0usize;
            let chunk = m;
            // Blocks wider than a word accumulate popcounts word-by-word.
            while m > 0 {
                let k = m.min(64);
                ones += coded.get_bits(pos, k).count_ones() as usize;
                pos += k;
                m -= k;
            }
            out.push(ones * 2 > chunk);
        }
    }
}

/// 4 data bits (MSB-first in the low nibble) → the 7-bit Hamming(7,4)
/// codeword `[p1 p2 d1 p3 d2 d3 d4]`, MSB-first in the low 7 bits.
const fn ham74_encode_nibble(d: u8) -> u8 {
    let d1 = (d >> 3) & 1;
    let d2 = (d >> 2) & 1;
    let d3 = (d >> 1) & 1;
    let d4 = d & 1;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p3 = d2 ^ d3 ^ d4;
    (p1 << 6) | (p2 << 5) | (d1 << 4) | (p3 << 3) | (d2 << 2) | (d3 << 1) | d4
}

/// 7 received bits (MSB-first in the low 7 bits) → the syndrome-corrected
/// 4 data bits (MSB-first in the low nibble). Run once per word to build
/// [`HAM74_DEC`], so decoding is one table lookup per block.
const fn ham74_decode_word(c7: u8) -> u8 {
    let mut c = [
        (c7 >> 6) & 1,
        (c7 >> 5) & 1,
        (c7 >> 4) & 1,
        (c7 >> 3) & 1,
        (c7 >> 2) & 1,
        (c7 >> 1) & 1,
        c7 & 1,
    ];
    let s1 = c[0] ^ c[2] ^ c[4] ^ c[6];
    let s2 = c[1] ^ c[2] ^ c[5] ^ c[6];
    let s3 = c[3] ^ c[4] ^ c[5] ^ c[6];
    let pos = (s1 + 2 * s2 + 4 * s3) as usize;
    if pos != 0 {
        c[pos - 1] ^= 1;
    }
    (c[2] << 3) | (c[4] << 2) | (c[5] << 1) | c[6]
}

/// Nibble → codeword table for [`HammingCode74::encode_packed`].
const HAM74_ENC: [u8; 16] = {
    let mut t = [0u8; 16];
    let mut i = 0;
    while i < 16 {
        t[i] = ham74_encode_nibble(i as u8);
        i += 1;
    }
    t
};

/// Received-word → corrected-nibble table for
/// [`HammingCode74::decode_packed`].
const HAM74_DEC: [u8; 128] = {
    let mut t = [0u8; 128];
    let mut i = 0;
    while i < 128 {
        t[i] = ham74_decode_word(i as u8);
        i += 1;
    }
    t
};

/// The Hamming(7,4) code: corrects any single bit error per 7-bit block.
///
/// Inputs are zero-padded to a multiple of 4 bits; callers track the
/// original length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HammingCode74;

impl BlockCode for HammingCode74 {
    fn rate(&self) -> f64 {
        4.0 / 7.0
    }

    fn name(&self) -> &'static str {
        "hamming74"
    }

    fn coded_len(&self, k: usize) -> usize {
        k.div_ceil(4) * 7
    }

    fn encode_packed(&self, bits: &BitVec, out: &mut BitVec) {
        out.clear();
        let n = bits.len();
        let mut pos = 0;
        // Eight nibbles per word read: 32 input bits become one 56-bit
        // append, so word bookkeeping is paid once per 8 codewords.
        while pos + 32 <= n {
            let w = bits.get_bits(pos, 32);
            let mut acc = 0u64;
            for i in 0..8 {
                acc = acc << 7 | HAM74_ENC[(w >> (28 - 4 * i)) as usize & 0xF] as u64;
            }
            out.push_bits(acc, 56);
            pos += 32;
        }
        while pos + 4 <= n {
            out.push_bits(HAM74_ENC[bits.get_bits(pos, 4) as usize] as u64, 7);
            pos += 4;
        }
        if pos < n {
            // Final partial nibble, zero-padded at the tail.
            let m = n - pos;
            let nibble = (bits.get_bits(pos, m) << (4 - m)) as usize;
            out.push_bits(HAM74_ENC[nibble] as u64, 7);
        }
    }

    fn decode_packed(&self, coded: &BitVec, out: &mut BitVec, _scratch: &mut CodeScratch) {
        out.clear();
        let n = coded.len();
        let mut pos = 0;
        // Eight codewords per word read: 56 coded bits become one 32-bit
        // append.
        while pos + 56 <= n {
            let w = coded.get_bits(pos, 56);
            let mut acc = 0u64;
            for i in 0..8 {
                acc = acc << 4 | HAM74_DEC[(w >> (49 - 7 * i)) as usize & 0x7F] as u64;
            }
            out.push_bits(acc, 32);
            pos += 56;
        }
        while pos + 7 <= n {
            out.push_bits(HAM74_DEC[coded.get_bits(pos, 7) as usize] as u64, 4);
            pos += 7;
        }
        if pos < n {
            let m = n - pos;
            let word = (coded.get_bits(pos, m) << (7 - m)) as usize;
            out.push_bits(HAM74_DEC[word] as u64, 4);
        }
    }
}

/// One convolutional step: `(g1 g2)` output pair (MSB-first in the low two
/// bits) and the successor state for `(state, input)`.
const fn conv_step(state: usize, input: u8) -> (u8, usize) {
    // Shift register [input, s1, s0]; G1 = 111, G2 = 101.
    let s1 = ((state >> 1) & 1) as u8;
    let s0 = (state & 1) as u8;
    let g1 = input ^ s1 ^ s0;
    let g2 = input ^ s0;
    ((g1 << 1) | g2, ((input as usize) << 1) | (state >> 1))
}

/// Nibble-at-a-time encoder table: `CONV_NIBBLE[state][nibble]` is the
/// 8 coded bits (MSB-first) and successor state after absorbing 4 input
/// bits (MSB-first).
const CONV_NIBBLE: [[(u8, u8); 16]; 4] = {
    let mut t = [[(0u8, 0u8); 16]; 4];
    let mut s = 0;
    while s < 4 {
        let mut nib = 0;
        while nib < 16 {
            let mut state = s;
            let mut coded = 0u8;
            let mut i = 0;
            while i < 4 {
                let input = ((nib >> (3 - i)) & 1) as u8;
                let (pair, next) = conv_step(state, input);
                coded = (coded << 2) | pair;
                state = next;
                i += 1;
            }
            t[s][nib] = (coded, state as u8);
            nib += 1;
        }
        s += 1;
    }
    t
};

/// Viterbi branch metrics: `BRANCH_COST[r][s]` holds the Hamming
/// distances between the received pair `r` and the pairs emitted on the
/// two transitions into state `s`, from its lower predecessor `2·(s & 1)`
/// and its upper one `2·(s & 1) + 1` (the input bit is `s >> 1`).
const BRANCH_COST: [[[u32; 2]; 4]; 4] = {
    let mut t = [[[0u32; 2]; 4]; 4];
    let mut r = 0;
    while r < 4 {
        let mut s = 0;
        while s < 4 {
            let mut upper = 0;
            while upper < 2 {
                let (pair, _) = conv_step(2 * (s & 1) + upper, (s >> 1) as u8);
                t[r][s][upper] = (pair ^ r as u8).count_ones();
                upper += 1;
            }
            s += 1;
        }
        r += 1;
    }
    t
};

/// A rate-1/2 convolutional code, constraint length 3, generators (7, 5)
/// octal, with hard-decision Viterbi decoding and zero-tail termination.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvolutionalCode;

impl ConvolutionalCode {
    const STATES: usize = 4; // 2^(K-1), K = 3
}

impl BlockCode for ConvolutionalCode {
    fn rate(&self) -> f64 {
        0.5
    }

    fn name(&self) -> &'static str {
        "conv_k3"
    }

    fn coded_len(&self, k: usize) -> usize {
        (k + 2) * 2
    }

    fn encode_packed(&self, bits: &BitVec, out: &mut BitVec) {
        out.clear();
        let n = bits.len();
        let mut state = 0usize;
        let mut pos = 0;
        // Bulk of the stream: four input bits per table lookup.
        while pos + 4 <= n {
            let (coded, next) = CONV_NIBBLE[state][bits.get_bits(pos, 4) as usize];
            out.push_bits(coded as u64, 8);
            state = next as usize;
            pos += 4;
        }
        // Tail bits plus the two zero flush bits, stepped bitwise.
        for i in pos..n + 2 {
            let input = if i < n { bits.get(i) as u8 } else { 0 };
            let (pair, next) = conv_step(state, input);
            out.push_bits(pair as u64, 2);
            state = next;
        }
    }

    fn decode_packed(&self, coded: &BitVec, out: &mut BitVec, scratch: &mut CodeScratch) {
        out.clear();
        let steps = coded.len() / 2;
        if steps == 0 {
            return;
        }
        // Only state 0 is reachable at the start. An unreachable state's
        // metric stays within two branch costs of INF, so it never wins a
        // comparison with a reachable one, and after step 1 every state is
        // reachable.
        const INF: u32 = u32::MAX / 2;
        let mut metrics = [0, INF, INF, INF];
        // `resize` reuses the scratch allocation across calls.
        scratch.survivors.clear();
        scratch.survivors.resize(steps, 0);

        // Add-compare-select on 32 received pairs per coded word. Each
        // state keeps the smaller of its predecessors' `metric + cost`; a
        // tie keeps the lower predecessor.
        let chunks = scratch.survivors.chunks_mut(32);
        for (&word, survivors) in coded.words().iter().zip(chunks) {
            for (i, survivor) in survivors.iter_mut().enumerate() {
                let cost = &BRANCH_COST[(word >> (62 - 2 * i)) as usize & 3];
                let mut next = [0; Self::STATES];
                let mut upper = 0u8;
                for (s, next) in next.iter_mut().enumerate() {
                    let lower = 2 * (s & 1);
                    let a = metrics[lower] + cost[s][0];
                    let b = metrics[lower + 1] + cost[s][1];
                    *next = a.min(b);
                    upper |= u8::from(b < a) << s;
                }
                metrics = next;
                *survivor = upper;
            }
        }

        // Zero-tail termination: trace back from state 0 when reachable.
        let mut state = if metrics[0] < INF {
            0
        } else {
            (0..Self::STATES).min_by_key(|&s| metrics[s]).unwrap_or(0)
        };
        out.resize(steps);
        for (t, &upper) in scratch.survivors.iter().enumerate().rev() {
            out.set(t, state >> 1 == 1);
            state = 2 * (state & 1) + usize::from(upper >> state & 1);
        }
        // Drop the two flush bits.
        out.truncate(steps.saturating_sub(2));
    }
}

/// CRC-16/CCITT-FALSE of one byte value, MSB-first (polynomial 0x1021).
const CRC16_TABLE: [u16; 256] = {
    let mut t = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            k += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
};

/// CRC-32 of one byte value, reflected (polynomial 0xEDB88320).
const CRC32_TABLE: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            k += 1;
        }
        t[i] = crc;
        i += 1;
    }
    t
};

/// CRC-16/CCITT-FALSE checksum, one table lookup per byte.
pub fn crc16(data: &[u8]) -> u16 {
    data.iter().fold(0xFFFF, |crc, &b| {
        (crc << 8) ^ CRC16_TABLE[usize::from((crc >> 8) as u8 ^ b)]
    })
}

/// CRC-32 (IEEE 802.3, reflected) checksum, one table lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFF, |crc, &b| {
        (crc >> 8) ^ CRC32_TABLE[usize::from(crc as u8 ^ b)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use semcom_nn::rng::seeded_rng;

    fn random_bits(n: usize, seed: u64) -> BitVec {
        let mut rng = seeded_rng(seed);
        (0..n).map(|_| rng.gen_range(0..=1u8) == 1).collect()
    }

    fn codes() -> Vec<Box<dyn BlockCode>> {
        vec![
            Box::new(IdentityCode),
            Box::new(RepetitionCode::new(3)),
            Box::new(HammingCode74),
            Box::new(ConvolutionalCode),
        ]
    }

    fn encode(code: &dyn BlockCode, bits: &BitVec) -> BitVec {
        let mut out = BitVec::new();
        code.encode_packed(bits, &mut out);
        out
    }

    fn decode(code: &dyn BlockCode, coded: &BitVec) -> BitVec {
        let mut out = BitVec::new();
        code.decode_packed(coded, &mut out, &mut CodeScratch::new());
        out
    }

    fn flip(bits: &mut BitVec, i: usize) {
        let b = bits.get(i);
        bits.set(i, !b);
    }

    /// The first-found Viterbi decoder: states in ascending order, a
    /// strictly smaller metric replaces a survivor, unreachable states are
    /// skipped. `ConvolutionalCode::decode_packed` must match it bit for
    /// bit.
    fn reference_viterbi(coded: &BitVec) -> BitVec {
        const STATES: usize = ConvolutionalCode::STATES;
        let mut out = BitVec::new();
        let steps = coded.len() / 2;
        if steps == 0 {
            return out;
        }
        const INF: u32 = u32::MAX / 2;
        let mut metrics = [INF; STATES];
        metrics[0] = 0;
        // Survivor entry: prev_state | input << 2, indexed [t * STATES + s].
        let mut survivors = vec![0u8; steps * STATES];
        for t in 0..steps {
            let r = coded.get_bits(2 * t, 2);
            let (r0, r1) = ((r >> 1) as u8, (r & 1) as u8);
            let mut next = [INF; STATES];
            let surv = &mut survivors[t * STATES..(t + 1) * STATES];
            for (state, &metric) in metrics.iter().enumerate() {
                if metric >= INF {
                    continue;
                }
                for input in 0..=1u8 {
                    let (pair, ns) = conv_step(state, input);
                    let cost = ((pair >> 1) != r0) as u32 + ((pair & 1) != r1) as u32;
                    let m = metric + cost;
                    if m < next[ns] {
                        next[ns] = m;
                        surv[ns] = (state as u8) | (input << 2);
                    }
                }
            }
            metrics = next;
        }
        let mut state = if metrics[0] < INF {
            0
        } else {
            (0..STATES).min_by_key(|&s| metrics[s]).unwrap_or(0)
        };
        out.resize(steps);
        for t in (0..steps).rev() {
            let entry = survivors[t * STATES + state];
            out.set(t, entry >> 2 == 1);
            state = (entry & 0b11) as usize;
        }
        out.truncate(steps.saturating_sub(2));
        out
    }

    /// Bit-at-a-time CRC-16/CCITT-FALSE, the oracle for the table.
    fn reference_crc16(data: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &b in data {
            crc ^= (b as u16) << 8;
            for _ in 0..8 {
                if crc & 0x8000 != 0 {
                    crc = (crc << 1) ^ 0x1021;
                } else {
                    crc <<= 1;
                }
            }
        }
        crc
    }

    /// Bit-at-a-time reflected CRC-32, the oracle for the table.
    fn reference_crc32(data: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                if crc & 1 != 0 {
                    crc = (crc >> 1) ^ 0xEDB8_8320;
                } else {
                    crc >>= 1;
                }
            }
        }
        !crc
    }

    #[test]
    fn viterbi_matches_the_first_found_reference_on_noisy_frames() {
        use crate::channel::BinarySymmetricChannel;
        let mut rng = seeded_rng(91);
        let mut scratch = CodeScratch::new();
        let mut rx = BitVec::new();
        let mut out = BitVec::new();
        for frame in 0..400 {
            let k = rng.gen_range(0..300usize);
            let coded = encode(&ConvolutionalCode, &random_bits(k, frame));
            // Flip rates up to 0.5 make ties and wrong paths common.
            let flip = [0.0, 0.02, 0.1, 0.3, 0.5][frame as usize % 5];
            BinarySymmetricChannel::new(flip).transmit_bits_into(&coded, &mut rx, &mut rng);
            // Truncated frames, odd lengths included.
            if frame % 3 == 0 {
                rx.truncate(rng.gen_range(0..=rx.len()));
            }
            ConvolutionalCode.decode_packed(&rx, &mut out, &mut scratch);
            assert_eq!(
                out,
                reference_viterbi(&rx),
                "frame {frame}, {} bits",
                rx.len()
            );
        }
    }

    #[test]
    fn crc_tables_match_the_bitwise_reference() {
        let mut rng = seeded_rng(5);
        for len in (0..64).chain([255, 1000, 4097]) {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc16(&data), reference_crc16(&data), "crc16 len {len}");
            assert_eq!(crc32(&data), reference_crc32(&data), "crc32 len {len}");
        }
    }

    #[test]
    fn noiseless_roundtrip_all_codes() {
        for code in codes() {
            for len in [0usize, 1, 4, 7, 16, 33] {
                let bits = random_bits(len, len as u64 + 1);
                let mut decoded = decode(code.as_ref(), &encode(code.as_ref(), &bits));
                decoded.truncate(bits.len());
                assert_eq!(decoded, bits, "{} len {len}", code.name());
            }
        }
    }

    #[test]
    fn packed_decoders_handle_partial_trailing_blocks() {
        // Arbitrary (non-codeword-multiple) lengths reach the decoders via
        // raw-BSC links. A partial final block decodes as if zero-padded
        // (Hamming), by majority over the bits present (repetition), or is
        // ignored (an odd trailing convolutional bit).
        for len in [1usize, 2, 5, 6, 9, 13, 20] {
            let coded = random_bits(len, 77 + len as u64);
            assert_eq!(decode(&IdentityCode, &coded), coded);

            let mut padded = BitVec::new();
            padded.copy_from(&coded);
            padded.resize(len.next_multiple_of(7));
            assert_eq!(
                decode(&HammingCode74, &coded),
                decode(&HammingCode74, &padded),
                "hamming len {len}"
            );

            let mut even = BitVec::new();
            even.copy_from(&coded);
            even.truncate(len / 2 * 2);
            assert_eq!(
                decode(&ConvolutionalCode, &coded),
                decode(&ConvolutionalCode, &even),
                "conv len {len}"
            );

            let majority = decode(&RepetitionCode::new(3), &coded);
            assert_eq!(majority.len(), len.div_ceil(3));
            for (i, bit) in majority.iter().enumerate() {
                let present = (len - 3 * i).min(3);
                let ones = coded.get_bits(3 * i, present).count_ones() as usize;
                assert_eq!(bit, ones * 2 > present, "repetition len {len} block {i}");
            }
        }
    }

    #[test]
    fn hamming_luts_match_reference_formulas() {
        // Exhaustive: every codeword [p1 p2 d1 p3 d2 d3 d4] carries its
        // nibble in d1..d4 and satisfies the three parity checks, and every
        // 7-bit word (each lies within one flip of exactly one codeword)
        // decodes to that codeword's nibble.
        let bit = |w: u8, pos: usize| (w >> (7 - pos)) & 1; // pos in 1..=7
        for nib in 0..16u8 {
            let c = HAM74_ENC[nib as usize];
            assert_eq!(
                bit(c, 3) << 3 | bit(c, 5) << 2 | bit(c, 6) << 1 | bit(c, 7),
                nib
            );
            assert_eq!(bit(c, 1) ^ bit(c, 3) ^ bit(c, 5) ^ bit(c, 7), 0, "s1 {nib}");
            assert_eq!(bit(c, 2) ^ bit(c, 3) ^ bit(c, 6) ^ bit(c, 7), 0, "s2 {nib}");
            assert_eq!(bit(c, 4) ^ bit(c, 5) ^ bit(c, 6) ^ bit(c, 7), 0, "s3 {nib}");
            assert_eq!(HAM74_DEC[c as usize], nib);
            for flip in 0..7 {
                assert_eq!(
                    HAM74_DEC[(c ^ 1 << flip) as usize],
                    nib,
                    "{c:07b} ^ bit {flip}"
                );
            }
        }
    }

    #[test]
    fn conv_nibble_table_matches_bit_stepping() {
        for (state, row) in CONV_NIBBLE.iter().enumerate() {
            for (nib, &entry) in row.iter().enumerate() {
                let mut s = state;
                let mut expect = 0u8;
                for i in 0..4 {
                    let (pair, next) = conv_step(s, ((nib >> (3 - i)) & 1) as u8);
                    expect = (expect << 2) | pair;
                    s = next;
                }
                assert_eq!(entry, (expect, s as u8));
            }
        }
    }

    #[test]
    fn closed_form_coded_len_matches_encode() {
        for code in codes() {
            for k in [0usize, 1, 3, 4, 7, 64, 100] {
                assert_eq!(
                    code.coded_len(k),
                    encode(code.as_ref(), &random_bits(k, 3)).len(),
                    "{} k={k}",
                    code.name()
                );
            }
        }
    }

    #[test]
    fn rates_match_observed_expansion() {
        for code in codes() {
            let k = 64;
            let n = code.coded_len(k);
            let observed = k as f64 / n as f64;
            assert!(
                (observed - code.rate()).abs() < 0.1,
                "{}: nominal {} observed {observed}",
                code.name(),
                code.rate()
            );
        }
    }

    #[test]
    fn hamming_corrects_any_single_error_per_block() {
        let bits = random_bits(4, 9);
        let coded = encode(&HammingCode74, &bits);
        for i in 0..7 {
            let mut corrupted = coded.clone();
            flip(&mut corrupted, i);
            assert_eq!(decode(&HammingCode74, &corrupted), bits, "error at {i}");
        }
    }

    #[test]
    fn repetition_corrects_minority_errors() {
        let code = RepetitionCode::new(5);
        let bits = BitVec::from_u8_bits(&[1, 0, 1]);
        let mut coded = encode(&code, &bits);
        // Two errors in the first block of five: majority still wins.
        flip(&mut coded, 0);
        flip(&mut coded, 1);
        assert_eq!(decode(&code, &coded), bits);
    }

    #[test]
    fn convolutional_corrects_scattered_errors() {
        let bits = random_bits(100, 17);
        let mut corrupted = encode(&ConvolutionalCode, &bits);
        // Flip isolated bits, far enough apart for free-distance recovery.
        for i in (0..corrupted.len()).step_by(25) {
            flip(&mut corrupted, i);
        }
        let mut decoded = decode(&ConvolutionalCode, &corrupted);
        decoded.truncate(bits.len());
        assert_eq!(decoded, bits);
    }

    #[test]
    fn convolutional_beats_uncoded_over_bsc() {
        use crate::channel::BinarySymmetricChannel;
        let mut rng = seeded_rng(23);
        let bits = random_bits(4000, 5);
        let bsc = BinarySymmetricChannel::new(0.04);
        let mut rx = BitVec::new();

        bsc.transmit_bits_into(&bits, &mut rx, &mut rng);
        let uncoded_err = bits.hamming_distance(&rx);

        bsc.transmit_bits_into(&encode(&ConvolutionalCode, &bits), &mut rx, &mut rng);
        let mut decoded = decode(&ConvolutionalCode, &rx);
        decoded.truncate(bits.len());
        let coded_err = bits.hamming_distance(&decoded);

        assert!(
            coded_err * 3 < uncoded_err,
            "coded {coded_err} vs uncoded {uncoded_err}"
        );
    }

    #[test]
    fn crc16_reference_vector() {
        // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn crc32_reference_vector() {
        // CRC-32 (IEEE) of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc_detects_single_bit_corruption() {
        let data = b"semantic communication".to_vec();
        let c = crc32(&data);
        let mut corrupted = data.clone();
        corrupted[3] ^= 0x40;
        assert_ne!(crc32(&corrupted), c);
    }

    #[test]
    #[should_panic(expected = "repetition factor must be odd")]
    fn repetition_rejects_even_factor() {
        RepetitionCode::new(4);
    }
}
