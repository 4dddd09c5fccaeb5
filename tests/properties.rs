//! Property-based tests (proptest) on core data structures and invariants
//! across the workspace.

use proptest::collection::vec;
use proptest::prelude::*;
use semcom_cache::policy::{Gdsf, Lfu, Lru, SemanticCost};
use semcom_cache::{InsertOutcome, ModelCache};
use semcom_channel::coding::{
    BlockCode, CodeScratch, ConvolutionalCode, HammingCode74, IdentityCode, RepetitionCode,
};
use semcom_channel::{
    AwgnChannel, BitPipeline, BitVec, Channel, Complex, Modulation, TransmitScratch,
};
use semcom_codec::HuffmanCode;
use semcom_fl::{QuantizedGradient, SparseGradient, SyncUpdate};
use semcom_nn::params::ParamVec;
use semcom_nn::rng::{seeded_rng, Zipf};
use semcom_nn::Tensor;
use semcom_text::metrics::{bleu, bow_cosine};

/// Naive byte-per-bit reference for the PHY stages of `semcom-channel`:
/// one `u8` per bit, one loop per stage, no tables and no word packing.
/// The packed implementations are checked against it below.
mod oracle {
    use semcom_channel::coding::BlockCode;
    use semcom_channel::{Complex, Modulation};

    pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
        bytes
            .iter()
            .flat_map(|&b| (0..8).rev().map(move |i| (b >> i) & 1))
            .collect()
    }

    pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
        let byte = |c: &[u8]| (0..c.len()).fold(0, |acc, i| acc | c[i] << (7 - i));
        bits.chunks(8).map(byte).collect()
    }

    /// Encodes with the code `code` names; a repetition factor is read off
    /// the rate.
    pub fn encode(code: &dyn BlockCode, bits: &[u8]) -> Vec<u8> {
        let (mut out, n) = (Vec::new(), (1.0 / code.rate()).round() as usize);
        match code.name() {
            "uncoded" => out.extend_from_slice(bits),
            "repetition" => out.extend(bits.iter().flat_map(|&b| vec![b; n])),
            "hamming74" => {
                for chunk in bits.chunks(4) {
                    let mut d = [0u8; 4];
                    d[..chunk.len()].copy_from_slice(chunk);
                    // Codeword [p1 p2 d1 p3 d2 d3 d4].
                    let (p1, p2, p3) = (d[0] ^ d[1] ^ d[3], d[0] ^ d[2] ^ d[3], d[1] ^ d[2] ^ d[3]);
                    out.extend_from_slice(&[p1, p2, d[0], p3, d[1], d[2], d[3]]);
                }
            }
            "conv_k3" => {
                // Shift register [input, s1, s0]; generators 111 and 101.
                let (mut s1, mut s0) = (0, 0);
                for &b in bits.iter().chain(&[0, 0]) {
                    out.extend_from_slice(&[b ^ s1 ^ s0, b ^ s0]);
                    (s1, s0) = (b, s1);
                }
            }
            other => unimplemented!("{other}"),
        }
        out
    }

    /// Decodes any coded length; a partial final block counts as
    /// zero-padded (Hamming) or by the bits present (repetition).
    pub fn decode(code: &dyn BlockCode, coded: &[u8]) -> Vec<u8> {
        let (mut out, n) = (Vec::new(), (1.0 / code.rate()).round() as usize);
        match code.name() {
            "uncoded" => out.extend_from_slice(coded),
            "repetition" => {
                for c in coded.chunks(n) {
                    out.push((c.iter().filter(|&&b| b == 1).count() * 2 > c.len()) as u8);
                }
            }
            "hamming74" => {
                for chunk in coded.chunks(7) {
                    let mut c = [0u8; 7];
                    c[..chunk.len()].copy_from_slice(chunk);
                    // The syndrome names the erroneous position (1-indexed).
                    let parity =
                        |pos: [usize; 4]| pos.iter().fold(0, |acc, &i| acc ^ c[i]) as usize;
                    let pos =
                        parity([0, 2, 4, 6]) + 2 * parity([1, 2, 5, 6]) + 4 * parity([3, 4, 5, 6]);
                    if pos != 0 {
                        c[pos - 1] ^= 1;
                    }
                    out.extend_from_slice(&[c[2], c[4], c[5], c[6]]);
                }
            }
            "conv_k3" => {
                // Hard-decision Viterbi over states s1s0: survivors keep the
                // first strictly better path (states ascending, input 0
                // first), trace back from state 0, drop the two flush bits.
                const INF: u32 = u32::MAX / 2;
                let steps = coded.len() / 2;
                let mut metric = [0, INF, INF, INF];
                let mut survivors = vec![[(0usize, 0u8); 4]; steps];
                for (t, surv) in survivors.iter_mut().enumerate() {
                    let mut next = [INF; 4];
                    for s in (0..4).filter(|&s| metric[s] < INF) {
                        let (s1, s0) = ((s >> 1) as u8, (s & 1) as u8);
                        for b in 0..=1u8 {
                            let ns = (b as usize) << 1 | s >> 1;
                            let m = metric[s]
                                + ((b ^ s1 ^ s0) != coded[2 * t]) as u32
                                + ((b ^ s0) != coded[2 * t + 1]) as u32;
                            if m < next[ns] {
                                (next[ns], surv[ns]) = (m, (s, b));
                            }
                        }
                    }
                    metric = next;
                }
                let best = (0..4).min_by_key(|&s| metric[s]).unwrap();
                let mut state = if metric[0] < INF { 0 } else { best };
                out.resize(steps, 0);
                for t in (0..steps).rev() {
                    (state, out[t]) = survivors[t][state];
                }
                out.truncate(steps.saturating_sub(2));
            }
            other => unimplemented!("{other}"),
        }
        out
    }

    const PAM4: [f64; 4] = [-3.0, -1.0, 1.0, 3.0];
    /// Gray bit pair per PAM4 level: adjacent levels differ in one bit.
    const GRAY: [[u8; 2]; 4] = [[0, 0], [0, 1], [1, 1], [1, 0]];
    const QAM16_SCALE: f64 = 0.316227766016838; // 1/sqrt(10)

    /// Gray-mapped symbols, the tail group zero-padded.
    pub fn modulate(m: Modulation, bits: &[u8]) -> Vec<Complex> {
        let sign = |bit: u8, v: f64| if bit == 0 { v } else { -v };
        let level = |g: [u8; 2]| PAM4[GRAY.iter().position(|&x| x == g).unwrap()] * QAM16_SCALE;
        let s = std::f64::consts::FRAC_1_SQRT_2;
        let symbol = |chunk: &[u8]| {
            let mut b = [0u8; 4];
            b[..chunk.len()].copy_from_slice(chunk);
            match m {
                Modulation::Bpsk => Complex::new(sign(b[0], 1.0), 0.0),
                Modulation::Qpsk => Complex::new(sign(b[0], s), sign(b[1], s)),
                Modulation::Qam16 => Complex::new(level([b[0], b[1]]), level([b[2], b[3]])),
                other => unimplemented!("{other:?}"),
            }
        };
        bits.chunks(m.bits_per_symbol()).map(symbol).collect()
    }

    /// Minimum-distance decisions; an exact tie keeps the lower level.
    pub fn demodulate(m: Modulation, symbols: &[Complex]) -> Vec<u8> {
        let sign = |x: f64| if x >= 0.0 { 0 } else { 1 };
        let nearest = |x: f64| {
            let d = |i: usize| (x / QAM16_SCALE - PAM4[i]).abs();
            GRAY[(0..4).fold(0, |best, i| if d(i) < d(best) { i } else { best })]
        };
        let decide = |s: &Complex| match m {
            Modulation::Bpsk => vec![sign(s.re)],
            Modulation::Qpsk => vec![sign(s.re), sign(s.im)],
            Modulation::Qam16 => [nearest(s.re), nearest(s.im)].concat(),
            other => unimplemented!("{other:?}"),
        };
        symbols.iter().flat_map(decide).collect()
    }
}

fn codes() -> Vec<Box<dyn BlockCode>> {
    vec![
        Box::new(IdentityCode),
        Box::new(RepetitionCode::new(3)),
        Box::new(HammingCode74),
        Box::new(ConvolutionalCode),
    ]
}

fn encode(code: &dyn BlockCode, bits: &[u8]) -> Vec<u8> {
    let mut out = BitVec::new();
    code.encode_packed(&BitVec::from_u8_bits(bits), &mut out);
    out.to_u8_bits()
}

fn decode(code: &dyn BlockCode, coded: &[u8]) -> Vec<u8> {
    let mut out = BitVec::new();
    code.decode_packed(
        &BitVec::from_u8_bits(coded),
        &mut out,
        &mut CodeScratch::new(),
    );
    out.to_u8_bits()
}

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

/// Bit-exact symbol comparison (NaN-safe, signed zeros distinguished).
fn same_symbols(a: &[Complex], b: &[Complex]) -> bool {
    let bits = |s: &[Complex]| {
        s.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect::<Vec<_>>()
    };
    bits(a) == bits(b)
}

#[test]
fn packed_codes_match_oracle_at_fixed_lengths() {
    for code in codes() {
        for len in [0usize, 1, 3, 4, 7, 8, 31, 64, 65, 129, 500] {
            let bits: Vec<u8> = (0..len).map(|i| ((i * 7 + len) % 5 < 2) as u8).collect();
            let coded = oracle::encode(code.as_ref(), &bits);
            assert_eq!(
                encode(code.as_ref(), &bits),
                coded,
                "{} encode len {len}",
                code.name()
            );
            // Corrupt a scattering of coded bits: error cases included.
            let mut corrupted = coded;
            for i in (0..corrupted.len()).step_by(5) {
                corrupted[i] ^= 1;
            }
            assert_eq!(
                decode(code.as_ref(), &corrupted),
                oracle::decode(code.as_ref(), &corrupted),
                "{} decode len {len}",
                code.name()
            );
        }
        // Arbitrary (non-codeword-multiple) lengths, as a raw BSC delivers.
        for len in [1usize, 2, 5, 6, 9, 13, 20] {
            let raw: Vec<u8> = (0..len).map(|i| ((i * 3 + len) % 4 == 0) as u8).collect();
            assert_eq!(
                decode(code.as_ref(), &raw),
                oracle::decode(code.as_ref(), &raw)
            );
        }
    }
}

#[test]
fn packed_modulation_matches_oracle_on_every_pattern_and_padding() {
    for m in Modulation::ALL {
        let bps = m.bits_per_symbol();
        for pattern in 0..1usize << bps {
            let bits: Vec<u8> = (0..bps)
                .map(|i| ((pattern >> (bps - 1 - i)) & 1) as u8)
                .collect();
            assert!(
                same_symbols(&modulate(m, &bits), &oracle::modulate(m, &bits)),
                "{m:?} {pattern}"
            );
        }
        for len in [0usize, 1, 2, 3, 5, 17, 64, 67] {
            let bits: Vec<u8> = (0..len).map(|i| ((i * 11 + 2) % 3 == 0) as u8).collect();
            let symbols = oracle::modulate(m, &bits);
            assert!(
                same_symbols(&modulate(m, &bits), &symbols),
                "{m:?} len {len}"
            );
            assert_eq!(
                demodulate(m, &symbols),
                oracle::demodulate(m, &symbols),
                "{m:?} len {len}"
            );
        }
    }
}

#[test]
fn demodulation_matches_oracle_on_noisy_nan_and_tie_symbols() {
    let mut rng = seeded_rng(41);
    let mut normal = || semcom_nn::rng::standard_normal(&mut rng) as f64;
    let mut symbols: Vec<Complex> = (0..200).map(|_| Complex::new(normal(), normal())).collect();
    // NaN, signed-zero and exact PAM tie-point symbols.
    symbols.push(Complex::new(f64::NAN, f64::NAN));
    symbols.push(Complex::new(-0.0, 0.0));
    let scale = 0.316227766016838;
    for t in [-2.0, 0.0, 2.0] {
        symbols.push(Complex::new(t * scale, -t * scale));
    }
    for m in Modulation::ALL {
        assert_eq!(
            demodulate(m, &symbols),
            oracle::demodulate(m, &symbols),
            "{m:?}"
        );
    }
}

proptest! {
    // ---------------- bits & bytes ----------------

    #[test]
    fn bytes_bits_roundtrip(data in vec(any::<u8>(), 0..64)) {
        let packed = BitVec::from_bytes(&data);
        prop_assert_eq!(packed.to_bytes(), data.clone());
        prop_assert_eq!(oracle::bits_to_bytes(&packed.to_u8_bits()), data);
    }

    // ---------------- packed bit vectors ----------------

    #[test]
    fn packed_bitvec_matches_legacy_reference(a in vec(any::<u8>(), 0..48), b in vec(any::<u8>(), 0..48)) {
        // Byte packing agrees with the legacy Vec<u8>-of-bits functions.
        let pa = BitVec::from_bytes(&a);
        prop_assert_eq!(pa.to_u8_bits(), oracle::bytes_to_bits(&a));
        prop_assert_eq!(pa.to_bytes(), a.clone());

        // Bit-level construction round-trips and popcount distance agrees
        // with the legacy XOR loop on the common prefix length.
        let bits_a = oracle::bytes_to_bits(&a);
        let bits_b: Vec<u8> = oracle::bytes_to_bits(&b).into_iter().take(bits_a.len()).collect();
        let pb = BitVec::from_u8_bits(&bits_b);
        prop_assert_eq!(BitVec::from_u8_bits(&bits_a).to_u8_bits(), bits_a.clone());
        if bits_b.len() == bits_a.len() {
            let packed_a = BitVec::from_u8_bits(&bits_a);
            prop_assert_eq!(
                packed_a.hamming_distance(&pb),
                bits_a.iter().zip(&bits_b).filter(|(x, y)| x != y).count()
            );
        }
    }

    #[test]
    fn packed_bitvec_get_and_count_match_unpacked(bits in vec(0u8..=1, 0..200)) {
        let packed = BitVec::from_u8_bits(&bits);
        prop_assert_eq!(packed.len(), bits.len());
        prop_assert_eq!(packed.count_ones(), bits.iter().filter(|&&b| b == 1).count());
        for (i, &b) in bits.iter().enumerate() {
            prop_assert_eq!(packed.get(i), b == 1, "bit {i}");
        }
    }

    // ---------------- modulation ----------------

    #[test]
    fn modulation_roundtrips_noiselessly(bits in vec(0u8..=1, 0..128)) {
        for m in Modulation::ALL {
            let mut out = demodulate(m, &modulate(m, &bits));
            out.truncate(bits.len());
            prop_assert_eq!(&out, &bits);
        }
    }

    #[test]
    fn modulated_symbols_have_bounded_energy(bits in vec(0u8..=1, 1..64)) {
        for m in Modulation::ALL {
            for s in modulate(m, &bits) {
                prop_assert!(s.norm_sq() <= 1.9, "{:?} energy {}", m, s.norm_sq());
            }
        }
    }

    // ---------------- channel codes ----------------

    #[test]
    fn block_codes_roundtrip(bits in vec(0u8..=1, 0..96)) {
        let codes: Vec<Box<dyn BlockCode>> = vec![
            Box::new(RepetitionCode::new(3)),
            Box::new(HammingCode74),
            Box::new(ConvolutionalCode),
        ];
        for code in codes {
            let mut out = decode(code.as_ref(), &encode(code.as_ref(), &bits));
            out.truncate(bits.len());
            prop_assert_eq!(&out, &bits, "{}", code.name());
        }
    }

    #[test]
    fn hamming_corrects_any_single_error(bits in vec(0u8..=1, 4..40), pos in any::<usize>()) {
        let mut corrupted = encode(&HammingCode74, &bits);
        let flip = pos % corrupted.len();
        corrupted[flip] ^= 1;
        let mut out = decode(&HammingCode74, &corrupted);
        out.truncate(bits.len());
        prop_assert_eq!(out, bits);
    }

    #[test]
    fn packed_code_paths_match_legacy_under_random_flips(
        bits in vec(0u8..=1, 0..120),
        flips in vec(any::<usize>(), 0..6),
    ) {
        // Every BlockCode's packed LUT path must (a) produce the same
        // codeword as the oracle encoder, (b) round-trip noise-free, and
        // (c) decode a randomly corrupted codeword to the exact same bits
        // as the oracle decoder — error patterns included.
        let codes: Vec<Box<dyn BlockCode>> = vec![
            Box::new(RepetitionCode::new(3)),
            Box::new(HammingCode74),
            Box::new(ConvolutionalCode),
        ];
        let packed_in = BitVec::from_u8_bits(&bits);
        let mut coded_packed = BitVec::new();
        let mut decoded_packed = BitVec::new();
        let mut scratch = CodeScratch::new();
        for code in codes {
            let coded = oracle::encode(code.as_ref(), &bits);
            code.encode_packed(&packed_in, &mut coded_packed);
            prop_assert_eq!(coded_packed.to_u8_bits(), coded.clone(), "{} encode", code.name());

            let mut corrupted = coded;
            for &f in &flips {
                if !corrupted.is_empty() {
                    let i = f % corrupted.len();
                    corrupted[i] ^= 1;
                    let flipped = coded_packed.get(i);
                    coded_packed.set(i, !flipped);
                }
            }
            code.decode_packed(&coded_packed, &mut decoded_packed, &mut scratch);
            prop_assert_eq!(
                decoded_packed.to_u8_bits(),
                oracle::decode(code.as_ref(), &corrupted),
                "{} decode under flips",
                code.name()
            );
        }
    }

    #[test]
    fn packed_modulation_and_pipeline_match_legacy(bits in vec(0u8..=1, 1..160), seed in any::<u64>()) {
        // The packed stages agree with the oracle...
        let packed = BitVec::from_u8_bits(&bits);
        for m in Modulation::ALL {
            let legacy_syms = oracle::modulate(m, &bits);
            let mut syms = Vec::new();
            m.modulate_into(&packed, &mut syms);
            prop_assert_eq!(&syms, &legacy_syms, "{:?} modulate", m);
            let mut demod = BitVec::new();
            m.demodulate_into(&syms, &mut demod);
            prop_assert_eq!(demod.to_u8_bits(), oracle::demodulate(m, &legacy_syms), "{:?} demodulate", m);
        }

        // ...and the whole packed transmit chain is bit-identical to the
        // oracle's stage-by-stage chain under the same RNG stream.
        let pipeline = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16);
        let channel = AwgnChannel::new(4.0);
        let mut scratch = TransmitScratch::new();
        let mut rng = seeded_rng(seed);
        let out = pipeline
            .transmit_packed(&packed, &channel, &mut rng, &mut scratch)
            .to_u8_bits();

        let mut rng = seeded_rng(seed);
        let coded = oracle::encode(pipeline.code(), &bits);
        let tx = oracle::modulate(pipeline.modulation(), &coded);
        let rx = channel.transmit(&tx, &mut rng);
        let mut demod = oracle::demodulate(pipeline.modulation(), &rx);
        demod.truncate(coded.len());
        let mut decoded = oracle::decode(pipeline.code(), &demod);
        decoded.truncate(bits.len());
        prop_assert_eq!(out, decoded);
    }

    // ---------------- huffman ----------------

    #[test]
    fn huffman_roundtrips(freqs in vec(0u64..1000, 2..40), tokens in vec(any::<usize>(), 0..50)) {
        let code = HuffmanCode::from_frequencies(&freqs);
        let tokens: Vec<usize> = tokens.into_iter().map(|t| t % freqs.len()).collect();
        prop_assert_eq!(code.decode(&code.encode(&tokens)), tokens);
    }

    #[test]
    fn huffman_respects_entropy_bound(freqs in vec(1u64..500, 2..32)) {
        // Mean code length is within 1 bit of the (smoothed) entropy.
        let code = HuffmanCode::from_frequencies(&freqs);
        let total: f64 = freqs.iter().map(|&f| (f + 1) as f64).sum();
        let entropy: f64 = freqs
            .iter()
            .map(|&f| {
                let p = (f + 1) as f64 / total;
                -p * p.log2()
            })
            .sum();
        let mean = code.mean_code_len(&freqs);
        prop_assert!(mean >= entropy - 1e-9, "mean {mean} < entropy {entropy}");
        prop_assert!(mean <= entropy + 1.0, "mean {mean} vs entropy {entropy}");
    }

    // ---------------- cache ----------------

    #[test]
    fn cache_never_exceeds_capacity(
        capacity in 1usize..500,
        ops in vec((any::<u8>(), 1usize..100), 0..200),
    ) {
        let policies: Vec<Box<dyn semcom_cache::policy::EvictionPolicy<u8> + Send>> = vec![
            Box::new(Lru::new()),
            Box::new(Lfu::new()),
            Box::new(Gdsf::new()),
            Box::new(SemanticCost::new()),
        ];
        for policy in policies {
            let mut cache: ModelCache<u8, usize> = ModelCache::new(capacity, policy);
            for (i, &(key, size)) in ops.iter().enumerate() {
                match cache.insert(key, i, size, size as f64) {
                    InsertOutcome::Inserted { .. } => {
                        prop_assert!(cache.contains(&key), "inserted key must be resident");
                    }
                    InsertOutcome::TooLarge => {
                        prop_assert!(size > capacity);
                    }
                }
                prop_assert!(cache.used_bytes() <= capacity);
            }
        }
    }

    #[test]
    fn cache_get_after_insert_hits(keys in vec(any::<u8>(), 1..50)) {
        let mut cache: ModelCache<u8, u8> = ModelCache::new(10_000, Box::new(Lru::new()));
        for &k in &keys {
            cache.insert(k, k, 10, 1.0);
            prop_assert_eq!(cache.get(&k), Some(&k));
        }
    }

    // ---------------- gradients ----------------

    #[test]
    fn sparse_topk_preserves_largest_and_zeroes_rest(values in vec(-10.0f32..10.0, 1..60), k in 1usize..60) {
        let dense = ParamVec::from_parts(vec![(1, values.len())], values.clone()).unwrap();
        let sparse = SparseGradient::top_k(&dense, k);
        let back = sparse.to_dense();
        let kept: Vec<f32> = back.as_slice().iter().copied().filter(|v| *v != 0.0).collect();
        // Every kept magnitude >= every dropped magnitude.
        let min_kept = kept.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
        for (orig, sent) in values.iter().zip(back.as_slice()) {
            if *sent == 0.0 && *orig != 0.0 {
                prop_assert!(orig.abs() <= min_kept + 1e-6);
            } else if *sent != 0.0 {
                prop_assert_eq!(*sent, *orig);
            }
        }
    }

    #[test]
    fn quantization_error_is_within_half_step(values in vec(-100.0f32..100.0, 1..80)) {
        let dense = ParamVec::from_parts(vec![(1, values.len())], values.clone()).unwrap();
        let q = QuantizedGradient::quantize(&dense);
        let back = q.to_dense();
        for (a, b) in values.iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= q.scale() / 2.0 + 1e-5, "{a} vs {b}");
        }
    }

    // ---------------- sync wire format ----------------

    #[test]
    fn sync_wire_roundtrips_dense(values in vec(-10.0f32..10.0, 1..80)) {
        let pv = ParamVec::from_parts(vec![(1, values.len())], values).unwrap();
        for update in [SyncUpdate::Full(pv.clone()), SyncUpdate::Delta(pv)] {
            let back = SyncUpdate::from_bytes(&update.to_bytes()).unwrap();
            prop_assert_eq!(back, update.clone());
        }
    }

    #[test]
    fn sync_wire_decode_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must yield Ok or Err, never a panic/huge alloc.
        let _ = SyncUpdate::from_bytes(&bytes);
    }

    #[test]
    fn sync_wire_roundtrips_compressed(values in vec(-5.0f32..5.0, 4..60), k in 1usize..20) {
        let pv = ParamVec::from_parts(vec![(1, values.len())], values).unwrap();
        let sparse = SyncUpdate::Sparse(SparseGradient::top_k(&pv, k));
        let back = SyncUpdate::from_bytes(&sparse.to_bytes()).unwrap();
        match (&back, &sparse) {
            (SyncUpdate::Sparse(a), SyncUpdate::Sparse(b)) => {
                prop_assert_eq!(a.to_dense(), b.to_dense());
            }
            _ => prop_assert!(false, "variant changed in flight"),
        }
        let quant = SyncUpdate::Quantized(QuantizedGradient::quantize(&pv));
        let back = SyncUpdate::from_bytes(&quant.to_bytes()).unwrap();
        prop_assert_eq!(back, quant);
    }

    #[test]
    fn wer_is_bounded_and_zero_only_on_equality(a in vec(0u8..5, 0..15), b in vec(0u8..5, 0..15)) {
        use semcom_text::metrics::word_error_rate;
        let wer = word_error_rate(&a, &b);
        prop_assert!(wer >= 0.0);
        if a == b {
            prop_assert_eq!(wer, 0.0);
        } else {
            prop_assert!(wer > 0.0);
        }
        // Edit distance is bounded by max(len): wer <= max_len / ref_len.
        if !a.is_empty() {
            prop_assert!(wer <= a.len().max(b.len()) as f64 / a.len() as f64 + 1e-12);
        }
    }

    // ---------------- text tokenizer ----------------

    #[test]
    fn tokenizer_output_is_normalized(text in ".{0,64}") {
        for w in semcom_text::tokenize_words(&text) {
            prop_assert!(!w.is_empty());
            prop_assert!(w.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(w.to_lowercase(), w.clone());
        }
    }

    // ---------------- tensors ----------------

    #[test]
    fn matmul_distributes_over_addition(
        a in vec(-3.0f32..3.0, 6),
        b in vec(-3.0f32..3.0, 6),
        c in vec(-3.0f32..3.0, 6),
    ) {
        let a = Tensor::from_vec(2, 3, a).unwrap();
        let b = Tensor::from_vec(3, 2, b).unwrap();
        let c = Tensor::from_vec(3, 2, c).unwrap();
        let left = a.matmul(&(&b + &c));
        let right = &a.matmul(&b) + &a.matmul(&c);
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_is_involutive(data in vec(-5.0f32..5.0, 12)) {
        let t = Tensor::from_vec(3, 4, data).unwrap();
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    // ---------------- text metrics ----------------

    #[test]
    fn bleu_is_bounded_and_maximal_on_self(tokens in vec(0usize..50, 1..20)) {
        let b = bleu(&tokens, &tokens, 4);
        prop_assert!((b - 1.0).abs() < 1e-9);
        let other: Vec<usize> = tokens.iter().map(|t| t + 100).collect();
        let b2 = bleu(&tokens, &other, 4);
        prop_assert!((0.0..=1.0).contains(&b2));
    }

    #[test]
    fn cosine_is_symmetric_and_bounded(a in vec(0usize..20, 0..30), b in vec(0usize..20, 0..30)) {
        let ab = bow_cosine(&a, &b);
        let ba = bow_cosine(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&ab));
    }

    // ---------------- zipf ----------------

    #[test]
    fn zipf_samples_stay_in_range(n in 1usize..200, alpha in 0.0f64..2.5, seed in any::<u64>()) {
        let z = Zipf::new(n, alpha);
        let mut rng = seeded_rng(seed);
        for _ in 0..50 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
