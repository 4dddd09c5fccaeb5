//! Criterion microbenchmarks for the physical-layer substrate: each PHY
//! stage of the word-packed `BitVec` path, and the full transmit chain.
//! Payloads are 1 kB (8192 bits) and 64 kB (524288 bits).
//!
//! The headline full-transmit routine runs Hamming(7,4) + 16-QAM over the
//! noiseless channel: AWGN noise synthesis is RNG-bound and frozen by the
//! bit-identical determinism contract, so it would dominate and mask the
//! pipeline cost being measured. The AWGN 64 kB routine is recorded
//! separately for honesty.

use criterion::{criterion_group, criterion_main, Criterion};
use semcom_channel::coding::{BlockCode, CodeScratch, ConvolutionalCode, HammingCode74};
use semcom_channel::{
    AwgnChannel, BitPipeline, BitVec, Modulation, NoiselessChannel, TransmitScratch,
};
use semcom_nn::rng::seeded_rng;

fn bits(n: usize) -> BitVec {
    (0..n).map(|i| (i * 7) % 2 == 1).collect()
}

fn bench_pack(c: &mut Criterion) {
    for (tag, n_bytes) in [("1k", 1usize << 10), ("64k", 1usize << 16)] {
        let bytes: Vec<u8> = (0..n_bytes).map(|i| (i * 37 + 11) as u8).collect();
        let mut packed = BitVec::new();
        let mut back = Vec::new();
        c.bench_function(&format!("channel/packed_pack_roundtrip_{tag}"), |b| {
            b.iter(|| {
                packed.clear();
                packed.extend_from_bytes(std::hint::black_box(&bytes));
                packed.write_bytes_into(&mut back);
                back.len()
            })
        });

        let a = BitVec::from_bytes(&bytes);
        let mut bv = BitVec::from_bytes(&bytes);
        bv.set(n_bytes * 4, !bv.get(n_bytes * 4));
        c.bench_function(&format!("channel/packed_hamming_distance_{tag}"), |b| {
            b.iter(|| std::hint::black_box(&a).hamming_distance(&bv))
        });
    }
}

fn bench_coding(c: &mut Criterion) {
    for (tag, n_bits) in [("1k", 8192usize), ("64k", 524_288usize)] {
        let packed = bits(n_bits);
        let mut enc = BitVec::new();
        c.bench_function(&format!("channel/packed_hamming74_encode_{tag}"), |b| {
            b.iter(|| HammingCode74.encode_packed(std::hint::black_box(&packed), &mut enc))
        });

        let mut coded_packed = BitVec::new();
        HammingCode74.encode_packed(&packed, &mut coded_packed);
        let mut dec = BitVec::new();
        let mut scratch = CodeScratch::new();
        c.bench_function(&format!("channel/packed_hamming74_decode_{tag}"), |b| {
            b.iter(|| {
                HammingCode74.decode_packed(
                    std::hint::black_box(&coded_packed),
                    &mut dec,
                    &mut scratch,
                )
            })
        });
    }

    // Viterbi is O(states × steps); 1 kB keeps the routine cheap.
    let packed = bits(8192);
    let mut conv_coded_packed = BitVec::new();
    ConvolutionalCode.encode_packed(&packed, &mut conv_coded_packed);
    let mut enc = BitVec::new();
    c.bench_function("channel/packed_conv_encode_1k", |b| {
        b.iter(|| ConvolutionalCode.encode_packed(std::hint::black_box(&packed), &mut enc))
    });
    let mut dec = BitVec::new();
    let mut scratch = CodeScratch::new();
    c.bench_function("channel/packed_viterbi_decode_1k", |b| {
        b.iter(|| {
            ConvolutionalCode.decode_packed(
                std::hint::black_box(&conv_coded_packed),
                &mut dec,
                &mut scratch,
            )
        })
    });
}

fn bench_modulation(c: &mut Criterion) {
    for (tag, n_bits) in [("1k", 8192usize), ("64k", 524_288usize)] {
        let packed = bits(n_bits);
        let mut tx = Vec::new();
        c.bench_function(&format!("channel/packed_qam16_modulate_{tag}"), |b| {
            b.iter(|| Modulation::Qam16.modulate_into(std::hint::black_box(&packed), &mut tx))
        });

        let mut symbols = Vec::new();
        Modulation::Qam16.modulate_into(&packed, &mut symbols);
        let mut demod = BitVec::new();
        c.bench_function(&format!("channel/packed_qam16_demodulate_{tag}"), |b| {
            b.iter(|| Modulation::Qam16.demodulate_into(std::hint::black_box(&symbols), &mut demod))
        });
    }
}

fn bench_full_transmit(c: &mut Criterion) {
    // Headline: Hamming(7,4) + 16-QAM, noiseless channel (see module docs
    // for why noise synthesis is excluded from the headline).
    for (tag, n_bits) in [("1k", 8192usize), ("64k", 524_288usize)] {
        let packed = bits(n_bits);
        let p = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16);
        let mut scratch = TransmitScratch::new();
        let mut rng = seeded_rng(2);
        c.bench_function(&format!("channel/packed_full_transmit_{tag}"), |b| {
            b.iter(|| {
                p.transmit_packed(
                    std::hint::black_box(&packed),
                    &NoiselessChannel,
                    &mut rng,
                    &mut scratch,
                )
                .len()
            })
        });
    }

    // AWGN at 64 kB, recorded for honesty: Box–Muller noise synthesis
    // dominates and is bit-frozen.
    let packed = bits(524_288);
    let p = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16);
    let ch = AwgnChannel::new(8.0);
    let mut scratch = TransmitScratch::new();
    let mut rng = seeded_rng(3);
    c.bench_function("channel/packed_full_transmit_awgn_64k", |b| {
        b.iter(|| {
            p.transmit_packed(std::hint::black_box(&packed), &ch, &mut rng, &mut scratch)
                .len()
        })
    });
}

criterion_group!(
    benches,
    bench_pack,
    bench_coding,
    bench_modulation,
    bench_full_transmit
);
criterion_main!(benches);
