//! Pins every Gaussian-noise consumer to the bit.
//!
//! Box–Muller sampling sits under weight initialisation, both analog
//! channels, the coded bit pipeline and the sync transport, so a faster
//! sampler must not move one sample, one received symbol or one RNG draw.
//! Six FNV-1a digests were recorded through the per-sample
//! `standard_normal` path, before the block sampler and the byte-level ARQ
//! link framing existed (only the call that draws the 10⁶ normals has been
//! rewritten since): 10⁶ normals, AWGN and Rayleigh `transmit_into` of
//! 4 097 symbols (one more than any block size), AWGN
//! `transmit_f32_in_place` of 33 features (odd: the padded imaginary sample
//! is still drawn), one 8 KB `ArqPipeline::transmit` at 10 dB and the same
//! bytes as eight retransmitting `ArqLink::deliver` frames at 6 dB. A
//! seventh pins the whole bit-level PHY: `BitPipeline::transmit_packed` and
//! `symbols_for` for every code × modulation × channel (noiseless, AWGN,
//! Rayleigh, erasure, faulty AWGN) at payloads of 1, 63, 64, 65 and 501
//! bits, plus `measure_ber`; it was recorded while the byte-per-bit chain
//! (code `encode`, `modulate`, `transmit`, `demodulate`, code `decode`)
//! still existed, and that chain gave the same digest. Each digest ends
//! with the generator's next draw, so consuming one sample too many or too
//! few fails as well.
//! None of this depends on the worker count; `scripts/ci.sh` still runs the
//! file at `SEMCOM_THREADS` = 1 and 4 beside the other digests.

use rand::{Rng, RngCore};
use semcom_channel::coding::{
    BlockCode, ConvolutionalCode, HammingCode74, IdentityCode, RepetitionCode,
};
use semcom_channel::{
    ArqPipeline, AwgnChannel, BitPipeline, BitVec, Channel, Complex, ErasureChannel, FaultyChannel,
    FeatureScratch, Modulation, NoiselessChannel, RayleighChannel, TransmitScratch,
};
use semcom_fl::{ArqLink, SyncLink};
use semcom_nn::rng::{fill_standard_normal, seeded_rng};

const EXPECTED_NORMALS: u64 = 0xf2fa_905e_b3d3_cc62;
const EXPECTED_AWGN: u64 = 0x6730_5955_ebbc_4438;
const EXPECTED_RAYLEIGH: u64 = 0xa0fd_bd1d_1223_bddf;
const EXPECTED_FEATURES: u64 = 0x9203_0b8c_7808_3fa6;
const EXPECTED_ARQ: u64 = 0x4939_eb59_4747_8b2d;
const EXPECTED_LINK: u64 = 0xc60d_8e1d_6376_684e;
const EXPECTED_PHY: u64 = 0xd1a1_e240_9fc4_8466;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn symbols(&mut self, symbols: &[Complex]) {
        for s in symbols {
            self.u64(s.re.to_bits());
            self.u64(s.im.to_bits());
        }
    }

    /// Folds in the generator's next draw and returns the digest.
    fn finish(mut self, rng: &mut impl Rng) -> u64 {
        self.u64(rng.gen());
        self.0
    }
}

fn symbols() -> Vec<Complex> {
    (0..4097)
        .map(|i| Complex::new((i % 5) as f64 * 0.5 - 1.0, (i % 3) as f64 - 1.0))
        .collect()
}

fn arq() -> ArqPipeline {
    ArqPipeline::new(
        BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Qpsk),
        8,
    )
}

fn frame() -> Vec<u8> {
    (0..8192u32)
        .map(|i| (i.wrapping_mul(37) >> 3) as u8)
        .collect()
}

#[test]
fn a_million_normals_are_bit_identical_to_the_recorded_digest() {
    let mut rng = seeded_rng(31);
    let mut digest = Fnv::new();
    // 1 000 at a time: whole sampler blocks and a partial one per fill.
    let mut normals = [0.0f32; 1000];
    for _ in 0..1000 {
        fill_standard_normal(&mut rng, &mut normals);
        for z in normals {
            digest.bytes(&z.to_bits().to_le_bytes());
        }
    }
    let got = digest.finish(&mut rng);
    assert_eq!(got, EXPECTED_NORMALS, "normals moved: {got:#018x}");
}

#[test]
fn analog_channels_are_bit_identical_to_the_recorded_digests() {
    let tx = symbols();
    let mut rx = Vec::new();

    let mut rng = seeded_rng(32);
    AwgnChannel::new(8.0).transmit_into(&tx, &mut rx, &mut rng);
    let mut digest = Fnv::new();
    digest.symbols(&rx);
    let got = digest.finish(&mut rng);
    assert_eq!(got, EXPECTED_AWGN, "AWGN symbols moved: {got:#018x}");

    let mut rng = seeded_rng(33);
    RayleighChannel::new(8.0).transmit_into(&tx, &mut rx, &mut rng);
    let mut digest = Fnv::new();
    digest.symbols(&rx);
    let got = digest.finish(&mut rng);
    assert_eq!(
        got, EXPECTED_RAYLEIGH,
        "Rayleigh symbols moved: {got:#018x}"
    );

    let mut rng = seeded_rng(34);
    let mut features: Vec<f32> = (0..33).map(|i| (i as f32) * 0.11 - 1.7).collect();
    AwgnChannel::new(8.0).transmit_f32_in_place(
        &mut features,
        &mut FeatureScratch::new(),
        &mut rng,
    );
    let mut digest = Fnv::new();
    for f in &features {
        digest.bytes(&f.to_bits().to_le_bytes());
    }
    let got = digest.finish(&mut rng);
    assert_eq!(got, EXPECTED_FEATURES, "AWGN features moved: {got:#018x}");
}

#[test]
fn arq_frames_are_bit_identical_to_the_recorded_digests() {
    let channel = AwgnChannel::new(10.0);
    let frame = frame();

    let mut rng = seeded_rng(35);
    let bits = BitVec::from_bytes(&frame).to_u8_bits();
    let out = arq().transmit(&bits, &channel, &mut rng);
    let mut digest = Fnv::new();
    digest.bytes(&out.bits);
    digest.u64(out.attempts as u64);
    digest.u64(out.delivered as u64);
    digest.u64(out.symbols as u64);
    let got = digest.finish(&mut rng);
    assert_eq!(got, EXPECTED_ARQ, "ARQ frame moved: {got:#018x}");

    // 6 dB leaves the convolutional code residual errors on a 1 KB frame:
    // three of the eight frames verify, after one to eight attempts each.
    let mut rng = seeded_rng(36);
    let mut link = ArqLink::new(arq(), Box::new(AwgnChannel::new(6.0)));
    let mut digest = Fnv::new();
    for chunk in frame.chunks(1024) {
        let delivered = link.deliver(chunk, &mut rng);
        digest.u64(delivered.len() as u64);
        for f in &delivered {
            digest.bytes(f);
        }
    }
    digest.u64(link.symbols_used());
    let (offered, ok) = link.delivery_counts();
    digest.u64(offered);
    digest.u64(ok);
    let got = digest.finish(&mut rng);
    assert_eq!(got, EXPECTED_LINK, "ARQ link moved: {got:#018x}");
}

type CodeCtor = fn() -> Box<dyn BlockCode + Send + Sync>;

const CODES: [CodeCtor; 4] = [
    || Box::new(IdentityCode),
    || Box::new(RepetitionCode::new(3)),
    || Box::new(HammingCode74),
    || Box::new(ConvolutionalCode),
];

/// `len` payload bits drawn from `rng`, 64 at a time.
fn payload(len: usize, rng: &mut impl RngCore) -> BitVec {
    let mut bits = BitVec::with_capacity(len);
    while bits.len() < len {
        bits.push_bits(rng.next_u64(), (len - bits.len()).min(64));
    }
    bits
}

#[test]
fn bit_pipeline_is_bit_identical_to_the_recorded_digest() {
    let channels: Vec<Box<dyn Channel>> = vec![
        Box::new(NoiselessChannel),
        Box::new(AwgnChannel::new(2.0)),
        Box::new(RayleighChannel::new(6.0)),
        Box::new(ErasureChannel::new(0.1)),
        Box::new(FaultyChannel::new(AwgnChannel::new(4.0), 0.2, 0.05)),
    ];
    let mut data = seeded_rng(37);
    let mut rng = seeded_rng(38);
    let mut scratch = TransmitScratch::new();
    let mut digest = Fnv::new();
    for code in CODES {
        for m in Modulation::ALL {
            let p = BitPipeline::new(code(), m);
            for channel in &channels {
                for len in [1usize, 63, 64, 65, 501] {
                    let bits = payload(len, &mut data);
                    let out = p.transmit_packed(&bits, channel.as_ref(), &mut rng, &mut scratch);
                    digest.u64(out.len() as u64);
                    digest.bytes(&out.to_bytes());
                    digest.u64(p.symbols_for(len) as u64);
                }
            }
            let ber = p.measure_ber(&AwgnChannel::new(3.0), 2_000, &mut rng);
            digest.u64(ber.to_bits());
        }
    }
    let got = digest.finish(&mut rng);
    assert_eq!(got, EXPECTED_PHY, "bit pipeline moved: {got:#018x}");
}
