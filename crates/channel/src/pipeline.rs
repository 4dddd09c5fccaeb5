use crate::bits::BitVec;
use crate::channel::Channel;
use crate::coding::{BlockCode, CodeScratch};
use crate::modulation::Modulation;
use rand::{Rng, RngCore};
use semcom_obs::{Recorder, Stage};

/// Reusable buffers for one end-to-end [`BitPipeline`] round.
///
/// Every stage of [`BitPipeline::transmit_packed`] writes into one of these
/// buffers, so a warm transmit (buffers already at capacity) performs zero
/// heap allocations — verified by a counting-allocator test in the suite.
#[derive(Debug, Default)]
pub struct TransmitScratch {
    /// Encoder output / demodulator reference length.
    coded: BitVec,
    /// Modulated symbols.
    tx: Vec<crate::complex::Complex>,
    /// Channel output symbols.
    rx: Vec<crate::complex::Complex>,
    /// Demodulated coded bits.
    demod: BitVec,
    /// Decoder output.
    decoded: BitVec,
    /// Decoder workspace (Viterbi survivors).
    code: CodeScratch,
}

impl TransmitScratch {
    /// Creates an empty scratch; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        TransmitScratch::default()
    }
}

/// A complete traditional (bit-level) transmission chain: channel code +
/// modulation over a physical channel.
///
/// This is the baseline leg of the semantic-vs-traditional experiments: the
/// paper contrasts semantic communication with systems "which transmit data
/// bit by bit" (§I).
///
/// Its one transmit path is [`Self::transmit_packed`]: word-packed bits and
/// a caller-owned [`TransmitScratch`], zero allocations when warm.
pub struct BitPipeline {
    code: Box<dyn BlockCode + Send + Sync>,
    modulation: Modulation,
    recorder: Recorder,
}

impl std::fmt::Debug for BitPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BitPipeline({} + {:?})",
            self.code.name(),
            self.modulation
        )
    }
}

impl BitPipeline {
    /// Composes a code and a modulation. Observability starts disabled;
    /// see [`Self::with_recorder`].
    pub fn new(code: Box<dyn BlockCode + Send + Sync>, modulation: Modulation) -> Self {
        BitPipeline {
            code,
            modulation,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder (builder form): every
    /// [`Self::transmit_packed`] stage is timed into the recorder's
    /// `encode` / `modulate` / `channel` / `demodulate` / `decode`
    /// histograms. With the default disabled recorder the spans are inert.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// Attaches (or detaches, via [`Recorder::disabled`]) a recorder on an
    /// existing pipeline.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// The channel code in use.
    pub fn code(&self) -> &(dyn BlockCode + Send + Sync) {
        self.code.as_ref()
    }

    /// The modulation in use.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Transmits an information bit string end-to-end: encode → modulate →
    /// channel → demodulate → decode, every stage writing into `scratch`.
    /// Returns the decoded information bits (trimmed to `bits.len()`),
    /// borrowed from `scratch`.
    ///
    /// Allocation-free once `scratch` buffers are at capacity.
    pub fn transmit_packed<'a>(
        &self,
        bits: &BitVec,
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
        scratch: &'a mut TransmitScratch,
    ) -> &'a BitVec {
        let span = self.recorder.span(Stage::Encode);
        self.code.encode_packed(bits, &mut scratch.coded);
        span.finish();
        let span = self.recorder.span(Stage::Modulate);
        self.modulation
            .modulate_into(&scratch.coded, &mut scratch.tx);
        span.finish();
        let span = self.recorder.span(Stage::Channel);
        channel.transmit_into(&scratch.tx, &mut scratch.rx, rng);
        span.finish();
        let span = self.recorder.span(Stage::Demodulate);
        self.modulation
            .demodulate_into(&scratch.rx, &mut scratch.demod);
        scratch.demod.truncate(scratch.coded.len());
        span.finish();
        let span = self.recorder.span(Stage::Decode);
        self.code
            .decode_packed(&scratch.demod, &mut scratch.decoded, &mut scratch.code);
        scratch.decoded.truncate(bits.len());
        span.finish();
        &scratch.decoded
    }

    /// Number of channel symbols used to carry `k` information bits.
    pub fn symbols_for(&self, k: usize) -> usize {
        self.code
            .coded_len(k)
            .div_ceil(self.modulation.bits_per_symbol())
    }

    /// Measures bit error rate over `n_bits` random information bits.
    ///
    /// Draws one `u32` per information bit and then transmits, matching the
    /// historical RNG consumption order exactly (F2/F6 goldens depend on
    /// it).
    pub fn measure_ber(&self, channel: &dyn Channel, n_bits: usize, rng: &mut dyn RngCore) -> f64 {
        let input: BitVec = (0..n_bits).map(|_| rng.gen::<u32>() & 1 == 1).collect();
        let mut scratch = TransmitScratch::new();
        let errors =
            input.hamming_distance(self.transmit_packed(&input, channel, rng, &mut scratch));
        errors as f64 / n_bits.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{AwgnChannel, NoiselessChannel};
    use crate::coding::{ConvolutionalCode, HammingCode74, IdentityCode, RepetitionCode};
    use semcom_nn::rng::seeded_rng;

    fn transmit(
        p: &BitPipeline,
        bits: &BitVec,
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> BitVec {
        p.transmit_packed(bits, channel, rng, &mut TransmitScratch::new())
            .clone()
    }

    #[test]
    fn noiseless_pipeline_is_exact() {
        let mut rng = seeded_rng(1);
        for code in [
            Box::new(IdentityCode) as Box<dyn crate::coding::BlockCode + Send + Sync>,
            Box::new(HammingCode74),
            Box::new(ConvolutionalCode),
        ] {
            let p = BitPipeline::new(code, Modulation::Qam16);
            let bits: BitVec = (0..123).map(|i| (i * 5) % 2 == 1).collect();
            assert_eq!(transmit(&p, &bits, &NoiselessChannel, &mut rng), bits);
        }
    }

    #[test]
    fn coding_gain_is_visible_at_moderate_snr() {
        let mut rng = seeded_rng(2);
        let ch = AwgnChannel::new(4.0);
        let uncoded = BitPipeline::new(Box::new(IdentityCode), Modulation::Bpsk)
            .measure_ber(&ch, 30_000, &mut rng);
        let conv = BitPipeline::new(Box::new(ConvolutionalCode), Modulation::Bpsk)
            .measure_ber(&ch, 30_000, &mut rng);
        assert!(conv < uncoded, "conv {conv} vs uncoded {uncoded}");
    }

    #[test]
    fn symbols_for_accounts_for_rate_and_modulation() {
        let p = BitPipeline::new(Box::new(RepetitionCode::new(3)), Modulation::Qpsk);
        // 100 info bits -> 300 coded bits -> 150 QPSK symbols.
        assert_eq!(p.symbols_for(100), 150);
        let p2 = BitPipeline::new(Box::new(HammingCode74), Modulation::Bpsk);
        // 100 -> 25 blocks of 7 = 175 bits -> 175 symbols.
        assert_eq!(p2.symbols_for(100), 175);
    }

    #[test]
    fn ber_is_zero_on_noiseless_channel() {
        let mut rng = seeded_rng(3);
        let p = BitPipeline::new(Box::new(HammingCode74), Modulation::Qpsk);
        assert_eq!(p.measure_ber(&NoiselessChannel, 1_000, &mut rng), 0.0);
    }

    #[test]
    fn measure_ber_matches_legacy_rng_order() {
        // The historical recipe: one `u32` per information bit, then one
        // transmit, then count the errors. `measure_ber` must agree exactly.
        let ch = AwgnChannel::new(3.0);
        let p = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16);
        let n_bits = 5_000;

        let mut rng = seeded_rng(7);
        let bits: BitVec = (0..n_bits).map(|_| rng.gen::<u32>() & 1 == 1).collect();
        let out = transmit(&p, &bits, &ch, &mut rng);
        let legacy_ber = bits.hamming_distance(&out) as f64 / n_bits as f64;

        let packed_ber = p.measure_ber(&ch, n_bits, &mut seeded_rng(7));
        assert_eq!(packed_ber.to_bits(), legacy_ber.to_bits());
    }

    #[test]
    fn recorder_counts_every_phy_stage_once_per_frame() {
        let rec = Recorder::with_ticks();
        let p =
            BitPipeline::new(Box::new(HammingCode74), Modulation::Qpsk).with_recorder(rec.clone());
        let mut rng = seeded_rng(5);
        let bits: BitVec = (0..64).map(|i| i % 2 == 1).collect();
        for _ in 0..3 {
            transmit(&p, &bits, &AwgnChannel::new(6.0), &mut rng);
        }
        for stage in [
            Stage::Encode,
            Stage::Modulate,
            Stage::Channel,
            Stage::Demodulate,
            Stage::Decode,
        ] {
            assert_eq!(rec.stage_histogram(stage).unwrap().count(), 3, "{stage:?}");
        }
        // Timing never perturbs the data path.
        let plain = BitPipeline::new(Box::new(HammingCode74), Modulation::Qpsk);
        assert_eq!(
            transmit(&p, &bits, &AwgnChannel::new(6.0), &mut seeded_rng(9)),
            transmit(&plain, &bits, &AwgnChannel::new(6.0), &mut seeded_rng(9)),
        );
    }
}
