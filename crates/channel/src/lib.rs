//! # semcom-channel
//!
//! Physical-layer substrate for the `semcom` reproduction: the paper's
//! pipeline is *semantic encoding → channel encoding → physical channel →
//! channel decoding → semantic decoding* (§I); this crate provides
//! everything between the two semantic stages.
//!
//! * [`Complex`] baseband symbols and digital [`Modulation`]s (BPSK, QPSK,
//!   16-QAM) with Gray mapping and unit average symbol energy;
//! * channel models: [`AwgnChannel`], flat-fading [`RayleighChannel`] (with
//!   perfect-CSI equalization), [`BinarySymmetricChannel`], and
//!   [`ErasureChannel`];
//! * channel codes behind the [`coding::BlockCode`] trait: repetition,
//!   Hamming(7,4), and a rate-1/2 convolutional code with Viterbi decoding,
//!   plus CRC-16/32 error detection;
//! * [`BitPipeline`] — code + modulation + channel composed end-to-end, the
//!   *traditional communication* leg of every semantic-vs-traditional
//!   experiment (F2, T1, F6);
//! * [`ArqPipeline`] — CRC-16 framed stop-and-wait retransmission on top
//!   of a bit pipeline (the reliability mechanism of §III-C);
//! * analog feature transmission ([`Channel::transmit_f32`]) — semantic
//!   codecs send real-valued features directly as I/Q samples, the standard
//!   DeepSC-style evaluation setup.
//!
//! Bits are carried word-packed ([`BitVec`]: 64 bits per `u64`, MSB-first)
//! through the whole PHY chain, and every stage has one implementation.
//! [`BitPipeline::transmit_packed`] with a caller-owned [`TransmitScratch`]
//! makes zero heap allocations once warm. The naive byte-per-bit reference
//! the stages are checked against lives in `tests/properties.rs`, not in
//! this crate.
//!
//! # Example: BER of Hamming-coded BPSK over AWGN
//!
//! ```
//! use semcom_channel::{AwgnChannel, BitPipeline, Modulation, coding::HammingCode74};
//! use semcom_nn::rng::seeded_rng;
//!
//! let pipeline = BitPipeline::new(Box::new(HammingCode74), Modulation::Bpsk);
//! let channel = AwgnChannel::new(6.0); // 6 dB SNR
//! let mut rng = seeded_rng(1);
//! let ber = pipeline.measure_ber(&channel, 4_000, &mut rng);
//! assert!(ber < 0.01, "ber {ber}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arq;
mod bits;
mod channel;
mod complex;
mod fault;
mod modulation;
mod pipeline;

pub mod adapt;
pub mod coding;

pub use adapt::{
    AdaptEntry, AdaptError, AdaptSpec, AdaptivePolicy, LinkConfig, LinkDecision, LinkState,
    MarkovSnrModel, MarkovSnrTrace, SnrEstimator,
};
pub use arq::{ArqByteOutcome, ArqOutcome, ArqPipeline};
pub use bits::{BitVec, Bits};
pub use channel::{
    AwgnChannel, BinarySymmetricChannel, Channel, ChannelError, ErasureChannel, FeatureScratch,
    NoiselessChannel, RayleighChannel,
};
pub use complex::Complex;
pub use fault::{FaultConfig, FaultStats, FaultyChannel, FaultyLink};
pub use modulation::Modulation;
pub use pipeline::{BitPipeline, TransmitScratch};

/// Converts an SNR in dB to the per-dimension Gaussian noise standard
/// deviation for unit-energy symbols (`Es = 1`):
/// `sigma = sqrt(1 / (2 * 10^(snr_db / 10)))`.
pub fn snr_db_to_noise_sigma(snr_db: f64) -> f64 {
    let snr = 10f64.powf(snr_db / 10.0);
    (1.0 / (2.0 * snr)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snr_conversion_reference_points() {
        // 0 dB: sigma^2 per dimension = 0.5.
        assert!((snr_db_to_noise_sigma(0.0) - 0.5f64.sqrt()).abs() < 1e-12);
        // +10 dB: ten times less noise power.
        let s0 = snr_db_to_noise_sigma(0.0);
        let s10 = snr_db_to_noise_sigma(10.0);
        assert!(((s0 / s10).powi(2) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn higher_snr_means_less_noise() {
        assert!(snr_db_to_noise_sigma(20.0) < snr_db_to_noise_sigma(-5.0));
    }
}
