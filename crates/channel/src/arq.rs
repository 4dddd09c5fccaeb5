use crate::bits::BitVec;
use crate::channel::Channel;
use crate::coding::crc16;
use crate::pipeline::{BitPipeline, TransmitScratch};
use rand::RngCore;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Reusable buffers for ARQ framing, shared per thread so repeated frame
/// deliveries (the F6 ARQ sweep sends thousands) stay allocation-free.
#[derive(Default)]
struct ArqScratch {
    frame: BitVec,
    payload: BitVec,
    bytes: Vec<u8>,
    transmit: TransmitScratch,
}

thread_local! {
    static ARQ_SCRATCH: RefCell<ArqScratch> = RefCell::new(ArqScratch::default());
}

/// Outcome of one ARQ frame delivery.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArqOutcome {
    /// The delivered information bits (the last attempt's output, whether
    /// or not it verified).
    pub bits: Vec<u8>,
    /// Transmission attempts used (1 = no retransmission).
    pub attempts: u32,
    /// Whether the final attempt passed the CRC check.
    pub delivered: bool,
    /// Total channel symbols spent across all attempts.
    pub symbols: usize,
}

/// Outcome of one ARQ delivery of a whole-byte payload
/// ([`ArqPipeline::transmit_bytes`]): [`ArqOutcome`] with the payload
/// packed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArqByteOutcome {
    /// The delivered payload bytes (the last attempt's output, whether or
    /// not it verified).
    pub bytes: Vec<u8>,
    /// Transmission attempts used (1 = no retransmission).
    pub attempts: u32,
    /// Whether the final attempt passed the CRC check.
    pub delivered: bool,
    /// Total channel symbols spent across all attempts.
    pub symbols: usize,
}

/// Stop-and-wait automatic repeat request over a [`BitPipeline`], with a
/// CRC-16 frame check — the reliability mechanism of the paper's §III-C
/// ("transmission errors … can be addressed and mitigated through effective
/// channel encoding and decoding").
///
/// Each frame is `payload ‖ CRC-16(payload)`; the receiver NAKs on CRC
/// failure and the sender retransmits up to `max_attempts` times.
pub struct ArqPipeline {
    pipeline: BitPipeline,
    max_attempts: u32,
}

impl std::fmt::Debug for ArqPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ArqPipeline({:?}, max {} attempts)",
            self.pipeline, self.max_attempts
        )
    }
}

impl ArqPipeline {
    /// Wraps a pipeline with ARQ.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts == 0`.
    pub fn new(pipeline: BitPipeline, max_attempts: u32) -> Self {
        assert!(max_attempts > 0, "need at least one attempt");
        ArqPipeline {
            pipeline,
            max_attempts,
        }
    }

    /// The maximum number of attempts per frame.
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Delivers a frame of byte-per-bit `{0, 1}` values, retransmitting on
    /// CRC failure. Framing and transmission run on the packed path with
    /// per-thread scratch.
    pub fn transmit(
        &self,
        bits: &[u8],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> ArqOutcome {
        ARQ_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.frame.clear();
            s.frame.extend_from_u8_bits(bits);
            let (attempts, delivered, symbols) = self.deliver(s, channel, rng);
            ArqOutcome {
                bits: s.payload.to_u8_bits(),
                attempts,
                delivered,
                symbols,
            }
        })
    }

    /// [`Self::transmit`] for a payload of whole bytes, packed in and out:
    /// the same frame, symbols and RNG draws as transmitting the payload's
    /// bits MSB-first, without the one-`u8`-per-bit copies on either side
    /// (a migrated model is a 50 KB frame).
    pub fn transmit_bytes(
        &self,
        payload: &[u8],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> ArqByteOutcome {
        ARQ_SCRATCH.with(|cell| {
            let s = &mut *cell.borrow_mut();
            s.frame.clear();
            s.frame.extend_from_bytes(payload);
            let (attempts, delivered, symbols) = self.deliver(s, channel, rng);
            ArqByteOutcome {
                bytes: s.payload.to_bytes(),
                attempts,
                delivered,
                symbols,
            }
        })
    }

    /// Frames the payload bits in `s.frame`, transmits until the CRC
    /// verifies or the attempts run out, and leaves the last attempt's
    /// payload in `s.payload`. Returns `(attempts, delivered, symbols)`.
    fn deliver(
        &self,
        s: &mut ArqScratch,
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> (u32, bool, usize) {
        // Frame = payload padded to a byte boundary ‖ CRC16 of the
        // padded payload bytes (padding lets the receiver re-derive
        // the CRC input exactly).
        let payload_bits = s.frame.len();
        let pad = (8 - payload_bits % 8) % 8;
        s.frame.push_bits(0, pad);
        s.frame.write_bytes_into(&mut s.bytes);
        let crc = crc16(&s.bytes);
        s.frame.push_bits(crc as u64, 16);
        let frame_payload_bits = s.frame.len() - 16;

        let symbols_per_attempt = self.pipeline.symbols_for(s.frame.len());
        let mut attempts = 0;
        let mut delivered = false;
        while attempts < self.max_attempts {
            attempts += 1;
            let received = self
                .pipeline
                .transmit_packed(&s.frame, channel, rng, &mut s.transmit);
            let rx_crc = received.get_bits(frame_payload_bits, 16) as u16;
            s.payload.copy_from(received);
            s.payload.truncate(frame_payload_bits);
            s.payload.write_bytes_into(&mut s.bytes);
            let ok = crc16(&s.bytes) == rx_crc;
            s.payload.truncate(payload_bits);
            if ok {
                delivered = true;
                break;
            }
        }
        (attempts, delivered, symbols_per_attempt * attempts as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{AwgnChannel, NoiselessChannel};
    use crate::coding::{HammingCode74, IdentityCode};
    use crate::modulation::Modulation;
    use semcom_nn::rng::seeded_rng;

    fn arq(code_hamming: bool, max_attempts: u32) -> ArqPipeline {
        let pipeline = if code_hamming {
            BitPipeline::new(Box::new(HammingCode74), Modulation::Bpsk)
        } else {
            BitPipeline::new(Box::new(IdentityCode), Modulation::Bpsk)
        };
        ArqPipeline::new(pipeline, max_attempts)
    }

    fn bits(n: usize) -> Vec<u8> {
        (0..n).map(|i| ((i * 11) % 2) as u8).collect()
    }

    #[test]
    fn noiseless_delivery_takes_one_attempt() {
        let a = arq(false, 5);
        let mut rng = seeded_rng(1);
        let payload = bits(50);
        let out = a.transmit(&payload, &NoiselessChannel, &mut rng);
        assert!(out.delivered);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.bits, payload);
    }

    #[test]
    fn retransmission_raises_delivery_rate() {
        let channel = AwgnChannel::new(5.0);
        let mut rng = seeded_rng(2);
        let payload = bits(160);
        let one_shot = arq(false, 1);
        let retrying = arq(false, 8);
        let mut delivered_one = 0;
        let mut delivered_retry = 0;
        let n = 120;
        for _ in 0..n {
            if one_shot.transmit(&payload, &channel, &mut rng).delivered {
                delivered_one += 1;
            }
            if retrying.transmit(&payload, &channel, &mut rng).delivered {
                delivered_retry += 1;
            }
        }
        assert!(
            delivered_retry > delivered_one,
            "retry {delivered_retry} vs single {delivered_one}"
        );
    }

    #[test]
    fn delivered_frames_are_crc_clean() {
        let a = arq(true, 6);
        let channel = AwgnChannel::new(4.0);
        let mut rng = seeded_rng(3);
        let payload = bits(96);
        let mut checked = 0;
        for _ in 0..60 {
            let out = a.transmit(&payload, &channel, &mut rng);
            if out.delivered {
                // CRC-verified delivery almost always means exact payload
                // (undetected-error probability ~2^-16).
                assert_eq!(out.bits, payload);
                checked += 1;
            }
        }
        assert!(checked > 0, "no frame ever delivered at 4 dB with FEC");
    }

    #[test]
    fn symbol_cost_scales_with_attempts() {
        let a = arq(false, 4);
        let mut rng = seeded_rng(4);
        let payload = bits(40);
        let out = a.transmit(&payload, &NoiselessChannel, &mut rng);
        // One attempt: 40 payload bits (already byte-aligned) + 16 CRC
        // bits on BPSK.
        assert_eq!(out.symbols, 56);
    }

    #[test]
    fn undeliverable_channel_exhausts_attempts() {
        // -20 dB: essentially pure noise.
        let a = arq(false, 3);
        let channel = AwgnChannel::new(-20.0);
        let mut rng = seeded_rng(5);
        let out = a.transmit(&bits(200), &channel, &mut rng);
        assert!(!out.delivered);
        assert_eq!(out.attempts, 3);
    }

    #[test]
    fn byte_payloads_match_their_bit_expansion() {
        use rand::Rng;
        // 3 dB without FEC: most frames need retransmissions, some fail.
        let (a, channel) = (arq(false, 3), AwgnChannel::new(3.0));
        let (mut rng_bits, mut rng_bytes) = (seeded_rng(6), seeded_rng(6));
        let mut failed = 0;
        for len in [0usize, 1, 7, 64, 300] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + len) as u8).collect();
            let bits = BitVec::from_bytes(&payload).to_u8_bits();
            let by_bit = a.transmit(&bits, &channel, &mut rng_bits);
            let by_byte = a.transmit_bytes(&payload, &channel, &mut rng_bytes);
            let delivered = BitVec::from_u8_bits(&by_bit.bits).to_bytes();
            assert_eq!(by_byte.bytes, delivered, "len {len}");
            assert_eq!(
                (by_byte.attempts, by_byte.delivered, by_byte.symbols),
                (by_bit.attempts, by_bit.delivered, by_bit.symbols),
                "len {len}"
            );
            failed += usize::from(!by_byte.delivered);
        }
        assert!(
            failed > 0,
            "every frame verified: retransmission not covered"
        );
        assert_eq!(rng_bits.gen::<u64>(), rng_bytes.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        arq(false, 0);
    }
}
