//! Deterministic fault injection for transport experiments.
//!
//! Two planes of injected impairment:
//!
//! * [`FaultyLink`] — a frame-plane fault model: whole sync frames are
//!   dropped, byte-corrupted, duplicated, or reordered at configurable
//!   seeded rates. This models everything *above* the PHY (queue overflow,
//!   middlebox bugs, stale retransmissions) and is the workhorse of the T7
//!   fault sweep.
//! * [`FaultyChannel`] — a symbol-plane wrapper over any [`Channel`]: whole
//!   transmissions are erased or individual symbols sign-flipped *in
//!   addition to* the inner channel's own impairment, stressing the ARQ/CRC
//!   layer underneath the sync transport.
//!
//! Both draw from a private seeded [`StdRng`] (link) or the caller's RNG
//! (channel), so a given seed reproduces the exact fault pattern on every
//! run and thread count — the property the golden-checked sweep relies on.

use crate::channel::Channel;
use crate::complex::Complex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Per-frame fault probabilities for [`FaultyLink`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Probability a frame is silently lost.
    pub drop: f64,
    /// Probability 1–3 payload bytes are flipped.
    pub corrupt: f64,
    /// Probability the frame arrives twice.
    pub duplicate: f64,
    /// Probability the frame is delayed behind the next one.
    pub reorder: f64,
}

impl FaultConfig {
    /// No faults: the link is perfect.
    pub fn clean() -> Self {
        FaultConfig {
            drop: 0.0,
            corrupt: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }

    /// The same rate for every fault kind.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not in `[0, 1]`.
    pub fn uniform(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        FaultConfig {
            drop: rate,
            corrupt: rate,
            duplicate: rate,
            reorder: rate,
        }
    }
}

/// Counters for the faults a [`FaultyLink`] actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Frames offered to the link.
    pub frames: u64,
    /// Frames silently dropped.
    pub dropped: u64,
    /// Frames delivered with flipped bytes.
    pub corrupted: u64,
    /// Frames delivered twice.
    pub duplicated: u64,
    /// Frames delayed behind their successor.
    pub reordered: u64,
}

impl FaultStats {
    /// Total injected perturbations across every fault class. One frame
    /// can contribute several (e.g. corrupted *and* duplicated), so this
    /// may exceed `frames`.
    pub fn perturbed(&self) -> u64 {
        self.dropped + self.corrupted + self.duplicated + self.reordered
    }
}

/// A seeded frame-plane fault injector: every frame pushed through
/// [`FaultyLink::transit`] is independently dropped, corrupted, duplicated,
/// and/or reordered according to a [`FaultConfig`].
///
/// # RNG contract
///
/// Every frame first draws four uniforms (drop, corrupt, duplicate,
/// reorder, in that order). A frame that is then corrupted (not dropped,
/// not empty) draws more: a flip count and, per flip, a byte index and a
/// mask. The index comes from `gen_range(0..len)`, whose rejection
/// sampling takes a number of draws that depends on the payload length.
/// So the fault pattern is a fixed function of the seed and the frame
/// *index* only until the first corruption (always, with `corrupt = 0.0`).
/// After it, two links with the same seed see identical faults only while
/// their corrupted payloads have the same lengths.
#[derive(Debug)]
pub struct FaultyLink {
    config: FaultConfig,
    rng: StdRng,
    /// A reordered frame waiting to be released behind its successor.
    held: Option<Vec<u8>>,
    stats: FaultStats,
}

impl FaultyLink {
    /// Creates a link with the given fault rates and RNG seed.
    pub fn new(config: FaultConfig, seed: u64) -> Self {
        FaultyLink {
            config,
            rng: StdRng::seed_from_u64(seed),
            held: None,
            stats: FaultStats::default(),
        }
    }

    /// The configured fault rates.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Counters of faults injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Pushes one frame through the link, returning the frames that come
    /// out the far end **in arrival order**: zero (dropped or held for
    /// reordering), one, or more (duplicates, plus a previously held frame
    /// released behind this one).
    pub fn transit(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
        self.stats.frames += 1;
        // Four draws per frame; a corrupted frame draws more below.
        let drop = self.rng.gen::<f64>() < self.config.drop;
        let corrupt = self.rng.gen::<f64>() < self.config.corrupt;
        let duplicate = self.rng.gen::<f64>() < self.config.duplicate;
        let reorder = self.rng.gen::<f64>() < self.config.reorder;

        let prior = self.held.take();
        let mut out = Vec::new();
        if drop {
            self.stats.dropped += 1;
        } else {
            let mut delivered = frame.to_vec();
            if corrupt && !delivered.is_empty() {
                self.stats.corrupted += 1;
                let flips = 1 + (self.rng.gen::<u32>() % 3) as usize;
                for _ in 0..flips {
                    let i = self.rng.gen_range(0..delivered.len());
                    // A zero mask would be a no-op "corruption".
                    let mask = self.rng.gen_range(1..=255u8);
                    delivered[i] ^= mask;
                }
            }
            if duplicate {
                self.stats.duplicated += 1;
                out.push(delivered.clone());
            }
            if reorder {
                self.stats.reordered += 1;
                self.held = Some(delivered);
            } else {
                out.push(delivered);
            }
        }
        // A held frame is released *behind* the current one.
        if let Some(old) = prior {
            out.push(old);
        }
        out
    }

    /// Releases a frame still held for reordering, if any (end of session).
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        self.held.take()
    }
}

/// A symbol-plane fault wrapper: composes whole-transmission erasure and
/// per-symbol sign flips on top of any inner [`Channel`].
///
/// An erased transmission returns all-zero symbols — the demodulator sees
/// pure noise-floor decisions and the ARQ CRC check fails, modeling a lost
/// frame at the PHY.
#[derive(Debug, Clone)]
pub struct FaultyChannel<C> {
    inner: C,
    drop_rate: f64,
    corrupt_rate: f64,
}

impl<C: Channel> FaultyChannel<C> {
    /// Wraps `inner`, erasing whole transmissions with probability
    /// `drop_rate` and sign-flipping surviving symbols with probability
    /// `corrupt_rate` each.
    ///
    /// # Panics
    ///
    /// Panics if either rate is not in `[0, 1]`.
    pub fn new(inner: C, drop_rate: f64, corrupt_rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_rate) && (0.0..=1.0).contains(&corrupt_rate),
            "rates must be in [0, 1]"
        );
        FaultyChannel {
            inner,
            drop_rate,
            corrupt_rate,
        }
    }
}

impl<C: Channel> Channel for FaultyChannel<C> {
    fn transmit_into(&self, symbols: &[Complex], out: &mut Vec<Complex>, rng: &mut dyn RngCore) {
        // Drop decision first, so the fault pattern does not depend on the
        // inner channel's RNG appetite.
        if rng.gen::<f64>() < self.drop_rate {
            out.clear();
            out.resize(symbols.len(), Complex::ZERO);
            return;
        }
        self.inner.transmit_into(symbols, out, rng);
        if self.corrupt_rate > 0.0 {
            for s in out.iter_mut() {
                if rng.gen::<f64>() < self.corrupt_rate {
                    *s = Complex::new(-s.re, -s.im);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::NoiselessChannel;
    use semcom_nn::rng::seeded_rng;

    fn frame(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn clean_link_is_identity() {
        let mut link = FaultyLink::new(FaultConfig::clean(), 7);
        for _ in 0..50 {
            let out = link.transit(&frame(64));
            assert_eq!(out, vec![frame(64)]);
        }
        assert_eq!(link.stats().dropped, 0);
        assert!(link.flush().is_none());
    }

    #[test]
    fn fault_pattern_is_deterministic_in_seed() {
        let run = || {
            let mut link = FaultyLink::new(FaultConfig::uniform(0.3), 42);
            let mut all = Vec::new();
            for i in 0..100 {
                all.extend(link.transit(&frame(16 + i % 5)));
            }
            (all, link.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn without_corruption_faults_depend_on_the_frame_index_only() {
        // corrupt = 0.0 keeps every frame at four draws, so payloads of
        // different lengths see the same drops, duplicates and reorders.
        let cfg = FaultConfig {
            corrupt: 0.0,
            ..FaultConfig::uniform(0.3)
        };
        let (mut short, mut long) = (FaultyLink::new(cfg, 11), FaultyLink::new(cfg, 11));
        // Each frame's bytes are its index, so arrivals name their frame.
        let arrivals = |out: Vec<Vec<u8>>| out.iter().map(|f| f[0]).collect::<Vec<_>>();
        for i in 0..200u8 {
            let a = arrivals(short.transit(&vec![i; 1 + i as usize % 3]));
            let b = arrivals(long.transit(&vec![i; 500 + i as usize]));
            assert_eq!(a, b, "frame {i}");
        }
        assert_eq!(short.flush().map(|f| f[0]), long.flush().map(|f| f[0]));
        assert_eq!(short.stats(), long.stats());
        assert!(short.stats().perturbed() > 0);
    }

    #[test]
    fn all_fault_kinds_fire_at_high_rates() {
        let mut link = FaultyLink::new(FaultConfig::uniform(0.5), 3);
        for _ in 0..200 {
            link.transit(&frame(32));
        }
        let s = link.stats();
        assert!(s.dropped > 0, "{s:?}");
        assert!(s.corrupted > 0, "{s:?}");
        assert!(s.duplicated > 0, "{s:?}");
        assert!(s.reordered > 0, "{s:?}");
    }

    #[test]
    fn corrupted_frames_differ_from_input() {
        let cfg = FaultConfig {
            corrupt: 1.0,
            ..FaultConfig::clean()
        };
        let mut link = FaultyLink::new(cfg, 9);
        for _ in 0..20 {
            for out in link.transit(&frame(40)) {
                assert_ne!(out, frame(40));
                assert_eq!(out.len(), 40);
            }
        }
    }

    #[test]
    fn reordering_swaps_adjacent_frames() {
        let cfg = FaultConfig {
            reorder: 1.0,
            ..FaultConfig::clean()
        };
        let mut link = FaultyLink::new(cfg, 1);
        assert!(link.transit(&[1]).is_empty());
        // Frame 2 is itself held; frame 1 is released behind it — here that
        // means frame 1 arrives alone again.
        assert_eq!(link.transit(&[2]), vec![vec![1]]);
        assert_eq!(link.flush(), Some(vec![2]));
    }

    #[test]
    fn duplicates_arrive_twice() {
        let cfg = FaultConfig {
            duplicate: 1.0,
            ..FaultConfig::clean()
        };
        let mut link = FaultyLink::new(cfg, 2);
        assert_eq!(link.transit(&[9, 9]), vec![vec![9, 9], vec![9, 9]]);
    }

    #[test]
    fn faulty_channel_drop_erases_all_symbols() {
        let ch = FaultyChannel::new(NoiselessChannel, 1.0, 0.0);
        let mut rng = seeded_rng(5);
        let sym = vec![Complex::new(1.0, -1.0); 10];
        let out = ch.transmit(&sym, &mut rng);
        assert!(out.iter().all(|c| c.norm_sq() == 0.0));
        assert_eq!(out.len(), sym.len());
    }

    #[test]
    fn faulty_channel_corrupt_flips_signs() {
        let ch = FaultyChannel::new(NoiselessChannel, 0.0, 1.0);
        let mut rng = seeded_rng(6);
        let sym = vec![Complex::new(1.0, 2.0); 8];
        let out = ch.transmit(&sym, &mut rng);
        for s in out {
            assert_eq!(s.re, -1.0);
            assert_eq!(s.im, -2.0);
        }
    }

    #[test]
    fn faulty_channel_zero_rates_is_inner() {
        let ch = FaultyChannel::new(NoiselessChannel, 0.0, 0.0);
        let mut rng = seeded_rng(7);
        let sym = vec![Complex::new(0.5, 0.25); 4];
        assert_eq!(ch.transmit(&sym, &mut rng), sym);
    }
}
