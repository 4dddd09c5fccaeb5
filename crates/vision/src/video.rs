//! The video leg of the multimodal extension (§III-B): short glyph clips
//! whose **meaning is the motion**, not the pixels.
//!
//! A video concept is a `(glyph, motion)` pair: a base glyph translating
//! across [`FRAMES`] frames in one of four directions. The semantic codec
//! must therefore integrate *temporal* structure — a single frame does not
//! identify the concept — which is exactly what distinguishes video from
//! image coding.

use crate::glyphs::{flip_pixels, hamming, shift_into, GlyphSet, GLYPH_PIXELS};
use rand::{Rng, RngCore};
use semcom_nn::rng::{derive_seed, seeded_rng};

/// Frames per clip.
pub const FRAMES: usize = 3;
/// Flattened sample count of one clip (`FRAMES × GLYPH_PIXELS`).
pub const CLIP_SAMPLES: usize = FRAMES * GLYPH_PIXELS;

/// The four motion primitives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Motion {
    /// No movement across frames.
    Still,
    /// One pixel right per frame.
    Right,
    /// One pixel down per frame.
    Down,
    /// One pixel down-right per frame.
    Diagonal,
}

impl Motion {
    /// All motions, in class order.
    pub const ALL: [Motion; 4] = [Motion::Still, Motion::Right, Motion::Down, Motion::Diagonal];

    fn delta(self) -> (i32, i32) {
        match self {
            Motion::Still => (0, 0),
            Motion::Right => (0, 1),
            Motion::Down => (1, 0),
            Motion::Diagonal => (1, 1),
        }
    }
}

/// A synthetic video modality: concepts are `(glyph, motion)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoSet {
    glyphs: GlyphSet,
    /// Probability that a pixel flips in each rendered frame.
    pub pixel_noise: f64,
}

impl VideoSet {
    /// Creates a video set over `n_glyphs` base glyphs (so
    /// `n_glyphs × 4` concepts).
    pub fn new(n_glyphs: usize, seed: u64) -> Self {
        VideoSet {
            glyphs: GlyphSet::new(n_glyphs, derive_seed(seed, 0)),
            pixel_noise: 0.03,
        }
    }

    /// Number of video concepts (`glyphs × motions`).
    pub fn len(&self) -> usize {
        self.glyphs.len() * Motion::ALL.len()
    }

    /// Whether the set is empty (never: glyph sets are non-empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Decomposes a concept index into `(glyph, motion)`.
    ///
    /// # Panics
    ///
    /// Panics if `concept` is out of range.
    pub fn decompose(&self, concept: usize) -> (usize, Motion) {
        assert!(concept < self.len(), "concept out of range");
        (concept / 4, Motion::ALL[concept % 4])
    }

    /// Draws a random concept and a noisy rendering of it.
    pub fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize) {
        let concept = rng.gen_range(0..self.len());
        (self.render(concept, rng), concept)
    }

    /// Renders a clip of `concept` as `FRAMES` channel-major frames.
    ///
    /// # Panics
    ///
    /// Panics if `concept` is out of range.
    pub fn render(&self, concept: usize, rng: &mut dyn RngCore) -> Vec<f32> {
        let (glyph, motion) = self.decompose(concept);
        let (dy, dx) = motion.delta();
        let proto = self.glyphs.prototype_of(glyph);
        let mut clip = vec![0.0f32; CLIP_SAMPLES];
        for (f, frame) in clip.chunks_exact_mut(GLYPH_PIXELS).enumerate() {
            shift_into(proto, (dy * f as i32, dx * f as i32), frame);
            flip_pixels(frame, self.pixel_noise, rng);
        }
        clip
    }

    /// Nearest-prototype classification over whole clips (clean renders of
    /// every concept as the reference bank) — the baseline receiver.
    pub fn classify(&self, clip: &[f32]) -> usize {
        // Clean references: renders with zero pixel noise.
        let mut clean = self.clone();
        clean.pixel_noise = 0.0;
        let mut scratch = seeded_rng(0);
        (0..self.len())
            .min_by_key(|&c| hamming(&clean.render(c, &mut scratch), clip))
            .expect("video sets are non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concepts_decompose_into_glyph_and_motion() {
        let v = VideoSet::new(3, 1);
        assert_eq!(v.len(), 12);
        assert_eq!(v.decompose(0), (0, Motion::Still));
        assert_eq!(v.decompose(5), (1, Motion::Right));
        assert_eq!(v.decompose(11), (2, Motion::Diagonal));
    }

    #[test]
    fn motion_actually_moves_the_glyph() {
        let mut v = VideoSet::new(2, 1);
        v.pixel_noise = 0.0;
        let mut rng = seeded_rng(2);
        let still = v.render(0, &mut rng); // glyph 0, Still
        let right = v.render(1, &mut rng); // glyph 0, Right
                                           // Same first frame…
        assert_eq!(still[..GLYPH_PIXELS], right[..GLYPH_PIXELS]);
        // …different later frames.
        assert_ne!(
            still[2 * GLYPH_PIXELS..],
            right[2 * GLYPH_PIXELS..],
            "motion must change frame 3"
        );
    }

    #[test]
    fn baseline_classifier_recovers_clean_clips() {
        let v = VideoSet::new(3, 1);
        let mut rng = seeded_rng(3);
        let mut correct = 0;
        let n = 60;
        for _ in 0..n {
            let (clip, label) = v.sample(&mut rng);
            if v.classify(&clip) == label {
                correct += 1;
            }
        }
        assert!(correct as f64 / n as f64 > 0.9, "{correct}/{n}");
    }
}
