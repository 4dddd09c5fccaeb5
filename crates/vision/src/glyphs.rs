use rand::{Rng, RngCore};
use semcom_nn::rng::{derive_seed, seeded_rng};

/// Glyph side length in pixels.
pub const GLYPH_SIDE: usize = 12;
/// Pixels per glyph (`GLYPH_SIDE²`).
pub const GLYPH_PIXELS: usize = GLYPH_SIDE * GLYPH_SIDE;

/// A synthetic image modality: one deterministic prototype glyph per
/// visual concept, sampled with pixel noise and ±1-pixel jitter.
///
/// Prototypes are random-walk strokes on a 12×12 canvas — visually distinct
/// with overwhelming probability and reproducible from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct GlyphSet {
    prototypes: Vec<Vec<f32>>,
    /// Probability that a pixel flips in a sample.
    pub pixel_noise: f64,
}

impl GlyphSet {
    /// Creates `n_concepts` prototypes from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_concepts == 0`.
    pub fn new(n_concepts: usize, seed: u64) -> Self {
        assert!(n_concepts > 0, "need at least one glyph");
        let prototypes = (0..n_concepts)
            .map(|c| Self::prototype(derive_seed(seed, c as u64)))
            .collect();
        GlyphSet {
            prototypes,
            pixel_noise: 0.05,
        }
    }

    fn prototype(seed: u64) -> Vec<f32> {
        let mut rng = seeded_rng(seed);
        let mut img = vec![0.0f32; GLYPH_PIXELS];
        // Three random-walk strokes of length 14.
        for _ in 0..3 {
            let mut y = rng.gen_range(1..GLYPH_SIDE - 1) as isize;
            let mut x = rng.gen_range(1..GLYPH_SIDE - 1) as isize;
            for _ in 0..14 {
                img[y as usize * GLYPH_SIDE + x as usize] = 1.0;
                match rng.gen_range(0..4) {
                    0 => y += 1,
                    1 => y -= 1,
                    2 => x += 1,
                    _ => x -= 1,
                }
                y = y.clamp(0, GLYPH_SIDE as isize - 1);
                x = x.clamp(0, GLYPH_SIDE as isize - 1);
            }
        }
        img
    }

    /// Number of visual concepts.
    pub fn len(&self) -> usize {
        self.prototypes.len()
    }

    /// Whether the set is empty (never: `new` rejects zero).
    pub fn is_empty(&self) -> bool {
        self.prototypes.is_empty()
    }

    /// The clean prototype of a concept.
    ///
    /// # Panics
    ///
    /// Panics if `concept` is out of range.
    pub fn prototype_of(&self, concept: usize) -> &[f32] {
        &self.prototypes[concept]
    }

    /// Draws a random concept and a noisy, jittered rendering of it.
    pub fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize) {
        let concept = rng.gen_range(0..self.prototypes.len());
        (self.render(concept, rng), concept)
    }

    /// Renders a noisy, jittered image of `concept`.
    ///
    /// # Panics
    ///
    /// Panics if `concept` is out of range.
    pub fn render(&self, concept: usize, rng: &mut dyn RngCore) -> Vec<f32> {
        let shift = (rng.gen_range(-1i32..=1), rng.gen_range(-1i32..=1));
        let mut img = vec![0.0f32; GLYPH_PIXELS];
        shift_into(&self.prototypes[concept], shift, &mut img);
        flip_pixels(&mut img, self.pixel_noise, rng);
        img
    }

    /// Nearest-prototype classification (Hamming distance on binarized
    /// pixels, minimized over ±1-pixel shifts so rendering jitter does not
    /// penalize the true class) — the receiver-side interpreter of the
    /// pixel baseline.
    pub fn classify(&self, image: &[f32]) -> usize {
        // (distance, concept): the first concept at the least distance.
        let mut best = (usize::MAX, 0);
        let mut shifted = vec![0.0f32; GLYPH_PIXELS];
        for (c, proto) in self.prototypes.iter().enumerate() {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    shifted.fill(0.0);
                    shift_into(proto, (dy, dx), &mut shifted);
                    best = best.min((hamming(&shifted, image), c));
                }
            }
        }
        best.1
    }
}

/// Copies `proto` moved by `(dy, dx)` pixels into the zeroed `out`;
/// pixels that would come from outside the canvas stay 0.
pub(crate) fn shift_into(proto: &[f32], (dy, dx): (i32, i32), out: &mut [f32]) {
    for y in 0..GLYPH_SIDE {
        for x in 0..GLYPH_SIDE {
            let (sy, sx) = (y as i32 - dy, x as i32 - dx);
            if (0..GLYPH_SIDE as i32).contains(&sy) && (0..GLYPH_SIDE as i32).contains(&sx) {
                out[y * GLYPH_SIDE + x] = proto[sy as usize * GLYPH_SIDE + sx as usize];
            }
        }
    }
}

/// Flips each pixel independently with probability `p`.
pub(crate) fn flip_pixels(pixels: &mut [f32], p: f64, rng: &mut dyn RngCore) {
    for px in pixels {
        if rng.gen::<f64>() < p {
            *px = 1.0 - *px;
        }
    }
}

/// Pixels on which the binarized `a` and `b` differ.
pub(crate) fn hamming(a: &[f32], b: &[f32]) -> usize {
    a.iter()
        .zip(b)
        .filter(|(a, b)| (**a >= 0.5) != (**b >= 0.5))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototypes_are_deterministic_and_distinct() {
        let a = GlyphSet::new(8, 3);
        let b = GlyphSet::new(8, 3);
        assert_eq!(a, b);
        for i in 0..8 {
            for j in (i + 1)..8 {
                assert_ne!(a.prototype_of(i), a.prototype_of(j), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn samples_classify_back_to_their_concept() {
        let g = GlyphSet::new(10, 1);
        let mut rng = seeded_rng(5);
        let mut correct = 0;
        let n = 200;
        for _ in 0..n {
            let (img, label) = g.sample(&mut rng);
            if g.classify(&img) == label {
                correct += 1;
            }
        }
        assert!(correct as f64 / n as f64 > 0.9, "{correct}/{n}");
    }

    #[test]
    fn rendering_respects_noise_level() {
        let mut g = GlyphSet::new(4, 2);
        g.pixel_noise = 0.0;
        let mut rng = seeded_rng(6);
        // With no noise and no jitter (search for it), some render matches
        // the prototype exactly.
        let mut exact = false;
        for _ in 0..50 {
            let img = g.render(1, &mut rng);
            if img == g.prototype_of(1) {
                exact = true;
                break;
            }
        }
        assert!(exact, "zero-noise render never matched the prototype");
    }

    #[test]
    fn images_are_binary_valued() {
        let g = GlyphSet::new(3, 7);
        let mut rng = seeded_rng(8);
        let (img, _) = g.sample(&mut rng);
        assert_eq!(img.len(), GLYPH_PIXELS);
        assert!(img.iter().all(|&p| p == 0.0 || p == 1.0));
    }

    #[test]
    #[should_panic(expected = "at least one glyph")]
    fn empty_set_rejected() {
        GlyphSet::new(0, 1);
    }
}
