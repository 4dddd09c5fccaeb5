use crate::glyphs::{GlyphSet, GLYPH_PIXELS};
use rand::RngCore;
use semcom_channel::coding::BlockCode;
use semcom_channel::{BitPipeline, BitVec, Channel, Modulation, TransmitScratch};

/// The traditional leg for images: binarize pixels, ship them through a
/// channel-coded bit pipeline, classify at the receiver by nearest
/// prototype.
///
/// Contrasts with the CNN [`KnowledgeBase`](semcom_codec::KnowledgeBase)
/// exactly as the text baseline contrasts with the text KBs: pixels
/// (syntax) on the wire instead of the concept (semantics), costing
/// `GLYPH_PIXELS / rate / bits-per-symbol` channel uses instead of a
/// handful of analog symbols.
pub struct PixelBaseline {
    pipeline: BitPipeline,
}

impl std::fmt::Debug for PixelBaseline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PixelBaseline({:?})", self.pipeline)
    }
}

impl PixelBaseline {
    /// Builds the baseline from a channel code and modulation.
    pub fn new(code: Box<dyn BlockCode + Send + Sync>, modulation: Modulation) -> Self {
        PixelBaseline {
            pipeline: BitPipeline::new(code, modulation),
        }
    }

    /// Channel symbols needed per image.
    pub fn symbols_per_image(&self) -> usize {
        self.pipeline.symbols_for(GLYPH_PIXELS)
    }

    /// Transmits an image; returns the receiver's reconstructed pixels.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != GLYPH_PIXELS`.
    pub fn transmit(
        &self,
        image: &[f32],
        channel: &dyn Channel,
        rng: &mut dyn RngCore,
    ) -> Vec<f32> {
        assert_eq!(image.len(), GLYPH_PIXELS, "wrong image size");
        let bits: BitVec = image.iter().map(|&p| p >= 0.5).collect();
        let mut scratch = TransmitScratch::new();
        let received = self
            .pipeline
            .transmit_packed(&bits, channel, rng, &mut scratch);
        received.iter().map(|b| f32::from(u8::from(b))).collect()
    }

    /// End-to-end classification accuracy over `n` fresh samples.
    pub fn accuracy(
        &self,
        glyphs: &GlyphSet,
        channel: &dyn Channel,
        n: usize,
        rng: &mut dyn RngCore,
    ) -> f64 {
        let mut correct = 0;
        for _ in 0..n {
            let (img, label) = glyphs.sample(rng);
            let received = self.transmit(&img, channel, rng);
            if glyphs.classify(&received) == label {
                correct += 1;
            }
        }
        correct as f64 / n.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcom_channel::coding::HammingCode74;
    use semcom_channel::{AwgnChannel, NoiselessChannel};
    use semcom_nn::rng::seeded_rng;

    fn baseline() -> PixelBaseline {
        PixelBaseline::new(Box::new(HammingCode74), Modulation::Bpsk)
    }

    #[test]
    fn noiseless_transmission_preserves_pixels() {
        let g = GlyphSet::new(4, 1);
        let b = baseline();
        let mut rng = seeded_rng(2);
        let (img, _) = g.sample(&mut rng);
        let out = b.transmit(&img, &NoiselessChannel, &mut rng);
        assert_eq!(out, img);
    }

    #[test]
    fn noiseless_accuracy_matches_classifier_ceiling() {
        let g = GlyphSet::new(6, 1);
        let b = baseline();
        let mut rng = seeded_rng(3);
        let acc = b.accuracy(&g, &NoiselessChannel, 150, &mut rng);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn low_snr_degrades_classification() {
        let g = GlyphSet::new(6, 1);
        let b = baseline();
        let mut rng = seeded_rng(4);
        let clean = b.accuracy(&g, &NoiselessChannel, 100, &mut rng);
        let noisy = b.accuracy(&g, &AwgnChannel::new(-6.0), 100, &mut rng);
        assert!(noisy < clean, "{noisy} !< {clean}");
    }

    #[test]
    fn symbol_cost_reflects_code_and_modulation() {
        let b = baseline();
        // 144 pixels -> 36 Hamming blocks of 7 -> 252 BPSK symbols.
        assert_eq!(b.symbols_per_image(), 252);
    }
}
