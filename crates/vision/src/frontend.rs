use crate::glyphs::{GlyphSet, GLYPH_PIXELS, GLYPH_SIDE};
use crate::video::{VideoSet, FRAMES};
use rand::RngCore;
use semcom_codec::concept::ConceptSource;
use semcom_codec::{Frontend, QuantizedFrontend};
use semcom_nn::layers::{Activation, Conv2d, DenseLayer, MaxPool2};
use semcom_nn::params::Param;
use semcom_nn::quant::{QuantScratch, QuantizedLinear};
use semcom_nn::Tensor;

const CONV_CH: usize = 4;
const KERNEL: usize = 3;

/// The vision front end of a [`KnowledgeBase`](semcom_codec::KnowledgeBase):
/// `Conv2d(in_ch→4, 3×3) → ReLU → MaxPool(2×2)` over 12×12 planes. Images
/// have one input channel; a video clip's frames enter as channels, so the
/// kernels see temporal differences directly. Its int8 form is itself: the
/// 40–112 conv scalars stay f32.
#[derive(Debug, Clone)]
pub struct ConvFrontend {
    conv: Conv2d,
    act: Activation,
    pool: MaxPool2,
}

impl ConvFrontend {
    fn new(in_ch: usize, seed: u64) -> Self {
        let conv_h = GLYPH_SIDE - KERNEL + 1;
        ConvFrontend {
            conv: Conv2d::new(in_ch, CONV_CH, GLYPH_SIDE, GLYPH_SIDE, KERNEL, seed),
            act: Activation::relu(),
            pool: MaxPool2::new(CONV_CH, conv_h, conv_h),
        }
    }
}

impl Frontend for ConvFrontend {
    type Input = Tensor;
    type Quantized = ConvFrontend;

    fn in_len(&self) -> usize {
        self.conv.in_len()
    }

    fn out_len(&self) -> usize {
        self.pool.out_len()
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pool.infer(&self.act.infer(&self.conv.infer(x)))
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let c = self.conv.forward(x);
        let a = self.act.forward(&c);
        self.pool.forward(&a)
    }

    fn backward(&mut self, dout: &Tensor) {
        let da = self.pool.backward(dout);
        let dc = self.act.backward(&da);
        self.conv.backward(&dc);
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.conv.params_mut()
    }

    fn param_count(&self) -> usize {
        let in_ch = self.conv.in_len() / GLYPH_PIXELS;
        CONV_CH * in_ch * KERNEL * KERNEL + CONV_CH
    }

    fn quantize(&self) -> ConvFrontend {
        self.clone()
    }
}

impl QuantizedFrontend<Tensor> for ConvFrontend {
    fn in_len(&self) -> usize {
        self.conv.in_len()
    }

    fn project_into(
        &self,
        proj: &QuantizedLinear,
        x: &Tensor,
        scratch: &mut QuantScratch,
        out: &mut Vec<f32>,
    ) {
        let h = Frontend::infer(self, x);
        proj.forward_into(h.as_slice(), h.rows(), scratch, out);
    }

    fn size_bytes(&self) -> usize {
        self.param_count() * 4
    }
}

impl ConceptSource for GlyphSet {
    type Frontend = ConvFrontend;

    fn classes(&self) -> usize {
        self.len()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize) {
        GlyphSet::sample(self, rng)
    }

    fn frontend(&self, seed: u64) -> ConvFrontend {
        ConvFrontend::new(1, seed)
    }
}

impl ConceptSource for VideoSet {
    type Frontend = ConvFrontend;

    fn classes(&self) -> usize {
        self.len()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> (Vec<f32>, usize) {
        VideoSet::sample(self, rng)
    }

    fn frontend(&self, seed: u64) -> ConvFrontend {
        ConvFrontend::new(FRAMES, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcom_channel::NoiselessChannel;
    use semcom_codec::concept::ConceptTrainConfig;
    use semcom_codec::KnowledgeBase;
    use semcom_nn::rng::seeded_rng;

    fn quick(epochs: usize, samples_per_epoch: usize) -> ConceptTrainConfig {
        ConceptTrainConfig {
            epochs,
            samples_per_epoch,
            train_snr_db: None,
            ..ConceptTrainConfig::default()
        }
    }

    #[test]
    fn training_learns_the_glyphs() {
        let g = GlyphSet::new(6, 1);
        let mut kb = KnowledgeBase::for_source(&g, 8, 2);
        let mut rng = seeded_rng(4);
        let before = kb.accuracy(&g, &NoiselessChannel, 100, &mut rng);
        let loss = kb.train(&g, &quick(6, 240), 5);
        let after = kb.accuracy(&g, &NoiselessChannel, 100, &mut rng);
        assert!(loss < 1.0, "final loss {loss}");
        assert!(after > before, "{before} -> {after}");
        assert!(after > 0.85, "accuracy {after}");
    }

    #[test]
    fn video_kb_learns_motion_concepts() {
        let v = VideoSet::new(3, 1);
        let mut kb = KnowledgeBase::for_source(&v, 8, 2);
        let mut rng = seeded_rng(4);
        let before = kb.accuracy(&v, &NoiselessChannel, 100, &mut rng);
        kb.train(&v, &quick(8, 320), 5);
        let after = kb.accuracy(&v, &NoiselessChannel, 100, &mut rng);
        assert!(after > before, "{before} -> {after}");
        assert!(after > 0.8, "accuracy {after}");
    }

    #[test]
    fn conv_parameters_are_counted_per_input_channel() {
        let mut image = GlyphSet::new(2, 1).frontend(1);
        let mut video = VideoSet::new(2, 1).frontend(1);
        for f in [&mut image, &mut video] {
            let counted: usize = f.params_mut().iter().map(|p| p.len()).sum();
            assert_eq!(f.param_count(), counted);
        }
        assert_eq!(image.param_count(), 40);
        assert_eq!(video.param_count(), 4 * FRAMES * 9 + 4);
    }
}
