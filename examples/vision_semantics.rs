//! Multimodal semantic communication (paper §III-B): transmit the *meaning*
//! of an image in four complex symbols instead of 252 coded pixel symbols.
//!
//! ```sh
//! cargo run --release --example vision_semantics
//! ```

use semcom_channel::coding::HammingCode74;
use semcom_channel::{AwgnChannel, Modulation};
use semcom_codec::concept::ConceptTrainConfig;
use semcom_codec::KnowledgeBase;
use semcom_nn::rng::seeded_rng;
use semcom_vision::{GlyphSet, PixelBaseline, GLYPH_SIDE};

fn main() {
    let glyphs = GlyphSet::new(12, 7);
    println!(
        "synthetic visual modality: {} concepts, {GLYPH_SIDE}x{GLYPH_SIDE} glyphs\n",
        glyphs.len()
    );

    // Show one prototype as ASCII art.
    let proto = glyphs.prototype_of(0);
    println!("concept 0 prototype:");
    for y in 0..GLYPH_SIDE {
        let row: String = (0..GLYPH_SIDE)
            .map(|x| {
                if proto[y * GLYPH_SIDE + x] >= 0.5 {
                    '#'
                } else {
                    '.'
                }
            })
            .collect();
        println!("  {row}");
    }

    println!("\ntraining the CNN knowledge base…");
    let mut kb = KnowledgeBase::for_source(&glyphs, 8, 1);
    kb.train(
        &glyphs,
        &ConceptTrainConfig {
            epochs: 10,
            samples_per_epoch: 600,
            ..ConceptTrainConfig::default()
        },
        2,
    );
    let baseline = PixelBaseline::new(Box::new(HammingCode74), Modulation::Bpsk);

    println!(
        "payload per image: semantic {} symbols vs pixel pipeline {} symbols\n",
        kb.symbols_for(1),
        baseline.symbols_per_image()
    );

    println!("  SNR(dB) | semantic acc | pixel acc (equal energy/image)");
    println!("  --------+--------------+-------------------------------");
    let handicap = 10.0 * (baseline.symbols_per_image() as f64 / kb.symbols_for(1) as f64).log10();
    for snr in [-3.0, 0.0, 3.0, 6.0, 12.0] {
        let mut rng = seeded_rng(50 + snr as i64 as u64);
        let sem = kb.accuracy(&glyphs, &AwgnChannel::new(snr), 300, &mut rng);
        let pix = baseline.accuracy(&glyphs, &AwgnChannel::new(snr - handicap), 300, &mut rng);
        println!("  {snr:>7.1} | {sem:>12.3} | {pix:>12.3}");
    }
    println!("\nunder an equal energy budget per image, shipping meaning beats");
    println!("shipping pixels everywhere below ~{handicap:.0} dB.");
}
