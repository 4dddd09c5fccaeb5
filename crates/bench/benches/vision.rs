//! Criterion microbenchmarks for the image (multimodal) codec.

use criterion::{criterion_group, criterion_main, Criterion};
use semcom_channel::AwgnChannel;
use semcom_codec::concept::ConceptTrainConfig;
use semcom_codec::KnowledgeBase;
use semcom_nn::rng::seeded_rng;
use semcom_nn::Tensor;
use semcom_vision::GlyphSet;

fn bench_vision(c: &mut Criterion) {
    let glyphs = GlyphSet::new(8, 1);
    let mut kb = KnowledgeBase::for_source(&glyphs, 8, 2);
    kb.train(
        &glyphs,
        &ConceptTrainConfig {
            epochs: 2,
            samples_per_epoch: 120,
            ..ConceptTrainConfig::default()
        },
        3,
    );
    let mut rng = seeded_rng(4);
    let (img, _) = glyphs.sample(&mut rng);

    c.bench_function("vision/cnn_encode_image", |b| {
        b.iter(|| kb.encode(std::hint::black_box(&img)))
    });

    let features = kb.encode(&img);
    c.bench_function("vision/decode_features", |b| {
        b.iter(|| kb.decode(std::hint::black_box(&features)))
    });

    c.bench_function("vision/transmit_end_to_end", |b| {
        let ch = AwgnChannel::new(8.0);
        let mut rng = seeded_rng(5);
        let img = Tensor::row_from_slice(&img);
        b.iter(|| kb.transmit(&kb, &img, &ch, &mut rng))
    });

    c.bench_function("vision/glyph_render", |b| {
        let mut rng = seeded_rng(6);
        b.iter(|| glyphs.render(3, &mut rng))
    });

    c.bench_function("vision/nearest_prototype_classify", |b| {
        b.iter(|| glyphs.classify(std::hint::black_box(&img)))
    });
}

criterion_group!(benches, bench_vision);
criterion_main!(benches);
