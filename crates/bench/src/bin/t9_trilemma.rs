//! T9 — the accuracy–latency–size trilemma for the semantic codecs
//! (PR 6; framing from the tiny-LM-for-6G line of work in PAPERS.md).
//!
//! Three stacked serving optimizations are measured against the fp32
//! scalar path they replace:
//!
//! * **SIMD lanes** — the 8-lane fp32 microkernel in `semcom-nn`
//!   (bit-identical to the retained scalar reference, so it moves only
//!   the latency corner of the trilemma);
//! * **int8 post-training quantization** — ~4x smaller models, i32
//!   accumulation (moves the size corner, gated to <1% accuracy loss by
//!   `crates/codec/tests/quant_accuracy.rs`);
//! * **cross-user batch encode** — many users' tokens packed into one
//!   activation matrix to amortize per-call dispatch.
//!
//! Sections: (A) raw kernel latency, SIMD vs scalar reference;
//! (B) per-codec trilemma rows (text / image / audio: task accuracy,
//! p50 encode latency, model bytes, fp32 vs int8); (C) single-thread text
//! encoder throughput as the optimizations stack — the ≥3x claim recorded
//! in BENCH_pr6.json.
//!
//! Wall-clock timings vary run to run, so this binary is **not**
//! golden-checked; the bit-identity and accuracy claims it narrates are
//! enforced by deterministic tests instead.

use std::time::Instant;

use semcom_audio::ToneSet;
use semcom_bench::banner;
use semcom_channel::NoiselessChannel;
use semcom_codec::concept::ConceptTrainConfig;
use semcom_codec::eval::{evaluate_semantic, evaluate_semantic_quantized};
use semcom_codec::train::{TrainConfig, Trainer};
use semcom_codec::{CodecConfig, EncodeScratch, KbScope, KnowledgeBase};
use semcom_nn::rng::seeded_rng;
use semcom_nn::Tensor;
use semcom_text::{
    CorpusGenerator, Domain, LanguageConfig, Rendering, Sentence, SyntheticLanguage,
};
use semcom_vision::GlyphSet;

/// Median wall-clock nanoseconds of `f` over `reps` calls.
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    samples.sort_by(f64::total_cmp);
    samples[reps / 2]
}

fn pseudo(rows: usize, cols: usize, seed: u64) -> Tensor {
    use rand::Rng;
    let mut rng = seeded_rng(seed);
    let data = (0..rows * cols).map(|_| rng.gen::<f32>() - 0.5).collect();
    Tensor::from_vec(rows, cols, data).expect("length matches")
}

/// The PR-1 serving path, reproduced: embedding gather, then the scalar
/// reference kernel for the projection, then power normalization. The
/// "before" leg of every speedup this binary reports.
fn scalar_encode(kb: &KnowledgeBase, tokens: &[usize]) -> Tensor {
    let table = kb.encoder.frontend().table();
    let d = table.cols();
    let mut emb = Vec::with_capacity(tokens.len() * d);
    for &t in tokens {
        emb.extend_from_slice(table.row(t));
    }
    let emb = Tensor::from_vec(tokens.len(), d, emb).expect("gather preserves shape");
    let p = emb
        .matmul_reference(kb.encoder.proj().weight())
        .add_row_broadcast(kb.encoder.proj().bias());
    kb.encoder.norm().infer(&p)
}

fn trained_text() -> (SyntheticLanguage, KnowledgeBase, Vec<Sentence>) {
    let lang = LanguageConfig::tiny().build(0);
    let mut gen = CorpusGenerator::new(&lang, 1);
    let train = gen.sentences(Domain::It, Rendering::Canonical, 80);
    let test = gen.sentences(Domain::It, Rendering::Canonical, 20);
    let mut kb = KnowledgeBase::new(
        CodecConfig::tiny(),
        lang.vocab().len(),
        lang.concept_count(),
        KbScope::DomainGeneral(Domain::It),
        3,
    );
    Trainer::new(TrainConfig {
        epochs: 12,
        train_snr_db: Some(6.0),
        ..TrainConfig::default()
    })
    .fit(&mut kb, &train, 5);
    (lang, kb, test)
}

fn main() {
    banner(
        "T9",
        "accuracy-latency-size trilemma: SIMD lanes, int8 quantization, batched encode",
        "edge semantic codecs live or die on encode/decode latency; model \
         size is what the semantic cache and cloud-to-edge fetch pay for",
    );
    semcom_par::set_workers(1); // every number below is single-thread

    // --- A: kernel latency, SIMD microkernel vs scalar reference -------
    println!("\n--- A: matmul kernel, SIMD vs scalar reference (1 thread) ---");
    println!("n,scalar_ns,simd_ns,speedup");
    for n in [32usize, 128, 512] {
        let a = pseudo(n, n, 1);
        let b = pseudo(n, n, 2);
        let reps = if n >= 512 { 30 } else { 200 };
        let scalar = median_ns(reps, || {
            std::hint::black_box(a.matmul_reference(std::hint::black_box(&b)));
        });
        let simd = median_ns(reps, || {
            std::hint::black_box(a.matmul(std::hint::black_box(&b)));
        });
        println!("{n},{scalar:.0},{simd:.0},{:.2}", scalar / simd);
    }

    // --- B: per-codec trilemma rows ------------------------------------
    println!("\n--- B: trilemma per codec (fp32 vs int8) ---");
    println!("codec,precision,task_accuracy,p50_encode_ns,model_bytes");

    // Text.
    let (lang, kb, test) = trained_text();
    let q = kb.quantize();
    let mut rng = seeded_rng(2);
    let fp32_acc =
        evaluate_semantic(&kb, &kb, &lang, &test, &NoiselessChannel, &mut rng).concept_accuracy;
    let mut rng = seeded_rng(2);
    let int8_acc = evaluate_semantic_quantized(&q, &q, &lang, &test, &NoiselessChannel, &mut rng)
        .concept_accuracy;
    let tokens = &test[0].tokens;
    let fp32_ns = median_ns(400, || {
        std::hint::black_box(kb.encoder.encode(std::hint::black_box(tokens)));
    });
    let mut scratch = EncodeScratch::new();
    q.encoder.encode_batch_into(tokens, &mut scratch); // warm
    let int8_ns = median_ns(400, || {
        std::hint::black_box(
            q.encoder
                .encode_batch_into(std::hint::black_box(tokens), &mut scratch),
        );
    });
    println!("text,fp32,{fp32_acc:.4},{fp32_ns:.0},{}", kb.size_bytes());
    println!("text,int8,{int8_acc:.4},{int8_ns:.0},{}", q.size_bytes());

    // Image.
    let glyphs = GlyphSet::new(16, 1);
    let mut ikb = KnowledgeBase::for_source(&glyphs, 8, 2);
    ikb.train(
        &glyphs,
        &ConceptTrainConfig {
            epochs: 8,
            samples_per_epoch: 600,
            train_snr_db: Some(6.0),
            ..ConceptTrainConfig::default()
        },
        3,
    );
    let iq = ikb.quantize();
    let mut rng = seeded_rng(3);
    let i_fp32_acc = ikb.accuracy(&glyphs, &NoiselessChannel, 400, &mut rng);
    let mut rng = seeded_rng(3);
    let i_int8_acc = iq.accuracy(&glyphs, &NoiselessChannel, 400, &mut rng);
    let (img, _) = glyphs.sample(&mut seeded_rng(4));
    let i_fp32_ns = median_ns(200, || {
        std::hint::black_box(ikb.encode(std::hint::black_box(&img)));
    });
    let i_int8_ns = median_ns(200, || {
        std::hint::black_box(iq.encode(std::hint::black_box(&img)));
    });
    println!(
        "image,fp32,{i_fp32_acc:.4},{i_fp32_ns:.0},{}",
        ikb.size_bytes()
    );
    println!(
        "image,int8,{i_int8_acc:.4},{i_int8_ns:.0},{}",
        iq.size_bytes()
    );

    // Audio.
    let tones = ToneSet::new(16, 1);
    let mut akb = KnowledgeBase::for_source(&tones, 8, 2);
    akb.train(
        &tones,
        &ConceptTrainConfig {
            epochs: 8,
            samples_per_epoch: 600,
            train_snr_db: Some(6.0),
            ..ConceptTrainConfig::default()
        },
        3,
    );
    let aq = akb.quantize();
    let mut rng = seeded_rng(5);
    let a_fp32_acc = akb.accuracy(&tones, &NoiselessChannel, 400, &mut rng);
    let mut rng = seeded_rng(5);
    let a_int8_acc = aq.accuracy(&tones, &NoiselessChannel, 400, &mut rng);
    let (wave, _) = tones.sample(&mut seeded_rng(6));
    let a_fp32_ns = median_ns(200, || {
        std::hint::black_box(akb.encode(std::hint::black_box(&wave)));
    });
    let a_int8_ns = median_ns(200, || {
        std::hint::black_box(aq.encode(std::hint::black_box(&wave)));
    });
    println!(
        "audio,fp32,{a_fp32_acc:.4},{a_fp32_ns:.0},{}",
        akb.size_bytes()
    );
    println!(
        "audio,int8,{a_int8_acc:.4},{a_int8_ns:.0},{}",
        aq.size_bytes()
    );

    // --- C: single-thread text encoder throughput as optimizations stack
    println!("\n--- C: text encoder throughput, 64 users x 12 tokens (1 thread) ---");
    let skb = KnowledgeBase::new(CodecConfig::default(), 300, 20, KbScope::General, 1);
    let sq = skb.quantize();
    let users: Vec<Vec<usize>> = (0..64)
        .map(|u| (0..12).map(|i| (u * 31 + i * 7 + 3) % 300).collect())
        .collect();
    let user_refs: Vec<&[usize]> = users.iter().map(Vec::as_slice).collect();
    let packed: Vec<usize> = users.iter().flatten().copied().collect();
    let total_tokens = packed.len() as f64;

    let scalar_solo = median_ns(50, || {
        for u in &users {
            std::hint::black_box(scalar_encode(&skb, std::hint::black_box(u)));
        }
    });
    let simd_solo = median_ns(50, || {
        for u in &users {
            std::hint::black_box(skb.encoder.encode(std::hint::black_box(u)));
        }
    });
    let simd_batch = median_ns(50, || {
        std::hint::black_box(skb.encoder.encode_batch(std::hint::black_box(&user_refs)));
    });
    let mut scratch = EncodeScratch::new();
    sq.encoder.encode_batch_into(&packed, &mut scratch); // warm
    let int8_batch = median_ns(50, || {
        std::hint::black_box(
            sq.encoder
                .encode_batch_into(std::hint::black_box(&packed), &mut scratch),
        );
    });

    println!("path,ns_per_round,tokens_per_sec,speedup_vs_scalar");
    for (name, ns) in [
        ("scalar_fp32_per_user", scalar_solo),
        ("simd_fp32_per_user", simd_solo),
        ("simd_fp32_batched", simd_batch),
        ("simd_int8_batched", int8_batch),
    ] {
        println!(
            "{name},{ns:.0},{:.0},{:.2}",
            total_tokens / ns * 1e9,
            scalar_solo / ns
        );
    }
    let combined = scalar_solo / int8_batch;
    println!(
        "\ncombined single-thread encoder speedup (SIMD x int8 x batching): {combined:.2}x \
         at {:.4} task-accuracy loss (text; the <0.01 gate is \
         crates/codec/tests/quant_accuracy.rs)",
        fp32_acc - int8_acc
    );
    semcom_par::reset_workers();
}
