//! Asserts the packed transmit hot path is allocation-free once warm —
//! the contract behind `TransmitScratch` (PR 2's tentpole): after the
//! scratch buffers have grown to a payload's working-set size, repeated
//! `BitPipeline::transmit_packed` calls must not touch the heap at all.
//! The same contract covers observability: the pipeline stays zero-alloc
//! both with the default disabled `Recorder` (spans are inert) and with an
//! *enabled* recorder (span timings land in fixed atomic histograms).
//! A served message's compose makes only the sentence it returns, and an
//! enabled recorder adds no allocation to a warm `send_message`: its
//! serving counters update through handles resolved at attach time.
//!
//! The check counts every allocation through a `#[global_allocator]`
//! wrapper over [`System`]. It lives in this root-crate test binary (its
//! own process, so the counting allocator cannot interfere with other
//! tests) because `semcom-channel` itself forbids `unsafe_code`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use semcom_channel::coding::HammingCode74;
use semcom_channel::{AwgnChannel, BitPipeline, BitVec, Modulation, TransmitScratch};
use semcom_codec::{CodecConfig, DecodeScratch, EncodeScratch, KbScope, KnowledgeBase};
use semcom_nn::rng::seeded_rng;
use semcom_obs::{Recorder, Stage};

struct CountingAllocator;

// Counted per thread: the libtest harness allocates concurrently on its
// own threads (output capture, bookkeeping), and a process-global counter
// races those — the test would fail or pass depending on scheduler timing.
// Only allocations made by the thread running the hot loop matter.
thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn local_allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: delegates directly to `System`; the counter update has no other
// side effects. `try_with` tolerates calls before TLS initialization or
// during thread teardown (the count is simply not recorded there).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

#[test]
fn warm_transmit_packed_does_not_allocate() {
    let payload: Vec<u8> = (0..4096).map(|i| ((i * 11 + 3) % 2) as u8).collect();
    let bits = BitVec::from_u8_bits(&payload);
    let pipeline = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16);
    let channel = AwgnChannel::new(6.0);
    let mut rng = seeded_rng(17);
    let mut scratch = TransmitScratch::new();

    // Warm-up: first calls grow the scratch buffers (and resolve the
    // demodulator's cached decision thresholds).
    for _ in 0..3 {
        pipeline.transmit_packed(&bits, &channel, &mut rng, &mut scratch);
    }

    let before = local_allocations();
    let mut guard = 0usize;
    for _ in 0..50 {
        let out = pipeline.transmit_packed(&bits, &channel, &mut rng, &mut scratch);
        guard ^= out.count_ones();
    }
    let after = local_allocations();

    assert_eq!(
        after - before,
        0,
        "warm transmit_packed allocated {} time(s) over 50 calls (guard {guard})",
        after - before
    );
}

#[test]
fn warm_transmit_packed_with_enabled_recorder_does_not_allocate() {
    let payload: Vec<u8> = (0..4096).map(|i| ((i * 11 + 3) % 2) as u8).collect();
    let bits = BitVec::from_u8_bits(&payload);
    for recorder in [Recorder::with_ticks(), Recorder::with_wall_clock()] {
        let pipeline = BitPipeline::new(Box::new(HammingCode74), Modulation::Qam16)
            .with_recorder(recorder.clone());
        let channel = AwgnChannel::new(6.0);
        let mut rng = seeded_rng(17);
        let mut scratch = TransmitScratch::new();
        for _ in 0..3 {
            pipeline.transmit_packed(&bits, &channel, &mut rng, &mut scratch);
        }

        let before = local_allocations();
        let mut guard = 0usize;
        for _ in 0..50 {
            let out = pipeline.transmit_packed(&bits, &channel, &mut rng, &mut scratch);
            guard ^= out.count_ones();
        }
        let after = local_allocations();

        assert_eq!(
            after - before,
            0,
            "instrumented warm transmit_packed allocated {} time(s) over 50 calls (guard {guard})",
            after - before
        );
        // The spans really did record (5 PHY stages × 53 calls each).
        assert_eq!(
            recorder.stage_histogram(Stage::Encode).unwrap().count(),
            53,
            "recorder was enabled but idle"
        );
    }
}

#[test]
fn warm_quantized_encode_batch_does_not_allocate() {
    // The int8 serving path (PR 6): once the scratch buffers have grown to
    // the largest batch seen, repeated cross-user batched encode + decode
    // must not touch the heap.
    let kb = KnowledgeBase::new(CodecConfig::tiny(), 30, 12, KbScope::General, 1);
    let q = kb.quantize();
    // A packed batch: three "users" worth of token lists, concatenated.
    let tokens: Vec<usize> = (0..24).map(|i| (i * 7 + 3) % 30).collect();
    let mut enc_scratch = EncodeScratch::new();
    let mut dec_scratch = DecodeScratch::new();
    let mut decisions = Vec::new();

    for _ in 0..3 {
        let feat = q.encoder.encode_batch_into(&tokens, &mut enc_scratch);
        q.decoder
            .predict_into(feat, tokens.len(), &mut dec_scratch, &mut decisions);
    }

    let before = local_allocations();
    let mut guard = 0u32;
    for _ in 0..50 {
        let feat = q.encoder.encode_batch_into(&tokens, &mut enc_scratch);
        guard ^= feat.len() as u32;
        q.decoder
            .predict_into(feat, tokens.len(), &mut dec_scratch, &mut decisions);
        guard ^= decisions[0].0;
    }
    let after = local_allocations();

    assert_eq!(
        after - before,
        0,
        "warm quantized encode_batch/predict allocated {} time(s) over 50 calls (guard {guard})",
        after - before
    );
}

#[test]
fn enabled_recorder_span_itself_does_not_allocate() {
    let recorder = Recorder::with_ticks();
    // Warm: first span on a fresh recorder has nothing to grow anyway, but
    // keep the shape symmetric with the pipeline tests.
    drop(recorder.span(Stage::Message));

    let before = local_allocations();
    for _ in 0..100 {
        let span = recorder.span(Stage::Message);
        span.finish();
        recorder.record_ns(Stage::Decode, 123);
    }
    let after = local_allocations();
    assert_eq!(after - before, 0, "span/record path allocated");
}

#[test]
fn trace_span_recording_does_not_allocate() {
    use semcom_obs::{SpanContext, TraceSpan};
    let ctx = SpanContext::root(7);
    let span = TraceSpan::new(ctx.child(0), Some(ctx.span), "semantic_encode", 10, 5);

    // Enabled recorder with NO trace buffer: the trace_span call site is
    // one branch, no heap traffic.
    let plain = Recorder::with_ticks();
    plain.trace_span(span);
    let before = local_allocations();
    for _ in 0..100 {
        plain.trace_span(span);
    }
    assert_eq!(
        local_allocations() - before,
        0,
        "trace_span without a buffer allocated"
    );

    // Traced recorder: the buffer's vector is preallocated to capacity at
    // construction, so recording is a push into reserved storage.
    let traced = Recorder::with_ticks_and_trace();
    for _ in 0..3 {
        traced.trace_span(span);
    }
    let before = local_allocations();
    for _ in 0..50 {
        traced.trace_span(span);
    }
    assert_eq!(
        local_allocations() - before,
        0,
        "trace_span into a preallocated buffer allocated"
    );
    assert_eq!(traced.trace_buffer().unwrap().len(), 53);
}

/// A tiny two-edge system with one registered user whose buffer never
/// fills, so every message is served without a training round.
fn serving_system() -> (semcom::SemanticEdgeSystem, semcom::UserId) {
    let mut config = semcom::SystemConfig::tiny();
    config.buffer_capacity = 1 << 20;
    config.buffer_threshold = 1 << 20;
    let mut system = semcom::SemanticEdgeSystem::build(config, 31);
    let user = system.register_user(semcom_text::Domain::It, 0.5);
    (system, user)
}

#[test]
fn warm_compose_makes_only_the_sentence() {
    // A composed message owns two vectors, its concepts and its tokens;
    // the Zipf table and the surface words are not rebuilt per message.
    let (mut system, user) = serving_system();
    for _ in 0..3 {
        system.send_message(user);
    }
    for _ in 0..20 {
        system.send_message(user);
        let before = local_allocations();
        let sentence = system.compose_message(user);
        let made = local_allocations() - before;
        assert!(
            made <= 2,
            "warm compose_message allocated {made} time(s) for a {}-token sentence",
            sentence.len()
        );
    }
}

#[test]
fn enabled_recorder_adds_no_allocation_to_a_warm_message() {
    // The same messages on two identically seeded systems, one with a
    // recorder attached: every call allocates exactly as often on both.
    for recorder in [Recorder::with_ticks(), Recorder::with_ticks_and_trace()] {
        let (mut plain, user) = serving_system();
        let (mut observed, same) = serving_system();
        assert_eq!(user, same);
        observed.attach_recorder(recorder.clone());
        for _ in 0..3 {
            assert_eq!(plain.send_message(user), observed.send_message(user));
        }
        for i in 0..20 {
            let before = local_allocations();
            let a = plain.send_message(user);
            let between = local_allocations();
            let b = observed.send_message(user);
            let after = local_allocations();
            assert_eq!(a, b, "message {i}");
            assert_eq!(
                after - between,
                between - before,
                "message {i}: allocations with the recorder vs without"
            );
        }
        assert_eq!(recorder.counter("sched_stream_windows"), Some(23));
        assert_eq!(
            recorder.stage_histogram(Stage::Message).unwrap().count(),
            23
        );
    }
}

#[test]
fn warm_counter_and_gauge_handles_do_not_allocate() {
    let recorder = Recorder::with_wall_clock();
    let counter = recorder.counter_handle("probe_batches");
    let gauge = recorder.gauge_handle("probe_peak");
    counter.add(1);
    gauge.set(1.0);

    let before = local_allocations();
    for i in 0..100u64 {
        counter.add(i);
        gauge.set(i as f64);
    }
    assert_eq!(local_allocations() - before, 0, "handle updates allocated");
    assert_eq!(recorder.counter("probe_batches"), Some(1 + 4950));
    assert_eq!(recorder.gauge("probe_peak"), Some(99.0));
}

#[test]
fn warm_spsc_queue_does_not_allocate() {
    // The staged serving pipeline's queues (PR 7): slots are pre-allocated
    // at `channel()` time, so steady-state push/pop traffic — including the
    // occupancy reads the driver uses for queue-depth gauges — must never
    // touch the heap. (Blocking wake-ups go through a pre-built
    // Mutex/Condvar pair, also allocation-free after construction.)
    let (mut tx, mut rx) = semcom_par::spsc::channel::<u64>(8);
    for i in 0..16u64 {
        tx.push(i).unwrap();
        assert_eq!(rx.pop(), Some(i));
    }

    let before = local_allocations();
    let mut guard = 0u64;
    for i in 0..200u64 {
        tx.push(i).unwrap();
        guard ^= tx.len() as u64;
        guard ^= rx.pop().expect("just pushed");
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "warm spsc push/pop allocated {} time(s) over 200 round trips (guard {guard})",
        after - before
    );
}

#[test]
fn warm_transmit_f32_in_place_does_not_allocate() {
    // The pipeline's PHY stage transmits features in place through one
    // per-worker `FeatureScratch` (AWGN adds its noise where the features
    // lie and never touches it; other channels grow it to the largest
    // feature vector seen): repeated transmits are allocation-free.
    // (The full per-message path is *not* asserted allocation-free: the
    // encode stage materializes one fresh feature tensor and one decoded
    // vector per message by design — those are the message's payload, not
    // scratch.)
    use semcom_channel::{Channel, FeatureScratch};
    let channel = AwgnChannel::new(6.0);
    let mut rng = seeded_rng(23);
    let mut features: Vec<f32> = (0..513).map(|i| (i as f32 * 0.7).sin()).collect();
    let mut scratch = FeatureScratch::new();
    for _ in 0..3 {
        channel.transmit_f32_in_place(&mut features, &mut scratch, &mut rng);
    }

    let before = local_allocations();
    let mut guard = 0.0f32;
    for _ in 0..50 {
        channel.transmit_f32_in_place(&mut features, &mut scratch, &mut rng);
        guard += features[0];
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "warm transmit_f32_in_place allocated {} time(s) over 50 calls (guard {guard})",
        after - before
    );
}

#[test]
fn warm_awgn_transmit_into_does_not_allocate() {
    // The symbol-level twin of the test above (the coded bit pipeline's
    // channel step): noise comes from the block sampler through a buffer on
    // the stack, so once `received` has its capacity nothing allocates.
    use semcom_channel::{Channel, Complex};
    let channel = AwgnChannel::new(6.0);
    let mut rng = seeded_rng(29);
    let symbols: Vec<Complex> = (0..1025)
        .map(|i| Complex::new((i as f64 * 0.3).cos(), (i as f64 * 0.3).sin()))
        .collect();
    let mut received = Vec::new();
    channel.transmit_into(&symbols, &mut received, &mut rng);

    let before = local_allocations();
    let mut guard = 0.0f64;
    for _ in 0..50 {
        channel.transmit_into(&symbols, &mut received, &mut rng);
        guard += received[0].re;
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "warm AwgnChannel::transmit_into allocated {} time(s) over 50 calls (guard {guard})",
        after - before
    );
}
