//! The recorder: named counters, gauges, per-stage latency histograms,
//! span guards, and the event journal behind one cheap, cloneable handle.
//!
//! Counters and gauges are atomic cells behind a name map. Updating by
//! name locks the map; a hot site resolves a [`Counter`] or [`Gauge`]
//! handle once and then updates the cell with no lock and no allocation.

use crate::clock::{Clock, MonotonicClock, TickClock};
use crate::event::{Event, EventRing};
use crate::hist::Histogram;
use crate::snapshot::{HistogramSnapshot, Snapshot};
use crate::trace::{TraceBuffer, TraceSpan, DEFAULT_TRACE_CAPACITY};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An instrumented pipeline stage. Each stage owns one latency
/// [`Histogram`] in the recorder; the fixed enum keeps the hot record path
/// an array index away from its buckets (no name hashing, no allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// PHY channel encoding (`BlockCode::encode_packed`).
    Encode,
    /// Symbol mapping (`Modulation::modulate_into`).
    Modulate,
    /// The physical channel itself (`Channel::transmit_into`).
    Channel,
    /// Soft-bit recovery (`Modulation::demodulate_into`).
    Demodulate,
    /// PHY channel decoding (`BlockCode::decode_packed`).
    Decode,
    /// Semantic encode → analog channel → semantic decode
    /// (`KnowledgeBase::transmit`).
    SemanticTransmit,
    /// User-model cache lookup (`ModelCache::get`).
    CacheLookup,
    /// User-model cache insertion, evictions included
    /// (`ModelCache::insert`).
    CacheInsert,
    /// One user-model training round (`Trainer::fit_pairs`).
    TrainRound,
    /// One §II-D decoder-sync round (build → deliver → verify → commit).
    SyncRound,
    /// One end-to-end message (`SemanticEdgeSystem::send_message` /
    /// `send_stream`): its ingress + encode + channel + decode + commit.
    Message,
    /// Serving ingress: compose + link step + select + model capture for
    /// one message.
    Ingress,
    /// Semantic NN encode, packed per worker chunk (per-message share).
    SemanticEncode,
    /// Semantic NN decode, packed per worker chunk (per-message share).
    SemanticDecode,
    /// Serving commit: buffer/training/sync/metrics effects and the
    /// message's trace tree, applied in ticket order.
    Commit,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 15] = [
        Stage::Encode,
        Stage::Modulate,
        Stage::Channel,
        Stage::Demodulate,
        Stage::Decode,
        Stage::SemanticTransmit,
        Stage::CacheLookup,
        Stage::CacheInsert,
        Stage::TrainRound,
        Stage::SyncRound,
        Stage::Message,
        Stage::Ingress,
        Stage::SemanticEncode,
        Stage::SemanticDecode,
        Stage::Commit,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Encode => "encode",
            Stage::Modulate => "modulate",
            Stage::Channel => "channel",
            Stage::Demodulate => "demodulate",
            Stage::Decode => "decode",
            Stage::SemanticTransmit => "semantic_transmit",
            Stage::CacheLookup => "cache_lookup",
            Stage::CacheInsert => "cache_insert",
            Stage::TrainRound => "train_round",
            Stage::SyncRound => "sync_round",
            Stage::Message => "message",
            Stage::Ingress => "ingress",
            Stage::SemanticEncode => "semantic_encode",
            Stage::SemanticDecode => "semantic_decode",
            Stage::Commit => "commit",
        }
    }
}

/// One named counter or gauge (a gauge holds its `f64` bits). A name is
/// listed from its first update on, not from when a handle resolved it.
#[derive(Default)]
struct Cell {
    bits: AtomicU64,
    written: AtomicBool,
}

impl Cell {
    fn add(&self, delta: u64) {
        self.bits.fetch_add(delta, Ordering::Relaxed);
        self.written.store(true, Ordering::Release);
    }

    fn set(&self, bits: u64) {
        self.bits.store(bits, Ordering::Relaxed);
        self.written.store(true, Ordering::Release);
    }

    fn get(&self) -> Option<u64> {
        self.written
            .load(Ordering::Acquire)
            .then(|| self.bits.load(Ordering::Relaxed))
    }
}

type Cells = Mutex<BTreeMap<String, Arc<Cell>>>;

/// Applies `f` to the cell named `name`, creating it on first use.
fn update(cells: &mut BTreeMap<String, Arc<Cell>>, name: &str, f: impl FnOnce(&Cell)) {
    match cells.get(name) {
        Some(c) => f(c),
        None => {
            let c = Arc::new(Cell::default());
            f(&c);
            cells.insert(name.to_owned(), c);
        }
    }
}

/// The cell named `name`, created unwritten if it does not exist yet.
fn resolve(cells: &Cells, name: &str) -> Arc<Cell> {
    let mut cells = cells.lock().expect("metric lock");
    match cells.get(name) {
        Some(c) => Arc::clone(c),
        None => {
            let c = Arc::new(Cell::default());
            cells.insert(name.to_owned(), Arc::clone(&c));
            c
        }
    }
}

/// The written cells' values, sorted by name.
fn written(cells: &Cells) -> Vec<(String, u64)> {
    cells
        .lock()
        .expect("metric lock")
        .iter()
        .filter_map(|(k, c)| Some((k.clone(), c.get()?)))
        .collect()
}

struct Inner {
    clock: Box<dyn Clock>,
    stages: Vec<Histogram>,
    counters: Cells,
    gauges: Cells,
    events: Mutex<EventRing>,
    trace: Option<Arc<TraceBuffer>>,
}

/// Counts a span torn down by a panic; called from `Drop` during
/// unwinding, so it must not panic itself (a poisoned counter lock is
/// silently skipped rather than escalated to an abort).
fn bump_aborted(inner: &Inner) {
    if let Ok(mut c) = inner.counters.lock() {
        update(&mut c, "spans_aborted", |c| c.add(1));
    }
}

/// A counter resolved once by [`Recorder::counter_handle`]: an update is
/// one atomic add, with no lock and no allocation. The handle of a
/// disabled recorder does nothing.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<Cell>>);

impl Counter {
    /// Adds to the counter (listed in snapshots from its first update).
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.add(delta);
        }
    }
}

/// A gauge resolved once by [`Recorder::gauge_handle`]: an update is one
/// atomic store, with no lock and no allocation. The handle of a disabled
/// recorder does nothing.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<Cell>>);

impl Gauge {
    /// Sets the gauge (listed in snapshots from its first update).
    pub fn set(&self, value: f64) {
        if let Some(c) = &self.0 {
            c.set(value.to_bits());
        }
    }
}

/// The observability sink.
///
/// A `Recorder` is either **disabled** (the default: every operation is a
/// single `Option` check, no clock reads, no atomics, no allocation — the
/// provably-near-free path pinned by the workspace's zero-allocation
/// test) or **enabled** (an [`Arc`]-shared block of atomic histograms and
/// counters, cloneable and safe to share across `semcom-par` workers).
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Recorder(disabled)"),
            Some(i) => write!(
                f,
                "Recorder(enabled, {} counters)",
                written(&i.counters).len()
            ),
        }
    }
}

/// Default journal capacity for the convenience constructors.
const DEFAULT_JOURNAL: usize = 1024;

impl Recorder {
    /// The no-op recorder: records nothing, costs (almost) nothing.
    pub fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with the given clock and journal capacity.
    /// Tracing is off; see [`Recorder::new_traced`].
    pub fn new(clock: Box<dyn Clock>, journal_capacity: usize) -> Self {
        Recorder::build(clock, journal_capacity, None)
    }

    /// An enabled recorder that additionally records causal
    /// [`TraceSpan`]s into a bounded [`TraceBuffer`] of `trace_capacity`
    /// spans (preallocated up front, so recording never allocates).
    pub fn new_traced(
        clock: Box<dyn Clock>,
        journal_capacity: usize,
        trace_capacity: usize,
    ) -> Self {
        Recorder::build(
            clock,
            journal_capacity,
            Some(Arc::new(TraceBuffer::new(trace_capacity))),
        )
    }

    fn build(
        clock: Box<dyn Clock>,
        journal_capacity: usize,
        trace: Option<Arc<TraceBuffer>>,
    ) -> Self {
        Recorder {
            inner: Some(Arc::new(Inner {
                clock,
                stages: Stage::ALL.iter().map(|_| Histogram::new()).collect(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                events: Mutex::new(EventRing::new(journal_capacity)),
                trace,
            })),
        }
    }

    /// An enabled recorder on the deterministic [`TickClock`] (tests,
    /// golden-checked harnesses).
    pub fn with_ticks() -> Self {
        Recorder::new(Box::new(TickClock::default()), DEFAULT_JOURNAL)
    }

    /// [`Recorder::with_ticks`] plus a default-capacity trace buffer.
    pub fn with_ticks_and_trace() -> Self {
        Recorder::new_traced(
            Box::new(TickClock::default()),
            DEFAULT_JOURNAL,
            DEFAULT_TRACE_CAPACITY,
        )
    }

    /// An enabled recorder on the wall-clock [`MonotonicClock`]
    /// (production / benchmarking).
    pub fn with_wall_clock() -> Self {
        Recorder::new(Box::new(MonotonicClock::new()), DEFAULT_JOURNAL)
    }

    /// Whether this recorder records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this recorder carries a trace buffer. Instrumentation
    /// sites gate their extra clock reads on this so tracing-off runs
    /// pay exactly one branch.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.trace.is_some())
    }

    /// The attached trace buffer, if tracing is enabled.
    pub fn trace_buffer(&self) -> Option<Arc<TraceBuffer>> {
        self.inner.as_ref().and_then(|i| i.trace.clone())
    }

    /// Records one completed causal span. A single branch (and no clock
    /// read) when disabled or when no trace buffer is attached.
    pub fn trace_span(&self, span: TraceSpan) {
        if let Some(inner) = &self.inner {
            if let Some(trace) = &inner.trace {
                trace.record(span);
            }
        }
    }

    /// Opens a timer span for `stage`; the elapsed time is recorded into
    /// the stage's histogram when the returned guard drops. On a disabled
    /// recorder the guard is inert and the clock is never read.
    #[must_use = "a span records on drop; binding it to _ discards the timing immediately"]
    pub fn span(&self, stage: Stage) -> Span {
        Span {
            inner: self.inner.as_ref().map(|inner| SpanInner {
                rec: Arc::clone(inner),
                stage,
                start_ns: inner.clock.now_ns(),
            }),
        }
    }

    /// Reads the recorder's clock, or 0 when disabled. Pipeline stages use
    /// matched `now_ns` pairs to accumulate per-message time across
    /// threads before recording it with [`Self::record_ns`].
    pub fn now_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.clock.now_ns())
    }

    /// Records a pre-measured duration into a stage histogram.
    pub fn record_ns(&self, stage: Stage, ns: u64) {
        if let Some(inner) = &self.inner {
            inner.stages[stage as usize].record(ns);
        }
    }

    /// Adds to a named counter (created at zero on first use).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            let mut c = inner.counters.lock().expect("metric lock");
            update(&mut c, name, |c| c.add(delta));
        }
    }

    /// Sets a named counter to an absolute value (used when publishing
    /// externally-accumulated totals, so re-publishing is idempotent).
    pub fn set_counter(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            let mut c = inner.counters.lock().expect("metric lock");
            update(&mut c, name, |c| c.set(value));
        }
    }

    /// Sets a named gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            let mut g = inner.gauges.lock().expect("metric lock");
            update(&mut g, name, |g| g.set(value.to_bits()));
        }
    }

    /// Resolves the counter `name` to a handle that updates it without
    /// a lookup. Resolving writes nothing: the name is listed from the
    /// handle's (or a by-name) first update on.
    pub fn counter_handle(&self, name: &str) -> Counter {
        Counter(self.inner.as_ref().map(|i| resolve(&i.counters, name)))
    }

    /// Resolves the gauge `name` to a handle, as [`Self::counter_handle`].
    pub fn gauge_handle(&self, name: &str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| resolve(&i.gauges, name)))
    }

    /// Reads a named counter back (`None` when disabled or never
    /// written).
    pub fn counter(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        inner.counters.lock().expect("metric lock").get(name)?.get()
    }

    /// Reads a named gauge back (`None` when disabled or never written).
    ///
    /// Telemetry-driven schedulers poll node gauges through this: the
    /// edge fleet's `LoadAware` placement reads the per-node busy-time
    /// gauges its dispatch loop publishes, steering sessions toward the
    /// node whose *last-reported* load is lowest — deliberately stale
    /// between publishes, like real node telemetry.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        let bits = inner.gauges.lock().expect("metric lock").get(name)?.get()?;
        Some(f64::from_bits(bits))
    }

    /// Appends an event to the journal (oldest entry overwritten when
    /// full).
    pub fn emit(&self, event: Event) {
        if let Some(inner) = &self.inner {
            let at = inner.clock.now_ns();
            inner.events.lock().expect("event lock").push(at, event);
        }
    }

    /// The live histogram for a stage, if enabled (read-only accessors:
    /// `count`, `p50_ns`, …).
    pub fn stage_histogram(&self, stage: Stage) -> Option<&Histogram> {
        self.inner.as_ref().map(|i| &i.stages[stage as usize])
    }

    /// Captures a point-in-time [`Snapshot`] of counters, gauges,
    /// histograms, and the event journal. A disabled recorder yields an
    /// empty snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let counters = written(&inner.counters);
        let gauges = written(&inner.gauges)
            .into_iter()
            .map(|(k, bits)| (k, f64::from_bits(bits)))
            .collect();
        let histograms = Stage::ALL
            .iter()
            .map(|&s| {
                let h = &inner.stages[s as usize];
                let buckets = h
                    .bucket_counts()
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| (i as u32, c))
                    .collect();
                HistogramSnapshot {
                    stage: s.name().to_string(),
                    count: h.count(),
                    sum_ns: h.sum_ns(),
                    max_ns: h.max_ns(),
                    buckets,
                }
            })
            .collect();
        let (events, events_dropped) = {
            let ring = inner.events.lock().expect("event lock");
            (ring.records(), ring.dropped())
        };
        Snapshot {
            counters,
            gauges,
            histograms,
            events,
            events_dropped,
        }
    }
}

struct SpanInner {
    rec: Arc<Inner>,
    stage: Stage,
    start_ns: u64,
}

/// RAII timer: created by [`Recorder::span`], records the elapsed
/// nanoseconds into the stage histogram on drop.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Ends the span early (equivalent to dropping it).
    pub fn finish(self) {}

    /// Explicitly abandons the span: no duration is recorded, only the
    /// `spans_aborted` counter is bumped — the caller knows the timing
    /// is meaningless (e.g. a stage bailed out halfway).
    pub fn abort(mut self) {
        if let Some(s) = self.inner.take() {
            bump_aborted(&s.rec);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            if std::thread::panicking() {
                // A panic unwound through the guard: the elapsed time is
                // a truncation artifact, not a stage duration. Count the
                // abort instead of polluting the histogram.
                bump_aborted(&s.rec);
                return;
            }
            let end = s.rec.clock.now_ns();
            s.rec.stages[s.stage as usize].record(end.saturating_sub(s.start_ns));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _s = rec.span(Stage::Encode);
        }
        rec.add("x", 5);
        rec.set_gauge("g", 1.0);
        rec.emit(Event::Resync { user: 1, seq: 0 });
        let snap = rec.snapshot();
        assert_eq!(snap, Snapshot::default());
    }

    #[test]
    fn spans_record_tick_durations() {
        let rec = Recorder::with_ticks();
        {
            let _s = rec.span(Stage::Decode); // start=0, end=1 → 1 tick
        }
        {
            let s = rec.span(Stage::Decode); // start=2, end=3 → 1 tick
            s.finish();
        }
        let h = rec.stage_histogram(Stage::Decode).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum_ns(), 2);
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let rec = Recorder::with_ticks();
        rec.add("frames", 2);
        rec.add("frames", 3);
        rec.set_counter("frames_abs", 10);
        rec.set_counter("frames_abs", 11); // absolute: overwrites
        rec.set_gauge("rate", 0.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("frames"), Some(5));
        assert_eq!(snap.counter("frames_abs"), Some(11));
        assert_eq!(snap.gauge("rate"), Some(0.5));
    }

    #[test]
    fn live_readback_sees_latest_values() {
        let rec = Recorder::with_ticks();
        assert_eq!(rec.gauge("node0_busy_s"), None);
        assert_eq!(rec.counter("events"), None);
        rec.set_gauge("node0_busy_s", 1.5);
        rec.set_gauge("node0_busy_s", 2.5);
        rec.add("events", 7);
        assert_eq!(rec.gauge("node0_busy_s"), Some(2.5));
        assert_eq!(rec.counter("events"), Some(7));
        // Disabled recorders read back nothing.
        let off = Recorder::disabled();
        off.set_gauge("g", 1.0);
        assert_eq!(off.gauge("g"), None);
        assert_eq!(off.counter("g"), None);
    }

    #[test]
    fn handles_update_the_named_cells_from_their_first_write() {
        let rec = Recorder::with_ticks();
        let batches = rec.counter_handle("batches");
        let peak = rec.gauge_handle("peak");
        // Resolving lists nothing: a name appears at its first update.
        assert_eq!(rec.snapshot(), Recorder::with_ticks().snapshot());
        assert_eq!(rec.counter("batches"), None);
        assert_eq!(format!("{rec:?}"), "Recorder(enabled, 0 counters)");
        batches.add(0);
        assert_eq!(rec.counter("batches"), Some(0));
        batches.add(2);
        rec.add("batches", 3);
        rec.clone().counter_handle("batches").add(1);
        peak.set(4.0);
        peak.set(2.5);
        let snap = rec.snapshot();
        assert_eq!(snap.counters, vec![("batches".to_string(), 6)]);
        assert_eq!(snap.gauges, vec![("peak".to_string(), 2.5)]);
        rec.set_gauge("peak", 1.0);
        assert_eq!(rec.gauge("peak"), Some(1.0));
        // A disabled recorder's handles are inert.
        let off = Recorder::disabled();
        off.counter_handle("batches").add(1);
        off.gauge_handle("peak").set(1.0);
        assert_eq!(off.snapshot(), Snapshot::default());
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::with_ticks();
        let other = rec.clone();
        other.add("shared", 1);
        rec.add("shared", 1);
        assert_eq!(rec.snapshot().counter("shared"), Some(2));
    }

    #[test]
    fn panicking_span_counts_an_abort_not_a_duration() {
        let rec = Recorder::with_ticks();
        let r = rec.clone();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _s = r.span(Stage::Encode);
            panic!("stage blew up mid-flight");
        }));
        assert!(result.is_err());
        // No truncated duration in the histogram, one counted abort.
        assert_eq!(rec.stage_histogram(Stage::Encode).unwrap().count(), 0);
        assert_eq!(rec.counter("spans_aborted"), Some(1));
    }

    #[test]
    fn explicit_abort_skips_the_histogram() {
        let rec = Recorder::with_ticks();
        rec.span(Stage::Decode).abort();
        assert_eq!(rec.stage_histogram(Stage::Decode).unwrap().count(), 0);
        assert_eq!(rec.counter("spans_aborted"), Some(1));
        // Disabled recorders stay inert.
        Recorder::disabled().span(Stage::Decode).abort();
    }

    #[test]
    fn trace_span_records_only_with_a_buffer() {
        use crate::trace::{SpanContext, TraceSpan};
        let ctx = SpanContext::root(1);
        let span = TraceSpan::new(ctx, None, "message", 0, 5);
        let plain = Recorder::with_ticks();
        assert!(!plain.tracing_enabled());
        assert!(plain.trace_buffer().is_none());
        plain.trace_span(span); // no buffer: dropped silently
        let traced = Recorder::with_ticks_and_trace();
        assert!(traced.tracing_enabled());
        traced.trace_span(span);
        let buf = traced.trace_buffer().unwrap();
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.spans()[0], span);
        // Clones share the same buffer.
        traced.clone().trace_span(span);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn concurrent_spans_keep_exact_counts() {
        let rec = Recorder::with_ticks();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let r = rec.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        let _s = r.span(Stage::Channel);
                    }
                });
            }
        });
        assert_eq!(
            rec.stage_histogram(Stage::Channel).unwrap().count(),
            4 * 250
        );
    }
}
