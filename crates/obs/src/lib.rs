//! # semcom-obs
//!
//! Zero-dependency observability layer for the `semcom` workspace: the
//! paper's pipeline (selection → semantic encode → PHY → decode →
//! cache/training → §II-D decoder sync) is a multi-stage system, and a
//! production deployment is unoperable without visibility into where time,
//! bytes, and failures go per stage.
//!
//! The crate provides four pieces, all free of external dependencies:
//!
//! * [`Recorder`] — the shared sink. A disabled recorder (the default
//!   everywhere) is a single `Option` check per call site and performs no
//!   clock reads, no atomics, and no allocation; an enabled recorder is an
//!   `Arc`-shared set of atomic counters/histograms plus a mutex-guarded
//!   event journal, safe to feed from `semcom-par` worker threads.
//! * [`Span`] — an RAII timer guard: [`Recorder::span`] stamps the clock,
//!   `Drop` records the elapsed nanoseconds into the [`Stage`]'s
//!   fixed-bucket log2 [`Histogram`] (p50/p90/p99/max accessors).
//! * [`Event`] / the ring-buffer journal — typed, bounded post-hoc
//!   debugging records (cache evictions, per-cause sync rejections,
//!   resyncs, domain misselections, training triggers).
//! * [`Snapshot`] — a point-in-time export of everything, serializable as
//!   JSON ([`Snapshot::to_json`], parseable back via
//!   [`Snapshot::from_json`]) or Prometheus text ([`Snapshot::to_prom`]).
//!
//! ## Determinism contract
//!
//! Timing comes from an injectable [`Clock`]: production uses the
//! wall-clock [`MonotonicClock`], while tests and golden-checked harnesses
//! inject the [`TickClock`] (a monotonic atomic counter). Counter values,
//! histogram *sample counts*, and the event journal are deterministic for
//! a deterministic workload at any `SEMCOM_THREADS` setting; *durations*
//! (and therefore bucket shapes and quantiles) are not, because worker
//! interleaving changes clock deltas. [`Snapshot::to_json_deterministic`]
//! exports exactly the thread-invariant subset — that is the section
//! golden-checked by `scripts/ci.sh` — while [`Snapshot::to_json`] and
//! [`Snapshot::to_prom`] carry the full timing data for humans and
//! scrapers.
//!
//! The causal layer extends the contract rather than weakening it:
//!
//! * **Traces** ([`TraceBuffer`], [`SpanContext`]) — span *identity* is
//!   content-derived (trace id = domain sequence number, child span id =
//!   mix of parent id and a fixed per-site ordinal), so the exported span
//!   tree's structure is identical at any `SEMCOM_THREADS`. Span
//!   timestamps follow the clock rule above: deterministic under a
//!   single-threaded `TickClock` driver or the fleet simulator's virtual
//!   clock, scheduling-dependent otherwise.
//! * **Time series** ([`TimeSeriesSampler`]) — each point is a pure
//!   [`Snapshot::diff`] of two snapshots; `sched_` metrics are excluded
//!   from the export like in the deterministic snapshot.
//! * **SLOs** ([`SloEvaluator`]) — windowed breach detection is integer
//!   arithmetic over bucket-count deltas; with deterministic durations
//!   the emitted [`Event::SloBreach`] sequence is byte-identical.
//!
//! ## Example
//!
//! ```
//! use semcom_obs::{Event, Recorder, Stage};
//!
//! let rec = Recorder::with_ticks();
//! {
//!     let _span = rec.span(Stage::Encode); // records on drop
//! }
//! rec.add("frames_total", 1);
//! rec.emit(Event::TrainingTriggered { user: 7, samples: 120 });
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("frames_total"), Some(1));
//! assert!(snap.to_json().contains("\"encode\""));
//! let back = semcom_obs::Snapshot::from_json(&snap.to_json()).unwrap();
//! assert_eq!(back, snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod event;
mod hist;
mod json;
mod recorder;
mod series;
mod slo;
mod snapshot;
mod trace;

pub use clock::{Clock, MonotonicClock, TickClock};
pub use event::{Event, EventRecord, RejectCause};
pub use hist::{bucket_index, bucket_upper_bound, Histogram, BUCKETS};
pub use json::{parse as parse_json, Json, JsonError};
pub use recorder::{Counter, Gauge, Recorder, Span, Stage};
pub use series::TimeSeriesSampler;
pub use slo::{SloEvaluator, SloSpec};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace::{SpanContext, SpanId, TraceBuffer, TraceId, TraceSpan, DEFAULT_TRACE_CAPACITY};
