//! Scoped data-parallelism primitives for the semcom workspace.
//!
//! Built entirely on [`std::thread::scope`] — no external dependencies, no
//! long-lived pool, no work stealing. Workers are spawned per call over
//! contiguous index ranges and joined in submission order, which is what
//! makes the determinism contract below easy to state and easy to audit.
//!
//! # Determinism contract
//!
//! * [`par_map_indexed`] and [`par_chunks`] produce output in **input
//!   order**, and each element/chunk is computed by a pure function of its
//!   input alone. Results are therefore **bit-identical at any worker
//!   count**, including 1.
//! * Tree- or list-reductions built on top of these primitives (e.g. the
//!   gradient reduction in `semcom-codec::Trainer`) combine partial results
//!   in **fixed shard order**, so they are bit-identical run-to-run at a
//!   **fixed** worker count. Changing the worker count changes how work is
//!   sharded and may change floating-point association — that is the only
//!   source of cross-thread-count divergence in this workspace, and callers
//!   that need thread-count invariance (the parallel matmul row partition)
//!   avoid it by keeping every output element's accumulation order fixed.
//!
//! # Worker count
//!
//! The worker count is resolved once from the `SEMCOM_THREADS` environment
//! variable, falling back to [`std::thread::available_parallelism`], and
//! can be overridden in-process with [`set_workers`] (used by benches to
//! compare 1-thread and N-thread runs in one process). Calls made from
//! inside a worker run serially — nested parallelism never oversubscribes.
//!
//! # Pipelines
//!
//! Besides fork-join data parallelism, the crate provides bounded SPSC
//! queues ([`spsc`]) and a staged [`Pipeline`] builder ([`pipeline`]) for
//! producer/consumer overlap: stages run on scoped workers connected by
//! queues, items exit in push order, and adjacent stages are fused when
//! the worker budget is smaller than the stage count. Nothing in the
//! workspace serves through them any more (`send_stream` fans whole
//! messages out with [`par_chunks`]); they stay public and unchanged
//! because `benchmark/src/probes.rs` times them for `par.spsc_handoff_ns`
//! and `par.pipeline_item_overhead_us`, and the benchmark may not change in
//! the PR that changes what it measures.

pub mod pipeline;
pub mod spsc;

pub use pipeline::{Pipeline, Stage};

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Cached worker count; 0 = not yet resolved.
static WORKERS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside a semcom-par worker: nested calls run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns the effective worker count (≥ 1).
///
/// Resolution order: [`set_workers`] override, then the `SEMCOM_THREADS`
/// environment variable, then [`std::thread::available_parallelism`].
pub fn max_workers() -> usize {
    let cached = WORKERS.load(Ordering::Relaxed);
    if cached != 0 {
        return cached;
    }
    let resolved = std::env::var("SEMCOM_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
    WORKERS.store(resolved, Ordering::Relaxed);
    resolved
}

/// Overrides the worker count for this process (benches and tests use this
/// to compare serial and parallel runs without re-exec). `n` is clamped to
/// at least 1.
pub fn set_workers(n: usize) {
    WORKERS.store(n.max(1), Ordering::Relaxed);
}

/// Clears any [`set_workers`] override: the next [`max_workers`] call
/// re-resolves from `SEMCOM_THREADS` / available parallelism. Tests use
/// this to avoid leaking an override into later tests.
pub fn reset_workers() {
    WORKERS.store(0, Ordering::Relaxed);
}

/// True when called from inside a semcom-par worker thread.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Splits `len` items into at most `workers` contiguous ranges, the first
/// `len % workers` ranges one item longer. Empty ranges are not produced.
fn partition(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let workers = workers.min(len).max(1);
    let base = len / workers;
    let extra = len % workers;
    let mut ranges = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let size = base + usize::from(w < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    ranges
}

/// Maps `f(index, &item)` over `items` in parallel, returning outputs in
/// input order. Bit-identical at any worker count (see the crate docs).
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = effective_workers(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let ranges = partition(items.len(), workers);
    let mut partials: Vec<Vec<U>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .cloned()
            .map(|range| {
                let f = &f;
                scope.spawn(move || {
                    IN_WORKER.with(|w| w.set(true));
                    range.map(|i| f(i, &items[i])).collect::<Vec<U>>()
                })
            })
            .collect();
        // Join in submission order so output order never depends on
        // thread scheduling.
        handles
            .into_iter()
            .map(|h| h.join().expect("semcom-par worker panicked"))
            .collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for partial in &mut partials {
        out.append(partial);
    }
    out
}

/// Runs `f(chunk_start, chunk)` over contiguous disjoint `&mut` chunks of
/// `data` in parallel. Chunk boundaries are multiples of `chunk_len`
/// (the last chunk may be shorter); `f` sees each chunk exactly once.
///
/// Because every output location is written by exactly one worker from a
/// pure function of `(chunk_start, chunk contents)`, results are
/// bit-identical at any worker count. This is the primitive behind the
/// row-partitioned matmul in `semcom-nn`.
pub fn par_chunks<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let workers = effective_workers(n_chunks);
    if workers <= 1 {
        for (c, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(c * chunk_len, chunk);
        }
        return;
    }
    // Hand each worker a contiguous run of whole chunks.
    let chunk_ranges = partition(n_chunks, workers);
    let mut rest = data;
    let mut consumed = 0;
    std::thread::scope(|scope| {
        for range in chunk_ranges {
            let start_elem = range.start * chunk_len;
            let end_elem = (range.end * chunk_len).min(consumed + rest.len());
            let (mine, tail) = rest.split_at_mut(end_elem - consumed);
            rest = tail;
            consumed = end_elem;
            let f = &f;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                for (c, chunk) in mine.chunks_mut(chunk_len).enumerate() {
                    f(start_elem + c * chunk_len, chunk);
                }
            });
        }
    });
}

/// Worker count for a job of `len` independent units: 1 when nested inside
/// another parallel region or when the job is trivially small.
fn effective_workers(len: usize) -> usize {
    if in_worker() || len <= 1 {
        1
    } else {
        max_workers().min(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Tests below mutate the process-global worker count; hold this while
    /// doing so, or assertions about `in_worker` become racy.
    static WORKER_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn partition_covers_range_without_overlap() {
        for len in [0usize, 1, 2, 7, 16, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let ranges = partition(len, workers);
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    assert!(r.end > r.start);
                    cursor = r.end;
                }
                assert_eq!(cursor, len);
                if len > 0 {
                    let sizes: Vec<_> = ranges.iter().map(|r| r.end - r.start).collect();
                    let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                    assert!(max - min <= 1, "near-even split: {sizes:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_matches_serial_at_every_worker_count() {
        let _guard = WORKER_LOCK.lock().unwrap();
        let items: Vec<f32> = (0..103).map(|i| i as f32 * 0.37 - 5.0).collect();
        let serial: Vec<f32> = items
            .iter()
            .enumerate()
            .map(|(i, x)| x.sin() + i as f32)
            .collect();
        for workers in [1, 2, 3, 4, 7] {
            set_workers(workers);
            let parallel = par_map_indexed(&items, |i, x| x.sin() + i as f32);
            assert_eq!(serial, parallel, "workers={workers}");
        }
        set_workers(1);
    }

    #[test]
    fn par_chunks_writes_every_chunk_once() {
        let _guard = WORKER_LOCK.lock().unwrap();
        for workers in [1, 2, 3, 5] {
            set_workers(workers);
            let mut data = vec![0u32; 57];
            par_chunks(&mut data, 10, |start, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (start + i) as u32 + 1;
                }
            });
            let expect: Vec<u32> = (1..=57).collect();
            assert_eq!(data, expect, "workers={workers}");
        }
        set_workers(1);
    }

    #[test]
    fn nested_calls_run_serially() {
        let _guard = WORKER_LOCK.lock().unwrap();
        set_workers(4);
        let outer: Vec<bool> = par_map_indexed(&[(); 4], |_, _| {
            assert!(in_worker());
            // The nested call must not spawn (it would observe IN_WORKER).
            let inner = par_map_indexed(&[(); 8], |_, _| in_worker());
            inner.iter().all(|&b| b)
        });
        assert!(outer.iter().all(|&b| b));
        assert!(!in_worker());
        set_workers(1);
    }

    #[test]
    fn set_workers_clamps_to_one() {
        let _guard = WORKER_LOCK.lock().unwrap();
        set_workers(0);
        assert_eq!(max_workers(), 1);
        set_workers(1);
    }
}
