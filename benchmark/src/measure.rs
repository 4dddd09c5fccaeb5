//! Timing primitives shared by every workload: the time-boxed closed loop
//! with its five windows, order statistics, and process facts.

use std::time::Instant;

/// Windows a measured phase is cut into. Every throughput and percentile
/// metric is computed per window and the median window is reported, so one
/// noisy-neighbour burst moves at most one of the five values.
pub const WINDOWS: usize = 5;

/// Linear-interpolated quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `(q1, median, q3)` by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is how the
/// acceptance spread is defined.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (cut(1), cut(2), cut(3))
}

/// What one time-boxed closed loop observed.
pub struct LoopStats {
    /// Closed-loop calls issued.
    pub calls: u64,
    /// Messages completed per wall second, median window.
    pub msgs_per_s: f64,
    /// Per-window median call latency (µs), median window.
    pub p50_us: f64,
    /// Per-window p95 call latency (µs), median window.
    pub p95_us: f64,
    /// Per-window p99 call latency (µs), median window.
    pub p99_us: f64,
    /// Mean call latency over the whole phase (µs).
    pub mean_us: f64,
    /// `(max − min) ÷ median` of the five window throughputs, in percent:
    /// the run's own noise floor.
    pub window_spread_pct: f64,
}

/// One closed-loop client over `state`: `op(state, i)` is issued when call
/// `i − 1` has returned, and reports how many messages it served. Only `op`
/// is timed for latency; `before` (input generation, the traced pass's
/// staged replay) and `after` (output checks, which also get the call's
/// latency in ns) run outside it but inside the wall clock that throughput
/// divides by.
///
/// The loop runs until `seconds` have passed **and** `min_calls` calls were
/// made: the first `min_calls` calls are the fixed-count prefix whose
/// deterministic counters repeat exactly for a seed.
pub fn closed_loop<S>(
    state: &mut S,
    seconds: f64,
    min_calls: u64,
    mut before: impl FnMut(&mut S, u64),
    mut op: impl FnMut(&mut S, u64) -> u64,
    mut after: impl FnMut(&mut S, u64, u64),
) -> LoopStats {
    let window_s = seconds / WINDOWS as f64;
    let mut lat_ns: Vec<Vec<u32>> = (0..WINDOWS).map(|_| Vec::with_capacity(1 << 16)).collect();
    let mut msgs = [0u64; WINDOWS];
    let mut last_end = [0.0f64; WINDOWS];
    let mut total_ns = 0u64;
    let mut calls = 0u64;
    let start = Instant::now();
    loop {
        before(state, calls);
        let t0 = Instant::now();
        let served = op(state, calls);
        let t1 = Instant::now();
        let ns = (t1 - t0).as_nanos() as u64;
        let at = (t1 - start).as_secs_f64();
        let w = ((at / window_s) as usize).min(WINDOWS - 1);
        lat_ns[w].push(ns.min(u32::MAX as u64) as u32);
        msgs[w] += served;
        last_end[w] = at;
        total_ns += ns;
        after(state, calls, ns);
        calls += 1;
        if at >= seconds && calls >= min_calls {
            break;
        }
    }
    // A window spans from the end of the previous window's last call to the
    // end of its own last call, so a long call (a fleet replay) is never
    // split across two windows.
    let mut rates = Vec::new();
    let (mut p50, mut p95, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_end = 0.0;
    for w in 0..WINDOWS {
        if lat_ns[w].is_empty() {
            continue;
        }
        rates.push(msgs[w] as f64 / (last_end[w] - prev_end));
        prev_end = last_end[w];
        let mut us: Vec<f64> = lat_ns[w].iter().map(|&n| n as f64 / 1e3).collect();
        us.sort_by(f64::total_cmp);
        p50.push(quantile(&us, 0.5));
        p95.push(quantile(&us, 0.95));
        p99.push(quantile(&us, 0.99));
    }
    let mid = median(&rates);
    let (lo, hi) = rates
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &r| (lo.min(r), hi.max(r)));
    LoopStats {
        calls,
        msgs_per_s: mid,
        p50_us: median(&p50),
        p95_us: median(&p95),
        p99_us: median(&p99),
        mean_us: total_ns as f64 / 1e3 / calls as f64,
        window_spread_pct: 100.0 * (hi - lo) / mid,
    }
}

/// A process-wide time origin: span timestamps are nanoseconds since it.
#[derive(Clone, Copy)]
pub struct Origin(Instant);

impl Origin {
    pub fn now() -> Self {
        Origin(Instant::now())
    }

    /// Nanoseconds since the origin.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// Repeats `f` until `budget_s` has passed (at least `min_reps` times) and
/// returns the mean seconds per call. For the layer probes, which time one
/// public function from outside.
pub fn time_per_call(budget_s: f64, min_reps: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut reps = 0u64;
    loop {
        f();
        reps += 1;
        let spent = start.elapsed().as_secs_f64();
        if reps >= min_reps && spent >= budget_s {
            return spent / reps as f64;
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM` from
/// `/proc/self/status`), or 0 where the file is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a, the digest pinned over every decoded concept of the
/// fixed-count prefix.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 32-bit value in, little-endian.
    pub fn push_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn closed_loop_runs_the_fixed_prefix_even_when_time_is_up() {
        let mut seen = 0u64;
        let stats = closed_loop(
            &mut seen,
            0.0,
            7,
            |_, _| {},
            |_, _| 2,
            |seen, _, _| *seen += 1,
        );
        assert_eq!(stats.calls, 7);
        assert_eq!(seen, 7);
        assert!(stats.msgs_per_s > 0.0);
    }
}
