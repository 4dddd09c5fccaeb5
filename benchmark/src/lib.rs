//! The repository's benchmark: six named workloads, end-to-end metrics a
//! user of the system would see, and an outside-in per-layer budget. See
//! `benchmark/README.md` for what each number means and how to run it.

#![forbid(unsafe_code)]

pub mod cli;
pub mod fleet;
pub mod measure;
pub mod probes;
pub mod replay;
pub mod serving;
pub mod spec;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One run of one workload, as the driver asks for it.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    /// `false`: the end-to-end metrics; `true`: the per-layer metrics.
    pub trace: bool,
    /// Divide every fixed count by `spec::QUICK_DIVISOR` (self-test size).
    pub quick: bool,
    /// Report the deterministic outputs without comparing them with
    /// `expected/` (the suite's `--pin` is about to rewrite those files).
    pub repin: bool,
}

impl RunArgs {
    /// A fixed count at this run's size: divided by `QUICK_DIVISOR` (and at
    /// least 1) under `--quick`.
    pub fn scaled(&self, count: u64) -> u64 {
        if self.quick {
            (count / spec::QUICK_DIVISOR).max(1)
        } else {
            count
        }
    }
}

/// What a run measured and whether its outputs were right.
#[derive(Default, Debug)]
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub problems: Vec<String>,
    /// Metric values by name: end-to-end or per-layer, by `RunArgs::trace`.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Outputs that repeat exactly for a seed, compared with `expected/`.
    pub pinned: BTreeMap<&'static str, String>,
}

impl RunOutput {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let clash = self.metrics.insert(name, value);
        assert!(clash.is_none(), "metric {name} reported twice");
    }

    /// Pins a number by its shortest round-trip decimal form.
    pub fn pin(&mut self, name: &'static str, value: f64) {
        self.pin_text(name, format!("{value:?}"));
    }

    pub fn pin_text(&mut self, name: &'static str, value: String) {
        self.pinned.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Writes a workload's spans as Perfetto-loadable JSON to
/// `benchmark/out/trace-<workload>.json` and returns the path.
pub fn write_trace(workload: &str, trace: &semcom_obs::TraceBuffer) -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace.to_perfetto_json()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// The values pinned for `workload` at the default seed and full size.
pub fn expected(workload: &str) -> &'static str {
    match workload {
        spec::SERVE_STEADY => include_str!("../expected/serve_steady.json"),
        spec::SERVE_OBSERVED => include_str!("../expected/serve_observed.json"),
        spec::SERVE_STREAM => include_str!("../expected/serve_stream.json"),
        spec::SERVE_STREAM_INT8 => include_str!("../expected/serve_stream_int8.json"),
        spec::KB_ESTABLISH => include_str!("../expected/kb_establish.json"),
        spec::FLEET_REPLAY => include_str!("../expected/fleet_replay.json"),
        other => panic!("unknown workload {other}"),
    }
}

/// Runs one workload and checks its outputs: the invariants for any seed,
/// and for the default seed at full size the pinned deterministic values.
pub fn run(args: &RunArgs) -> RunOutput {
    // Worker threads are min(nproc, 4) unless SEMCOM_THREADS says otherwise
    // (the determinism check runs the suite at 1).
    if std::env::var_os("SEMCOM_THREADS").is_none() {
        semcom_par::set_workers(cli::nproc().min(4));
    }
    let mut out = if args.workload == spec::FLEET_REPLAY {
        fleet::run(args)
    } else {
        serving::run(args)
    };
    if args.seed == spec::DEFAULT_SEED && !args.quick && !args.repin {
        let text = expected(args.workload);
        let pins = semcom_obs::parse_json(text).expect("expected/*.json parses");
        let pins = pins.as_obj().expect("expected/*.json is an object");
        for (name, got) in &out.pinned {
            match pins.get(*name).and_then(|v| v.as_str()) {
                Some(want) if want == got => {}
                Some(want) => out.problems.push(format!("{name} = {got}, pinned {want}")),
                None => out.problems.push(format!("{name} has no pinned value")),
            }
        }
    }
    for (name, value) in &out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("{name} is not a finite number"));
        }
    }
    // Every metric of the pass is reported; a layer the workload bypasses
    // reads 0.
    if args.trace {
        for layer in &spec::PER_LAYER {
            let measured_here = layer.on.contains(&args.workload);
            match (measured_here, out.metrics.contains_key(layer.name)) {
                (true, false) => out
                    .problems
                    .push(format!("{} was not measured", layer.name)),
                (false, true) => out
                    .problems
                    .push(format!("{} is not declared for this workload", layer.name)),
                (false, false) => {
                    out.metrics.insert(layer.name, 0.0);
                }
                (true, true) => {}
            }
        }
    }
    out
}

/// The driver's result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(args: &RunArgs, out: &RunOutput) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted.max(1),
        out.failed
    );
    let units: Vec<(&str, &str)> = if args.trace {
        spec::PER_LAYER.iter().map(|l| (l.name, l.unit)).collect()
    } else {
        spec::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    for (i, (name, unit)) in units.iter().enumerate() {
        let value = out
            .metrics
            .get(name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
