//! Self-test: every workload runs at `--quick` size in both passes, and the
//! report has the shape the benchmark contract asks for.

use semcom_benchmark::spec::{self, Better};
use semcom_benchmark::{result_line, run, RunArgs};
use semcom_obs::{parse_json, Json};
use std::collections::BTreeSet;

fn quick(workload: &'static str, trace: bool) -> RunArgs {
    RunArgs {
        workload,
        seed: spec::DEFAULT_SEED + 1,
        seconds: spec::RUN_SECONDS / spec::QUICK_DIVISOR as f64,
        trace,
        quick: true,
        repin: false,
    }
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

fn unit_ok(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn tables_have_the_contract_shape() {
    assert!((2..=8).contains(&spec::WORKLOADS.len()));
    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    let mut names = BTreeSet::new();
    for w in &spec::WORKLOADS {
        assert!(well_formed(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(names.insert(w.name), "{} is used twice", w.name);
    }
    for m in &spec::END_TO_END {
        assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(names.insert(m.name), "{} is used twice", m.name);
    }
    for l in &spec::PER_LAYER {
        assert!(well_formed(l.name) && unit_ok(l.unit), "{}", l.name);
        assert!(names.insert(l.name), "{} is used twice", l.name);
        assert!(
            spec::end_to_end(l.moves).is_some(),
            "{} names {} which is not an end-to-end metric",
            l.name,
            l.moves
        );
        assert!(!l.on.is_empty(), "{} is measured nowhere", l.name);
        for w in l.on {
            assert!(spec::workload(w).is_some(), "{} names workload {w}", l.name);
        }
    }
    let setup = spec::end_to_end(spec::SETUP_S).expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    let largest = spec::END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s takes the largest bound");
}

#[test]
fn benchmark_json_lists_exactly_what_the_driver_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(spec::RUN_SECONDS)
    );
    let field =
        |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
    let rows = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();

    let workloads: Vec<(String, String)> = rows("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let want: Vec<(String, String)> = spec::WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(workloads, want);

    let end_to_end: Vec<(String, String, String, f64)> = rows("end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            (
                field(m, "name"),
                field(m, "unit"),
                field(m, "better"),
                bound,
            )
        })
        .collect();
    let want: Vec<(String, String, String, f64)> = spec::END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.into(),
                m.unit.into(),
                m.better.as_str().into(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, want);

    let per_layer: Vec<(String, String, String)> = rows("per_layer")
        .iter()
        .map(|m| (field(m, "name"), field(m, "unit"), field(m, "better")))
        .collect();
    let want: Vec<(String, String, String)> = spec::PER_LAYER
        .iter()
        .map(|l| (l.name.into(), l.unit.into(), l.better.as_str().into()))
        .collect();
    assert_eq!(per_layer, want);
}

/// Runs one pass of one workload at quick size and checks the result line.
fn check_pass(workload: &'static str, trace: bool) {
    let args = quick(workload, trace);
    let out = run(&args);
    assert!(
        out.correct(),
        "{workload} trace={trace}: {:?}",
        out.problems
    );
    assert!(out.attempted >= 1);
    let line = result_line(&args, &out);
    let doc = parse_json(&line).expect("the result line is JSON");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
    let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
    let declared: BTreeSet<&str> = if trace {
        spec::PER_LAYER.iter().map(|l| l.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    assert_eq!(emitted, declared, "{workload} trace={trace}");
    for (name, m) in metrics {
        assert!(
            m.get("unit").and_then(Json::as_str).is_some_and(unit_ok),
            "{name}"
        );
        let value = m.get("value").and_then(Json::as_f64).expect("a number");
        if !trace {
            assert!(value > 0.0, "{workload}: end-to-end {name} must never be 0");
        }
    }
    if trace {
        // A layer metric is non-zero exactly where the table says the layer
        // is exercised (counts that may legitimately be 0 aside).
        let may_be_zero = [
            "obs.spans_dropped",
            "fl.sync_rejected",
            "fl.resyncs",
            "cache.evictions",
            "core.migrations",
            "bench.trace_overhead_pct",
            "fl.migrate_ms",
            "core.glue_us",
            "user_model_share",
            "bench.window_spread_pct",
        ];
        for l in &spec::PER_LAYER {
            let value = out.metrics[l.name];
            if !l.on.contains(&workload) {
                assert_eq!(value, 0.0, "{workload} bypasses {}", l.name);
            } else if !may_be_zero.contains(&l.name) {
                assert!(
                    value != 0.0,
                    "{workload} exercises {} but it reads 0",
                    l.name
                );
            }
        }
    }
}

macro_rules! workload_tests {
    ($($test:ident => $workload:expr),* $(,)?) => {$(
        #[test]
        fn $test() {
            check_pass($workload, false);
            check_pass($workload, true);
        }
    )*};
}

workload_tests! {
    serve_steady_runs => spec::SERVE_STEADY,
    serve_observed_runs => spec::SERVE_OBSERVED,
    serve_stream_runs => spec::SERVE_STREAM,
    serve_stream_int8_runs => spec::SERVE_STREAM_INT8,
    kb_establish_runs => spec::KB_ESTABLISH,
    fleet_replay_runs => spec::FLEET_REPLAY,
}

#[test]
fn every_workload_has_its_pinned_values() {
    for w in &spec::WORKLOADS {
        let pins = parse_json(semcom_benchmark::expected(w.name)).expect("expected file parses");
        let pins = pins.as_obj().expect("an object");
        assert!(!pins.is_empty(), "{} pins nothing", w.name);
        let digest_or_sim = pins.contains_key("decoded_digest") || pins.contains_key("sim_p99_ms");
        assert!(
            digest_or_sim,
            "{} pins neither a digest nor simulated statistics",
            w.name
        );
    }
}
