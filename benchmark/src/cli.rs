//! Command line: the driver's single-run form, and the suite / repeat /
//! compare tools built on it.

use crate::measure::{median, quartiles};
use crate::spec::{self, Better};
use crate::{result_line, run, RunArgs};
use semcom_obs::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;

pub const USAGE: &str = "\
usage:
  run.sh --workload NAME --seed N --seconds S --trace 0|1 [--quick]
      one run of one workload; the last stdout line is the result object
  run.sh [suite] [--seed N] [--quick] [--traced] [--pin] [--out FILE]
      every workload in its own process; --traced adds the per-layer pass,
      --pin rewrites benchmark/expected/*.json from this run
  run.sh repeat N [--seed N] [--quick] [--out FILE]
      the end-to-end pass N times; prints median, quartiles and spread
  run.sh compare A.json B.json
      per (metric, workload): better / within bound / worse / unresolved";

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or_exit<T: std::str::FromStr>(what: &str, text: &str) -> T {
    text.parse().unwrap_or_else(|_| {
        eprintln!("{what}: cannot parse {text:?}\n{USAGE}");
        std::process::exit(2)
    })
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let has = |flag: &str| args.iter().any(|a| a == flag);
    if has("--help") || has("-h") {
        println!("{USAGE}");
        return 0;
    }
    let seed =
        flag_value(args, "--seed").map_or(spec::DEFAULT_SEED, |s| parse_or_exit("--seed", s));
    let quick = has("--quick");
    if let Some(name) = flag_value(args, "--workload") {
        let Some(workload) = spec::workload(name) else {
            eprintln!("unknown workload {name:?}\n{USAGE}");
            return 2;
        };
        let seconds = flag_value(args, "--seconds")
            .map_or(spec::RUN_SECONDS, |s| parse_or_exit("--seconds", s));
        let trace = flag_value(args, "--trace").is_some_and(|t| t != "0");
        return single(&RunArgs {
            workload: workload.name,
            seed,
            seconds,
            trace,
            quick,
            repin: has("--pin"),
        });
    }
    let out = flag_value(args, "--out");
    match args.first().map(String::as_str) {
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                2
            }
        },
        Some("repeat") => {
            let rounds = args.get(1).map_or(5, |n| parse_or_exit("repeat", n));
            let out = out.unwrap_or("benchmark/out/repeat.json");
            suite(seed, quick, false, false, rounds, out)
        }
        Some(word) if word != "suite" && !word.starts_with("--") => {
            eprintln!("{USAGE}");
            2
        }
        _ => {
            let out = out.unwrap_or("benchmark/out/report.json");
            suite(seed, quick, has("--traced"), has("--pin"), 1, out)
        }
    }
}

/// One run in this process: metrics by name with unit on stderr, the result
/// object as the last line of stdout.
fn single(args: &RunArgs) -> i32 {
    let out = run(args);
    for (name, value) in &out.metrics {
        eprintln!("{:<20} {name:<36} {value:>16.4}", args.workload);
    }
    for (name, value) in &out.pinned {
        eprintln!(
            "{:<20} {name:<36} {value:>16} (repeats exactly for the seed)",
            args.workload
        );
    }
    let pins: Vec<String> = out
        .pinned
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!("pinned {{{}}}", pins.join(", "));
    for problem in &out.problems {
        eprintln!("{}: CHECK FAILED: {problem}", args.workload);
    }
    println!("{}", result_line(args, &out));
    if out.correct() {
        0
    } else {
        1
    }
}

/// Facts about the host and build that every report carries.
fn host_facts() -> BTreeMap<&'static str, String> {
    let capture = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("SEMCOM_THREADS").unwrap_or_else(|_| nproc().min(4).to_string());
    BTreeMap::from([
        ("nproc", nproc().to_string()),
        ("semcom_threads", threads),
        ("commit", capture("git", &["rev-parse", "--short", "HEAD"])),
        ("rustc", capture("rustc", &["--version"])),
        ("cpu_model", cpu),
    ])
}

/// One child run's parsed result.
struct ChildRun {
    workload: &'static str,
    trace: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, (f64, String)>,
    pinned: BTreeMap<String, String>,
}

/// Runs one workload in a process of its own and parses what it printed.
fn child(
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repin: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ]);
    if quick {
        cmd.arg("--quick");
    }
    if repin {
        cmd.arg("--pin");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stderr = String::from_utf8_lossy(&output.stderr);
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(line) = stdout.lines().last() else {
        return Err(format!("{workload}: no result line\n{stderr}"));
    };
    let json = parse_json(line).map_err(|e| format!("{workload}: {e:?}"))?;
    let mut metrics = BTreeMap::new();
    for (name, m) in json
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?
    {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or("metric without value")?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    let mut pinned = BTreeMap::new();
    if let Some(pins) = stdout.lines().find_map(|l| l.strip_prefix("pinned ")) {
        let pins = parse_json(pins).map_err(|e| format!("{workload}: {e:?}"))?;
        for (name, value) in pins.as_obj().ok_or("pinned line is not an object")? {
            pinned.insert(name.clone(), value.as_str().unwrap_or_default().to_string());
        }
    }
    for l in stderr.lines().filter(|l| l.contains("CHECK FAILED")) {
        eprintln!("{l}");
    }
    Ok(ChildRun {
        workload,
        trace,
        correct: matches!(json.get("correct"), Some(Json::Bool(true))) && output.status.success(),
        attempted: json.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: json.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
        pinned,
    })
}

/// Every workload `rounds` times, each run in its own process; prints the
/// metrics (or, for several rounds, their spread) and writes the report.
fn suite(seed: u64, quick: bool, traced: bool, pin: bool, rounds: usize, out_path: &str) -> i32 {
    let host = host_facts();
    for (k, v) in &host {
        println!("# {k}: {v}");
    }
    let seconds = if quick {
        spec::RUN_SECONDS / spec::QUICK_DIVISOR as f64
    } else {
        spec::RUN_SECONDS
    };
    println!("# seed: {seed}  seconds per run: {seconds}  closed loop, one client");
    let mut runs = Vec::new();
    let mut ok = true;
    for round in 0..rounds {
        for w in &spec::WORKLOADS {
            for trace in [false, true] {
                if trace && !traced {
                    continue;
                }
                match child(w.name, seed, seconds, trace, quick, pin) {
                    Ok(r) => {
                        if rounds == 1 {
                            print_run(&r);
                        } else {
                            println!(
                                "round {} {}: {}",
                                round + 1,
                                r.workload,
                                if r.correct { "ok" } else { "FAILED" }
                            );
                        }
                        ok &= r.correct;
                        runs.push(r);
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if rounds > 1 {
        print_spread(&runs);
    }
    if pin && ok && !quick && seed == spec::DEFAULT_SEED {
        for r in runs.iter().filter(|r| !r.trace) {
            let body: Vec<String> = r
                .pinned
                .iter()
                .map(|(k, v)| format!("  \"{k}\": \"{v}\""))
                .collect();
            let path = format!("benchmark/expected/{}.json", r.workload);
            if let Err(e) = std::fs::write(&path, format!("{{\n{}\n}}\n", body.join(",\n"))) {
                eprintln!("cannot write {path}: {e}");
                ok = false;
            }
        }
    }
    let report = report_json(&host, seed, seconds, quick, &runs);
    let path = std::path::Path::new(out_path);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, report));
    match written {
        Ok(()) => println!("# report: {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            ok = false;
        }
    }
    if ok {
        0
    } else {
        1
    }
}

fn print_run(r: &ChildRun) {
    println!(
        "\n== {} ({}): {} — {} attempted, {} failed",
        r.workload,
        if r.trace {
            "per-layer, traced pass"
        } else {
            "end to end"
        },
        if r.correct {
            "outputs correct"
        } else {
            "OUTPUT CHECK FAILED"
        },
        r.attempted,
        r.failed
    );
    for (name, (value, unit)) in &r.metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    if !r.trace {
        for (name, value) in &r.pinned {
            println!("{name:<36} {value:>16} (repeats exactly for the seed)");
        }
    }
}

/// `(q3 − q1) ÷ median`, the spread the acceptance rule uses.
fn relative_spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let (q1, mid, q3) = quartiles(values);
    let spread = if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    };
    (q1, mid, q3, spread)
}

fn print_spread(runs: &[ChildRun]) {
    println!(
        "\n{:<20} {:<24} {:>5} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter(|r| r.workload == w.name && !r.trace)
                .filter_map(|r| r.metrics.get(m.name).map(|v| v.0))
                .collect();
            if values.is_empty() {
                continue;
            }
            let (q1, mid, q3, spread) = relative_spread(&values);
            println!(
                "{:<20} {:<24} {:>5} {q1:>14.4} {mid:>14.4} {q3:>14.4} {:>7.2}% {:>6.1}%",
                w.name,
                m.name,
                values.len(),
                100.0 * spread,
                100.0 * m.bound
            );
        }
    }
}

fn report_json(
    host: &BTreeMap<&'static str, String>,
    seed: u64,
    seconds: f64,
    quick: bool,
    runs: &[ChildRun],
) -> String {
    let mut s = String::from("{\n  \"host\": {");
    for (i, (k, v)) in host.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{k}\": \"{}\"",
            if i == 0 { "" } else { ", " },
            v.replace(['"', '\\'], "'")
        );
    }
    let _ = write!(s, "}},\n  \"seed\": {seed},\n  \"seconds\": {seconds:?},\n  \"quick\": {quick},\n  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"workload\": \"{}\", \"trace\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            if i == 0 { "" } else { "," },
            r.workload,
            r.trace as u8,
            r.correct,
            r.attempted,
            r.failed
        );
        for (j, (name, (value, unit))) in r.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
                if j == 0 { "" } else { ", " }
            );
        }
        s.push_str("}}");
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// End-to-end values of a report, by (workload, metric).
fn load(path: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{path}: {e:?}"))?;
    let runs = json
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no runs"))?;
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for r in runs {
        if r.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = r
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without workload")?;
        for (name, m) in r
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?
        {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                values
                    .entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(values)
}

/// The share of A's median by which B (change) is worse than A (parent) on
/// one (metric, workload), and the verdict by the rule in the
/// choosing-metrics guide.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> (f64, &'static str) {
    let (_, mid_a, _, spread_a) = relative_spread(a);
    let (_, mid_b, _, spread_b) = relative_spread(b);
    // Positive = B is worse, as a share of A's median.
    let worse_by = match better {
        Better::Lower => (mid_b - mid_a) / mid_a.abs(),
        Better::Higher => (mid_a - mid_b) / mid_a.abs(),
    };
    let every_b_better = a.iter().all(|&x| {
        b.iter().all(|&y| match better {
            Better::Lower => y < x,
            Better::Higher => y > x,
        })
    });
    let verdict = if spread_a.max(spread_b) > bound && !every_b_better {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else if -worse_by > spread_a && every_b_better {
        "better"
    } else {
        "within bound"
    };
    (worse_by, verdict)
}

fn compare(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 2;
        }
    };
    println!(
        "{:<20} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "bound"
    );
    let mut worse = 0;
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{:<20} {:<24} missing from a report", w.name, m.name);
                worse += 1;
                continue;
            };
            let (worse_by, v) = verdict(m.better, m.bound, va, vb);
            worse += (v == "worse") as i32;
            println!(
                "{:<20} {:<24} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {v}",
                w.name,
                m.name,
                median(va),
                median(vb),
                100.0 * worse_by,
                100.0 * m.bound
            );
        }
    }
    if worse > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(verdict(Better::Lower, 0.05, &a, &a).1, "within bound");
        let slower: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(Better::Lower, 0.05, &a, &slower).1, "worse");
        assert_eq!(verdict(Better::Higher, 0.05, &a, &slower).1, "better");
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(verdict(Better::Lower, 0.05, &a, &noisy).1, "unresolved");
    }
}
