//! The whole set: every workload untraced and traced, each run in a
//! process of its own, one after another, so `peak_rss_mb` is per
//! workload. Also `--agree N` (N sets must agree within each metric's
//! bound) and the baseline writer with its validator.

use crate::json::{self, obj, Json};
use crate::metrics::{self, END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode};

#[derive(Debug, Clone, PartialEq)]
pub struct SuiteOptions {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    /// Sets to run; more than one checks that they agree.
    pub sets: usize,
    pub record_baseline: bool,
}

type Values = Vec<(String, f64)>;

/// Both runs of one workload.
struct WorkloadResult {
    workload: &'static str,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
}

struct ChildResult {
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Values,
}

/// Runs this binary once on one workload and reads its result line.
fn run_child(workload: &str, opts: &SuiteOptions, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("{workload}: no output ({})", output.status))?;
    for line in &lines {
        println!("    {line}");
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |key: &str| {
        doc.get(key)
            .ok_or_else(|| format!("{workload}: no `{key}`"))
    };
    let metrics = field("metrics")?
        .entries()
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64);
            value
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("{workload}: {name} has no value"))
        })
        .collect::<Result<Values, String>>()?;
    let result = ChildResult {
        notes: lines
            .iter()
            .filter_map(|l| l.strip_prefix("note: "))
            .map(str::to_string)
            .collect(),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    };
    // A child that failed its checks exits non-zero but still reports.
    if !output.status.success() && result.failed == 0 {
        return Err(format!("{workload}: exited with {}", output.status));
    }
    Ok(result)
}

fn run_set(opts: &SuiteOptions) -> Result<Vec<WorkloadResult>, String> {
    let mut set = Vec::new();
    for (workload, why) in WORKLOADS {
        println!("== {workload}: {why}");
        let untraced = run_child(workload, opts, false)?;
        let traced = run_child(workload, opts, true)?;
        let mut notes = untraced.notes;
        notes.extend(traced.notes);
        let result = WorkloadResult {
            workload,
            notes,
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            end_to_end: untraced.metrics,
            per_layer: traced.metrics,
        };
        for (name, value) in result.end_to_end.iter().chain(&result.per_layer) {
            let unit = metrics::unit_of(name).unwrap_or("?");
            println!("{workload:<14} {name:<46} {value:>18.6} {unit}");
        }
        println!(
            "{workload:<14} {:<46} {:>18.6} ratio ({} of {})",
            "fail_ratio",
            result.failed as f64 / result.attempted.max(1) as f64,
            result.failed,
            result.attempted
        );
        set.push(result);
    }
    Ok(set)
}

/// Whether a per-layer metric is a count that must repeat exactly.
fn repeats_exactly(name: &str) -> bool {
    matches!(metrics::unit_of(name), Some("count" | "bytes"))
}

/// Every pair of sets must agree: end-to-end medians within the metric's
/// bound, counts and simulated results exactly.
fn disagreements(sets: &[Vec<WorkloadResult>]) -> Vec<String> {
    let mut out = Vec::new();
    for (w, first) in sets[0].iter().enumerate() {
        let runs: Vec<&WorkloadResult> = sets.iter().map(|s| &s[w]).collect();
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.end_to_end.iter().find(|(n, _)| n == m.name))
                .map(|(_, v)| *v)
                .collect();
            let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if (hi - lo) / lo > m.bound {
                out.push(format!(
                    "{} {}: {values:?} differ by more than {}",
                    first.workload, m.name, m.bound
                ));
            }
        }
        for other in &runs[1..] {
            if other.notes != first.notes {
                out.push(format!(
                    "{}: simulated results differ: {:?} vs {:?}",
                    first.workload, first.notes, other.notes
                ));
            }
            for ((name, a), (_, b)) in first.per_layer.iter().zip(&other.per_layer) {
                if repeats_exactly(name) && a != b {
                    out.push(format!("{} {name}: {a} vs {b}", first.workload));
                }
            }
        }
    }
    out
}

fn values_json(values: &Values) -> Json {
    obj(values.iter().map(|(name, value)| {
        // The validator reports a name that came back unregistered.
        let unit = metrics::unit_of(name).unwrap_or("?");
        (name.as_str(), metrics::value_json(*value, unit))
    }))
}

fn baseline_doc(opts: &SuiteOptions, set: &[WorkloadResult]) -> Json {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workloads = set
        .iter()
        .map(|r| {
            obj([
                ("name", Json::from(r.workload)),
                (
                    "notes",
                    Json::Arr(r.notes.iter().map(|n| Json::from(n.as_str())).collect()),
                ),
                ("attempted", Json::from(r.attempted)),
                ("failed", Json::from(r.failed)),
                ("end_to_end", values_json(&r.end_to_end)),
                ("per_layer", values_json(&r.per_layer)),
            ])
        })
        .collect();
    let manifest = metrics::manifest();
    let from_manifest = |key| manifest.get(key).expect("a manifest key").clone();
    obj([
        (
            "mode",
            Json::from(if opts.smoke { "smoke" } else { "full" }),
        ),
        ("command", from_manifest("command")),
        ("paths", from_manifest("paths")),
        ("seed", Json::from(opts.seed)),
        ("seconds", Json::from(opts.seconds)),
        ("nproc", Json::from(nproc)),
        ("rustc", Json::from(rustc)),
        ("workloads", Json::Arr(workloads)),
    ])
}

/// What may be recorded as the baseline: a full run, every workload
/// known and listed once, every metric registered, no failures.
pub fn validate_baseline(doc: &Json) -> Result<(), String> {
    if doc.get("mode").and_then(Json::as_str) != Some("full") {
        return Err("only a full run may be recorded, not a smoke run".into());
    }
    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        return Err("no `workloads` array".into());
    };
    let mut seen = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload has no name")?;
        if !metrics::is_workload(name) {
            return Err(format!("unknown workload `{name}`"));
        }
        if w.get("failed").and_then(Json::as_u64) != Some(0) {
            return Err(format!("{name}: a run with failures is not a baseline"));
        }
        let groups: [(&str, Vec<&str>); 2] = [
            ("end_to_end", END_TO_END.iter().map(|m| m.name).collect()),
            (
                "per_layer",
                metrics::PER_LAYER.iter().map(|m| m.name).collect(),
            ),
        ];
        for (group, registered) in groups {
            let entries = w.get(group).map(Json::entries).unwrap_or(&[]);
            if entries.len() != registered.len() {
                return Err(format!(
                    "{name}: {group} has {} metrics, not {}",
                    entries.len(),
                    registered.len()
                ));
            }
            for (metric, _) in entries {
                if !registered.contains(&metric.as_str()) {
                    return Err(format!("{name}: unknown {group} metric `{metric}`"));
                }
                let key = (name.to_string(), metric.clone());
                if seen.contains(&key) {
                    return Err(format!("{name}: `{metric}` is listed twice"));
                }
                seen.push(key);
            }
        }
    }
    for (workload, _) in WORKLOADS {
        let listed = workloads
            .iter()
            .filter(|w| w.get("name").and_then(Json::as_str) == Some(workload))
            .count();
        if listed != 1 {
            return Err(format!("workload `{workload}` is listed {listed} times"));
        }
    }
    Ok(())
}

pub fn run(opts: &SuiteOptions) -> ExitCode {
    let mut sets = Vec::new();
    for i in 0..opts.sets {
        if opts.sets > 1 {
            println!("#### set {} of {}", i + 1, opts.sets);
        }
        match run_set(opts) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let failed: u64 = sets.iter().flatten().map(|r| r.failed).sum();
    let mut ok = failed == 0;
    if !ok {
        eprintln!("{failed} output checks failed");
    }
    if sets.len() > 1 {
        let diffs = disagreements(&sets);
        for d in &diffs {
            eprintln!("DISAGREE: {d}");
        }
        if diffs.is_empty() {
            println!("{} sets agree within every metric's bound", sets.len());
        }
        ok &= diffs.is_empty();
    }
    if opts.record_baseline {
        let doc = baseline_doc(opts, &sets[0]);
        let dir = std::env::var("BENCHMARK_DIR").unwrap_or_else(|_| "benchmark".into());
        let path = format!("{dir}/BASELINE.json");
        let written = validate_baseline(&doc)
            .and_then(|()| std::fs::write(&path, doc.render_pretty()).map_err(|e| e.to_string()));
        match written {
            Ok(()) => println!("recorded {path}"),
            Err(e) => {
                eprintln!("not recording {path}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(workload: &'static str, wall_s: f64, events: f64) -> WorkloadResult {
        WorkloadResult {
            workload,
            notes: vec![format!("events={events}")],
            attempted: 10,
            failed: 0,
            end_to_end: END_TO_END
                .iter()
                .map(|m| (m.name.to_string(), wall_s))
                .collect(),
            per_layer: metrics::PER_LAYER
                .iter()
                .map(|m| {
                    let v = if repeats_exactly(m.name) {
                        events
                    } else {
                        wall_s
                    };
                    (m.name.to_string(), v)
                })
                .collect(),
        }
    }

    fn full_set(wall_s: f64, events: f64) -> Vec<WorkloadResult> {
        WORKLOADS
            .iter()
            .map(|(w, _)| result(w, wall_s, events))
            .collect()
    }

    fn opts(smoke: bool) -> SuiteOptions {
        SuiteOptions {
            seed: 1,
            seconds: 1.0,
            smoke,
            sets: 1,
            record_baseline: true,
        }
    }

    #[test]
    fn a_full_clean_set_may_be_recorded() {
        let doc = baseline_doc(&opts(false), &full_set(1.0, 5.0));
        assert_eq!(validate_baseline(&doc), Ok(()));
        let reread = json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(validate_baseline(&reread), Ok(()));
    }

    #[test]
    fn a_smoke_run_is_never_a_baseline() {
        let doc = baseline_doc(&opts(true), &full_set(1.0, 5.0));
        let err = validate_baseline(&doc).unwrap_err();
        assert!(err.contains("smoke"), "{err}");
    }

    #[test]
    fn duplicate_and_unknown_rows_are_refused() {
        let mut set = full_set(1.0, 5.0);
        set[0].end_to_end[1].0 = "wall_s".into();
        let err = validate_baseline(&baseline_doc(&opts(false), &set)).unwrap_err();
        assert!(err.contains("twice"), "{err}");

        let mut set = full_set(1.0, 5.0);
        set[2].per_layer[0].0 = "core.jit.us".into();
        let err = validate_baseline(&baseline_doc(&opts(false), &set)).unwrap_err();
        assert!(err.contains("unknown per_layer metric"), "{err}");

        let mut set = full_set(1.0, 5.0);
        set[1].workload = "compile_load";
        let err = validate_baseline(&baseline_doc(&opts(false), &set)).unwrap_err();
        assert!(err.contains("listed"), "{err}");

        let mut set = full_set(1.0, 5.0);
        set[3].failed = 1;
        let err = validate_baseline(&baseline_doc(&opts(false), &set)).unwrap_err();
        assert!(err.contains("failures"), "{err}");
    }

    #[test]
    fn sets_agree_within_bounds_and_exactly_on_counts() {
        let within = [full_set(1.0, 5.0), full_set(1.05, 5.0)];
        assert!(disagreements(&within).is_empty());
        let slow = [full_set(1.0, 5.0), full_set(1.3, 5.0)];
        assert!(disagreements(&slow).iter().any(|d| d.contains("wall_s")));
        let drifted = [full_set(1.0, 5.0), full_set(1.0, 6.0)];
        let diffs = disagreements(&drifted);
        assert!(diffs.iter().any(|d| d.contains("sim.engine.events")));
        assert!(diffs.iter().any(|d| d.contains("simulated results differ")));
    }
}
