//! The scale-benchmark tier: fleet sweeps over
//! `{connections} × {workers}` with all seven paper schedulers mixed
//! through the fleet, reported as the machine-readable
//! `BENCH_scale.json` (schema in [`crate::report`], validated by
//! [`validate_scale_report`]).
//!
//! This is the performance-trajectory fixture: each commit that touches
//! the engine hot path (event queue, segment arena, dispatch) re-runs
//! `scale_fleet` and diffs events/second against the committed
//! baseline. Worker-count rows share identical event counts and fleet
//! digests — the determinism tier guarantees the sweep measures *speed*,
//! never behavior — and `ci.sh` re-runs the full sweep and holds every
//! row's event count, behaviour digest and exact effort ledger
//! (scheduler executions and steps) to the committed file
//! ([`check_against_committed`]).

use crate::report::{validate_report, Json, Report};
use mptcp_sim::fleet::{run_fleet, ConnScenario, FleetConfig, FleetReport, OracleMode, Workload};
use mptcp_sim::time::{from_millis, SimTime, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, SubflowConfig};
use progmp_core::env::RegId;
use progmp_schedulers::PAPER;

/// Parameters of one scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// `"full"` or `"smoke"`, recorded as `meta.mode` so that a reduced
    /// sweep cannot pass for the committed trajectory.
    pub mode: &'static str,
    /// Fleet sizes to sweep.
    pub sizes: Vec<usize>,
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Fleet seed.
    pub seed: u64,
    /// Bytes each connection transfers.
    pub flow_bytes: u64,
    /// Simulated-time horizon per batch.
    pub horizon: SimTime,
}

impl ScaleConfig {
    /// The full sweep: `{1,10,100,1k,10k,100k}` connections across 1/2/4
    /// workers, ~20 KB per connection.
    pub fn full() -> ScaleConfig {
        ScaleConfig {
            mode: "full",
            sizes: vec![1, 10, 100, 1_000, 10_000, 100_000],
            workers: vec![1, 2, 4],
            seed: 0x5CA1E,
            flow_bytes: 20_000,
            horizon: 120 * SECONDS,
        }
    }

    /// The `--smoke` sweep: seconds, not minutes, but the same code
    /// paths and the same output schema.
    pub fn smoke() -> ScaleConfig {
        ScaleConfig {
            mode: "smoke",
            sizes: vec![1, 8],
            workers: vec![1, 2],
            seed: 0x5CA1E,
            flow_bytes: 6_000,
            horizon: 60 * SECONDS,
        }
    }
}

/// Scenario of fleet connection `global`: scheduler cycles through
/// [`PAPER`], the two-path mix varies with the frozen
/// per-connection seed. No fault plans — the scale tier measures the
/// clean hot path; chaos lives in the soak tier.
pub fn scale_scenario(global: usize, seed: u64, flow_bytes: u64) -> ConnScenario {
    let scheduler = PAPER[global % PAPER.len()];
    let source = progmp_schedulers::source(scheduler).expect("bundled scheduler");
    let subflows = vec![
        SubflowConfig::new(PathConfig::symmetric(from_millis(5 + seed % 40), 1_250_000)),
        SubflowConfig::new(PathConfig::symmetric(
            from_millis(20 + (seed >> 8) % 60),
            1_250_000,
        )),
    ];
    let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(source));
    let mut sc = ConnScenario::new(
        cfg,
        Workload::Bulk {
            bytes: flow_bytes,
            prop: 0,
        },
    );
    match scheduler {
        "tap" => sc.registers.push((0, RegId::R1, 1_000_000)),
        "targetRtt" => sc
            .registers
            .push((0, RegId::R1, 40_000 + (seed % 80_000) as i64)),
        _ => {}
    }
    sc
}

/// Fleets of up to this many connections run [`REPEATS`] times per row:
/// the row records the fastest run, as `benchmark/src/e2e.rs` does, so
/// one slow run on a shared host does not decide the host-timed
/// columns.
const REPEAT_UP_TO: usize = 10_000;

/// Runs per row of at most [`REPEAT_UP_TO`] connections.
const REPEATS: usize = 3;

/// Runs the sweep and builds the `BENCH_scale.json` report. A row of at
/// most 10 000 connections is the fastest of three runs, which must
/// agree on events, fleet digest, executions and steps.
pub fn run_scale(cfg: &ScaleConfig, progress: &mut dyn FnMut(&str)) -> Report {
    let mut report = Report::new("scale_fleet");
    report
        .meta("mode", cfg.mode)
        .meta("seed", cfg.seed)
        .meta("flow_bytes", cfg.flow_bytes)
        .meta("horizon_s", cfg.horizon / SECONDS)
        .meta(
            "cpus",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
        .meta(
            "schedulers",
            Json::Arr(PAPER.iter().map(|s| Json::from(*s)).collect()),
        );
    let mut ran: Vec<(usize, usize)> = Vec::new();
    for &size in &cfg.sizes {
        for &workers in &cfg.workers {
            let fleet = FleetConfig::new(size, cfg.seed)
                .with_workers(workers)
                .with_horizon(cfg.horizon)
                .with_oracle(OracleMode::Collect);
            // A fleet never starts more workers than it has connections,
            // so several requested counts can mean the same run.
            let key = (size, fleet.effective_workers());
            if ran.contains(&key) {
                continue;
            }
            ran.push(key);
            let flow = cfg.flow_bytes;
            let repeats = if size <= REPEAT_UP_TO { REPEATS } else { 1 };
            let runs: Vec<FleetReport> = (0..repeats)
                .map(|_| run_fleet(&fleet, |global, seed| scale_scenario(global, seed, flow)))
                .collect();
            let ledger =
                |r: &FleetReport| (r.events_processed, r.digest(), r.executions(), r.steps());
            for again in &runs[1..] {
                assert_eq!(
                    ledger(again),
                    ledger(&runs[0]),
                    "{size} x {workers}: a repeated run changed events, digest, executions or steps"
                );
            }
            let run = (runs.into_iter())
                .min_by_key(|r| r.wall)
                .expect("at least one run");
            // Per-scheduler interpreter cost, from the host-time counters
            // the snapshot digest deliberately excludes.
            let mut sched_ns = Vec::new();
            for (i, name) in PAPER.iter().enumerate() {
                let (mut ns, mut execs) = (0u64, 0u64);
                for c in run.per_conn.iter().skip(i).step_by(PAPER.len()) {
                    ns += c.scheduler_host_ns;
                    execs += c.scheduler_executions;
                }
                let per_exec = if execs > 0 {
                    ns as f64 / execs as f64
                } else {
                    0.0
                };
                sched_ns.push((name.to_string(), Json::from(per_exec)));
            }
            report.row(vec![
                ("connections", Json::from(size)),
                ("workers", Json::from(run.workers)),
                ("events", Json::from(run.events_processed)),
                ("wall_ms", Json::from(run.wall.as_secs_f64() * 1e3)),
                ("events_per_sec", Json::from(run.events_per_sec())),
                ("completion_rate", Json::from(run.completion_rate())),
                ("violations", Json::from(run.violations.len())),
                ("fleet_digest", Json::from(format!("{:016x}", run.digest()))),
                ("executions", Json::from(run.executions())),
                ("steps", Json::from(run.steps())),
                (
                    "peak_rss_bytes",
                    crate::report::peak_rss_bytes()
                        .map(Json::from)
                        .unwrap_or(Json::Null),
                ),
                ("sched_exec_ns", Json::Obj(sched_ns)),
            ]);
            progress(&format!(
                "conns={size:>6} workers={} events={:>9} {:>12.0} ev/s completion={:.2}",
                run.workers,
                run.events_processed,
                run.events_per_sec(),
                run.completion_rate(),
            ));
            if !run.violations.is_empty() {
                progress(&format!(
                    "  !! {} oracle violations, first: {}",
                    run.violations.len(),
                    run.violations[0]
                ));
            }
        }
    }
    report
}

/// The `meta.mode` of a scale report.
fn mode(doc: &Json) -> Option<&str> {
    doc.get("meta")?.get("mode")?.as_str()
}

/// A row's `(connections, workers)`.
type Key = (u64, u64);
/// A row's exact columns, each of which must not move between commits
/// unless the commit says why: the behaviour (`events`, `fleet_digest`)
/// and the effort ledger (`executions`, `steps`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Outcome<'a> {
    events: u64,
    fleet_digest: &'a str,
    executions: u64,
    steps: u64,
}

impl Outcome<'_> {
    /// The names of the columns where `self` and `other` differ.
    fn moved(&self, other: &Outcome<'_>) -> Vec<&'static str> {
        [
            ("events", self.events != other.events),
            ("fleet_digest", self.fleet_digest != other.fleet_digest),
            ("executions", self.executions != other.executions),
            ("steps", self.steps != other.steps),
        ]
        .into_iter()
        .filter_map(|(name, moved)| moved.then_some(name))
        .collect()
    }
}

/// Key and outcome of every row of a validated scale report.
fn rows_by_key(doc: &Json) -> Vec<(Key, Outcome<'_>)> {
    let num = |row: &Json, col| row.get(col).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    doc.get("rows")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|row| {
            let outcome = Outcome {
                events: num(row, "events"),
                fleet_digest: row.get("fleet_digest").and_then(Json::as_str).unwrap_or(""),
                executions: num(row, "executions"),
                steps: num(row, "steps"),
            };
            ((num(row, "connections"), num(row, "workers")), outcome)
        })
        .collect()
}

/// Holds a fresh sweep to the committed trajectory file: same mode, the
/// same `(connections, workers)` keys, and on every key the same event
/// count, fleet digest, scheduler executions and scheduler steps; the
/// error names the columns that moved. Wall-clock columns are free to
/// move; simulated behaviour and the exact effort ledger are not. Both
/// documents must already pass [`validate_scale_report`].
pub fn check_against_committed(fresh: &Json, committed: &Json) -> Result<(), String> {
    if mode(fresh) != mode(committed) {
        return Err(format!(
            "mode differs: this sweep is {:?}, the committed file is {:?}",
            mode(fresh),
            mode(committed)
        ));
    }
    let (fresh, committed) = (rows_by_key(fresh), rows_by_key(committed));
    fn outcome<'a>(rows: &[(Key, Outcome<'a>)], key: &Key) -> Option<Outcome<'a>> {
        rows.iter().find(|(k, _)| k == key).map(|row| row.1)
    }
    for (key, _) in fresh.iter().chain(&committed) {
        match (outcome(&fresh, key), outcome(&committed, key)) {
            (Some(now), Some(then)) if now != then => {
                return Err(format!(
                    "row {key:?}: {} moved: {now:?}, the committed file has {then:?}",
                    now.moved(&then).join(", ")
                ));
            }
            (Some(_), Some(_)) => {}
            (now, then) => {
                return Err(format!(
                    "row {key:?}: {now:?} in this sweep, {then:?} in the committed file"
                ));
            }
        }
    }
    Ok(())
}

/// Validates a parsed `BENCH_scale.json`: the common report envelope
/// plus the scale tier's mode marker and required columns, one row per
/// `(connections, workers)` key, zero violations, and identical event
/// counts across worker counts at each size (the determinism witness).
pub fn validate_scale_report(doc: &Json) -> Result<(), String> {
    validate_report(doc)?;
    if doc.get("name").and_then(Json::as_str) != Some("scale_fleet") {
        return Err("report name is not 'scale_fleet'".into());
    }
    if !matches!(mode(doc), Some("full" | "smoke")) {
        return Err("meta.mode is neither \"full\" nor \"smoke\"".into());
    }
    let rows = doc.get("rows").and_then(Json::as_arr).ok_or("no rows")?;
    if rows.is_empty() {
        return Err("empty sweep".into());
    }
    for (i, row) in rows.iter().enumerate() {
        for col in [
            "connections",
            "workers",
            "events",
            "wall_ms",
            "events_per_sec",
            "completion_rate",
            "violations",
            "executions",
            "steps",
        ] {
            row.get(col)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("row {i}: missing numeric column {col:?}"))?;
        }
        row.get("fleet_digest")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("row {i}: missing 'fleet_digest'"))?;
        match row.get("sched_exec_ns") {
            Some(Json::Obj(pairs)) if pairs.len() == PAPER.len() => {}
            _ => return Err(format!("row {i}: bad 'sched_exec_ns'")),
        }
        if row.get("violations").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("row {i}: oracle violations recorded"));
        }
    }
    let keyed = rows_by_key(doc);
    for (i, ((size, workers), outcome)) in keyed.iter().enumerate() {
        for ((earlier_size, earlier_workers), earlier_outcome) in &keyed[..i] {
            if earlier_size != size {
                continue;
            }
            if earlier_workers == workers {
                return Err(format!(
                    "row {i}: duplicate (connections, workers) ({size}, {workers})"
                ));
            }
            if earlier_outcome != outcome {
                return Err(format!(
                    "row {i}: size {size} is not bit-identical across worker counts"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replaces column `col` of row `row` in a parsed report.
    fn set_cell(doc: &mut Json, row: usize, col: &str, value: Json) {
        let Json::Obj(pairs) = doc else {
            panic!("report is an object")
        };
        let rows = pairs.iter_mut().find(|(k, _)| k == "rows").unwrap();
        let Json::Arr(rows) = &mut rows.1 else {
            panic!("rows is an array")
        };
        let Json::Obj(cells) = &mut rows[row] else {
            panic!("row is an object")
        };
        cells.iter_mut().find(|(k, _)| k == col).unwrap().1 = value;
    }

    fn sweep(sizes: Vec<usize>, workers: Vec<usize>) -> Json {
        let cfg = ScaleConfig {
            sizes,
            workers,
            ..ScaleConfig::smoke()
        };
        Json::parse(&run_scale(&cfg, &mut |_| {}).render()).unwrap()
    }

    /// The smoke sweep end to end: run, render, parse, validate. Size 1
    /// runs once, not once per requested worker count.
    #[test]
    fn smoke_sweep_emits_schema_valid_report() {
        let report = run_scale(&ScaleConfig::smoke(), &mut |_line| {});
        let doc = Json::parse(&report.render()).expect("rendered report parses");
        validate_scale_report(&doc).expect("schema-valid BENCH_scale.json");
        assert_eq!(mode(&doc), Some("smoke"));
        let keys: Vec<Key> = rows_by_key(&doc).iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![(1, 1), (8, 1), (8, 2)]);
    }

    #[test]
    fn validator_rejects_drift() {
        let clean = sweep(vec![2], vec![1, 2]);
        validate_scale_report(&clean).unwrap();

        let mut doc = clean.clone();
        set_cell(&mut doc, 0, "violations", Json::from(3u64));
        assert!(validate_scale_report(&doc).is_err());

        // Two rows under one (connections, workers) key.
        let mut doc = clean.clone();
        set_cell(&mut doc, 1, "workers", Json::from(1u64));
        let err = validate_scale_report(&doc).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");

        // No mode marker.
        let text = clean.render().replace("\"mode\":\"smoke\",", "");
        let err = validate_scale_report(&Json::parse(&text).unwrap()).unwrap_err();
        assert!(err.contains("meta.mode"), "{err}");
    }

    #[test]
    fn comparison_holds_events_digests_and_effort_but_not_timings() {
        let committed = sweep(vec![2], vec![1, 2]);
        let mut fresh = committed.clone();
        set_cell(&mut fresh, 0, "wall_ms", Json::from(1e6));
        check_against_committed(&fresh, &committed).expect("timings may move");

        let mut moved = committed.clone();
        set_cell(&mut moved, 1, "events", Json::from(1u64));
        let err = check_against_committed(&moved, &committed).unwrap_err();
        assert!(err.contains("(2, 2)"), "{err}");

        let mut moved = committed.clone();
        set_cell(&mut moved, 0, "fleet_digest", Json::from("0"));
        assert!(check_against_committed(&moved, &committed).is_err());

        // The effort ledger is exact too, and the error names the field.
        for col in ["executions", "steps"] {
            let mut moved = committed.clone();
            set_cell(&mut moved, 0, col, Json::from(1u64));
            let err = check_against_committed(&moved, &committed).unwrap_err();
            assert!(err.contains(&format!("(2, 1): {col} moved")), "{err}");
        }

        // A key on one side only, in either direction.
        let narrower = sweep(vec![2], vec![1]);
        assert!(check_against_committed(&narrower, &committed).is_err());
        assert!(check_against_committed(&committed, &narrower).is_err());

        let full = Json::parse(&committed.render().replace("\"smoke\"", "\"full\"")).unwrap();
        let err = check_against_committed(&full, &committed).unwrap_err();
        assert!(err.contains("mode"), "{err}");
    }

    /// The file at the repository root is the trajectory: a full sweep,
    /// 100k connections included, never the output of a `--smoke` run.
    #[test]
    fn committed_trajectory_is_a_full_sweep() {
        let doc = Json::parse(include_str!("../../../BENCH_scale.json")).expect("parses");
        validate_scale_report(&doc).expect("schema-valid");
        assert_eq!(mode(&doc), Some("full"), "a smoke run was committed");
        let full = ScaleConfig::full();
        let keys: Vec<Key> = rows_by_key(&doc).iter().map(|(k, _)| *k).collect();
        for &size in &full.sizes {
            for &workers in &full.workers {
                let key = (size as u64, workers.min(size) as u64);
                assert!(keys.contains(&key), "row {key:?} is missing");
            }
        }
        // Neither per-event cost nor memory grows with the fleet size: at
        // one worker the 10k row runs at least at the 1k row's event rate
        // and peaks at no more than twice its resident set.
        let one_worker = |connections: f64, c: &str| {
            let rows = doc.get("rows").unwrap().as_arr().unwrap();
            let col = |row: &Json, c| row.get(c).and_then(Json::as_f64).unwrap();
            rows.iter()
                .find(|r| col(r, "connections") == connections && col(r, "workers") == 1.0)
                .map(|r| {
                    assert_eq!(col(r, "completion_rate"), 1.0);
                    col(r, c)
                })
                .unwrap()
        };
        let rate = |connections| one_worker(connections, "events_per_sec");
        let rss = |connections| one_worker(connections, "peak_rss_bytes");
        assert!(
            rate(10_000.0) >= rate(1_000.0),
            "10k: {} ev/s, 1k: {} ev/s",
            rate(10_000.0),
            rate(1_000.0)
        );
        assert!(
            rss(10_000.0) <= 2.0 * rss(1_000.0),
            "10k: {} B peak RSS, 1k: {} B",
            rss(10_000.0),
            rss(1_000.0)
        );
    }
}
