//! The repo benchmark. `benchmark/run.sh` builds this binary and passes
//! its arguments through.
//!
//! * `--workload W --seed N --seconds S --trace 0|1` runs one workload
//!   once and prints its result as the last line of standard output;
//! * without `--workload`, runs the whole set — every workload untraced
//!   and traced, each in a process of its own — and prints every metric;
//! * `--manifest` prints `BENCHMARK.json`.

mod e2e;
mod fleets;
mod json;
mod metrics;
mod micro;
mod stats;
mod suite;
mod trace;

use json::{obj, Json};
use stats::Summary;
use std::process::ExitCode;

/// Arguments of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny sizes, for tests; never a result to record.
    pub smoke: bool,
    pub trace_out: Option<String>,
}

/// Output checks, counted as operations attempted and failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), message);
    }

    pub fn count(&mut self, attempted: u64, failed: u64, message: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.messages.len() < 20 {
            self.messages.push(message());
        }
    }
}

/// What one run measured.
pub struct RunOutcome {
    pub checks: Checks,
    pub metrics: Vec<(&'static str, f64)>,
    /// Order statistics of the metrics that were picked from samples.
    pub summaries: Vec<(&'static str, Summary)>,
    /// Facts about the simulated result that must repeat exactly.
    pub notes: Vec<String>,
}

impl RunOutcome {
    pub fn new(checks: Checks) -> RunOutcome {
        RunOutcome {
            checks,
            metrics: Vec::new(),
            summaries: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// A metric picked from samples, whose order statistics are printed.
    pub fn push_sampled(&mut self, name: &'static str, value: f64, summary: Summary) {
        self.metrics.push((name, value));
        self.summaries.push((name, summary));
    }

    /// The result line of the driver's contract.
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|&(name, value)| {
            let unit = metrics::unit_of(name).expect("every reported metric is registered");
            (name, metrics::value_json(value, unit))
        });
        obj([
            ("correct", Json::from(self.checks.failed == 0)),
            ("attempted", Json::from(self.checks.attempted.max(1))),
            ("failed", Json::from(self.checks.failed)),
            ("metrics", obj(metrics)),
        ])
    }
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`).
pub fn proc_status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[derive(Debug, PartialEq)]
enum Command {
    Manifest,
    Run(RunOptions),
    Suite(suite::SuiteOptions),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = metrics::DEFAULT_SEED;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut traced = false;
    let mut smoke = false;
    let mut trace_out = None;
    let mut agree = 1usize;
    let mut record_baseline = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}"))
                .cloned()
        };
        match arg.as_str() {
            "--manifest" => return Ok(Command::Manifest),
            "--workload" => {
                let name = value("a workload name")?;
                if !metrics::is_workload(&name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                workload = Some(name);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => smoke = true,
            "--trace-out" => trace_out = Some(value("a path")?),
            "--agree" => {
                agree = value("a count")?
                    .parse()
                    .map_err(|e| format!("--agree: {e}"))?;
                if agree < 2 {
                    return Err("--agree needs at least two sets".into());
                }
            }
            "--record-baseline" => record_baseline = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(match workload {
        Some(workload) => {
            if agree > 1 || record_baseline {
                return Err(
                    "--agree and --record-baseline run the whole set; drop --workload".into(),
                );
            }
            Command::Run(RunOptions {
                workload,
                seed,
                seconds,
                traced,
                smoke,
                trace_out,
            })
        }
        None => Command::Suite(suite::SuiteOptions {
            seed,
            seconds,
            smoke,
            sets: agree,
            record_baseline,
        }),
    })
}

fn run_one(opts: &RunOptions) -> ExitCode {
    let outcome = if opts.traced {
        let (outcome, tracer) = trace::run(opts);
        if let Some(path) = &opts.trace_out {
            let doc = tracer.to_json(&opts.workload, opts.seed);
            if let Err(e) = std::fs::write(path, doc.render()) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        outcome
    } else {
        e2e::run(opts)
    };
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!(
        "workload={} seed={} seconds={} trace={} mode={mode}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.traced)
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    for (name, s) in &outcome.summaries {
        println!(
            "{name}: n={} min={:.6} q1={:.6} median={:.6} q3={:.6} p95={:.6} max={:.6}",
            s.n, s.min, s.q1, s.median, s.q3, s.p95, s.max
        );
    }
    for message in &outcome.checks.messages {
        println!("FAILED: {message}");
    }
    println!("{}", outcome.result_line().render());
    if outcome.checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Manifest) => {
            print!("{}", metrics::manifest().render_pretty());
            ExitCode::SUCCESS
        }
        Ok(Command::Run(opts)) => run_one(&opts),
        Ok(Command::Suite(opts)) => suite::run(&opts),
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: run.sh [--workload W --trace 0|1 [--trace-out PATH]] [--seed N] [--seconds S] [--smoke] [--agree N] [--record-baseline] | --manifest"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_arguments_reach_the_run() {
        let cmd = parse_args(&args(
            "--workload fleet_bulk --seed 17 --seconds 3 --trace 1",
        ));
        assert_eq!(
            cmd,
            Ok(Command::Run(RunOptions {
                workload: "fleet_bulk".into(),
                seed: 17,
                seconds: 3.0,
                traced: true,
                smoke: false,
                trace_out: None,
            }))
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            "--workload nope",
            "--trace 2 --workload fleet_bulk",
            "--seed x",
            "--seconds 0",
            "--agree 1",
            "--workload fleet_bulk --agree 2",
            "--frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn the_seed_changes_the_inputs_and_nothing_else_does() {
        let spec = fleets::FleetSpec::lossy(true);
        let render = |seed: u64| {
            let conn_seed = mptcp_sim::fleet::conn_seeds(seed, 3)[2];
            let sc = spec.scenario(2, conn_seed);
            let plan = sc.fault_plan.expect("lossy fleets carry fault plans");
            format!("{:?} {}", sc.config.subflows[0].path, plan.render())
        };
        assert_eq!(render(379_422), render(379_422));
        assert_ne!(render(379_422), render(379_423));
        assert_eq!(spec.config(5, 1).seed, 5);
    }

    /// Every workload at smoke size: the result line carries exactly the
    /// registered metrics and nothing fails. The probes are the same
    /// whatever the workload, so one micro workload and the fleet whose
    /// accounting differs (the oracle armed) stand for the traced runs.
    #[test]
    fn smoke_runs_report_every_registered_metric() {
        let runs = metrics::WORKLOADS
            .iter()
            .map(|w| (w.0, false))
            .chain([("compile_load", true), ("fleet_checked", true)]);
        for (workload, traced) in runs {
            let opts = RunOptions {
                workload: workload.to_string(),
                seed: metrics::DEFAULT_SEED,
                seconds: 0.05,
                traced,
                smoke: true,
                trace_out: None,
            };
            let outcome = if traced {
                trace::run(&opts).0
            } else {
                e2e::run(&opts)
            };
            assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.messages);
            let mut got: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
            let mut want: Vec<&str> = if traced {
                metrics::PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                metrics::END_TO_END.iter().map(|m| m.name).collect()
            };
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{workload} trace={traced}");
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite(), "{workload}: {name} = {value}");
            }
            let line = json::parse(&outcome.result_line().render()).unwrap();
            assert_eq!(line.entries().len(), 4);
        }
    }
}
