//! # progmp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Middleware '17 evaluation. Each `src/bin/` binary reproduces one
//! table/figure and prints the same rows/series the paper reports;
//! EXPERIMENTS.md records paper-vs-measured for each. Timing of the
//! pipeline and the engine lives in the repository benchmark
//! (`benchmark/`).
//!
//! Shared scenario builders and statistics helpers live here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod optimizer;
pub mod report;
pub mod scale;

use mptcp_sim::time::{from_millis, SimTime, SECONDS};
use mptcp_sim::{ConnectionConfig, PathConfig, SchedulerSpec, Sim, SubflowConfig};
use progmp_core::env::RegId;

/// Standard WiFi/LTE two-path profile of the paper's real-world setups:
/// WiFi at `wifi_rtt_ms` preferred, LTE at 40 ms flagged backup when
/// `lte_backup`.
pub fn wifi_lte_subflows(
    wifi_rtt_ms: u64,
    wifi_rate: u64,
    lte_rate: u64,
    lte_backup: bool,
) -> Vec<SubflowConfig> {
    let mut lte = SubflowConfig::new(PathConfig::symmetric(from_millis(40), lte_rate));
    if lte_backup {
        lte = lte.backup();
    }
    vec![
        SubflowConfig::new(PathConfig::symmetric(from_millis(wifi_rtt_ms), wifi_rate)),
        lte,
    ]
}

/// Result of a batch of short-flow runs.
#[derive(Debug, Clone, Copy)]
pub struct FlowBatch {
    /// Mean flow completion time in milliseconds.
    pub mean_fct_ms: f64,
    /// 95th-percentile flow completion time in milliseconds.
    pub p95_fct_ms: f64,
    /// Mean transmission overhead ratio (1.0 = no redundancy).
    pub mean_overhead: f64,
    /// Fraction of runs that completed before the time limit.
    pub completion_rate: f64,
}

/// Parameters of a short-flow experiment.
#[derive(Debug, Clone)]
pub struct FlowExperiment {
    /// Scheduler source.
    pub scheduler: &'static str,
    /// Flow size in bytes.
    pub flow_bytes: u64,
    /// Subflow configurations.
    pub subflows: Vec<SubflowConfig>,
    /// Number of runs (distinct seeds).
    pub runs: u64,
    /// Base seed.
    pub seed: u64,
    /// Signal end-of-flow via `R2 = 1` right after enqueueing.
    pub signal_flow_end: bool,
    /// Per-run time limit.
    pub limit: SimTime,
}

impl FlowExperiment {
    /// A default experiment shell.
    pub fn new(scheduler: &'static str, flow_bytes: u64, subflows: Vec<SubflowConfig>) -> Self {
        FlowExperiment {
            scheduler,
            flow_bytes,
            subflows,
            runs: 30,
            seed: 1000,
            signal_flow_end: false,
            limit: 60 * SECONDS,
        }
    }

    /// Enables the §5.3 end-of-flow signal.
    pub fn with_flow_end_signal(mut self) -> Self {
        self.signal_flow_end = true;
        self
    }

    /// Sets the number of runs.
    pub fn with_runs(mut self, runs: u64) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the batch and aggregates FCT statistics.
    pub fn run(&self) -> FlowBatch {
        let mut fcts = Vec::with_capacity(self.runs as usize);
        let mut overheads = Vec::with_capacity(self.runs as usize);
        let mut completed = 0u64;
        for i in 0..self.runs {
            let mut sim = Sim::new(self.seed + i);
            let cfg =
                ConnectionConfig::new(self.subflows.clone(), SchedulerSpec::dsl(self.scheduler))
                    .with_timelines();
            let conn = sim.add_connection(cfg).expect("scheduler compiles");
            sim.app_send_at(conn, 0, self.flow_bytes, 0);
            if self.signal_flow_end {
                sim.set_register_at(conn, 1, RegId::R2, 1);
            }
            sim.run_to_completion(self.limit);
            let c = &sim.connections[conn];
            if let Some(fct) = c.stats.delivery_time_of(self.flow_bytes) {
                fcts.push(fct as f64 / 1e6);
                overheads.push(c.stats.overhead_ratio());
                completed += 1;
            }
        }
        FlowBatch {
            mean_fct_ms: mean(&fcts),
            p95_fct_ms: percentile(&mut fcts.clone(), 0.95),
            mean_overhead: mean(&overheads),
            completion_rate: completed as f64 / self.runs as f64,
        }
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// In-place percentile (nearest-rank); 0 for an empty slice.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs"));
    let rank = ((xs.len() as f64 * p).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Runs a saturated bulk transfer and returns mean goodput (bytes/s).
pub fn bulk_goodput(
    scheduler: SchedulerSpec,
    subflows: Vec<SubflowConfig>,
    bytes: u64,
    seed: u64,
) -> f64 {
    let mut sim = Sim::new(seed);
    let cfg = ConnectionConfig::new(subflows, scheduler).with_timelines();
    let conn = sim.add_connection(cfg).expect("scheduler compiles");
    sim.add_bulk_source(conn, bytes, 0);
    sim.run_to_completion(600 * SECONDS);
    let c = &sim.connections[conn];
    match c.stats.delivery_time_of(bytes) {
        Some(t) if t > 0 => bytes as f64 / (t as f64 / 1e9),
        _ => 0.0,
    }
}

/// Formats a bytes/second rate as megabytes/second.
pub fn mbps(rate: f64) -> String {
    format!("{:.2} MB/s", rate / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut xs, 0.95), 5.0);
        let mut xs = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&mut xs, 0.5), 3.0);
    }

    #[test]
    fn flow_experiment_runs() {
        let batch = FlowExperiment::new(
            progmp_schedulers::DEFAULT_MIN_RTT,
            5 * 1400,
            wifi_lte_subflows(10, 1_250_000, 1_250_000, false),
        )
        .with_runs(3)
        .run();
        assert!(batch.completion_rate > 0.99);
        assert!(batch.mean_fct_ms > 0.0);
        assert!(batch.p95_fct_ms >= batch.mean_fct_ms * 0.5);
    }

    #[test]
    fn bulk_goodput_saturates_paths() {
        let gp = bulk_goodput(
            SchedulerSpec::dsl(progmp_schedulers::DEFAULT_MIN_RTT),
            wifi_lte_subflows(10, 1_250_000, 1_250_000, false),
            4_000_000,
            9,
        );
        // Two 1.25 MB/s paths: goodput should approach 2.5 MB/s.
        assert!(gp > 1_800_000.0, "goodput {gp} too low");
    }
}
