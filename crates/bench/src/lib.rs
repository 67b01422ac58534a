//! # progmp-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! Middleware '17 evaluation. Each row of [`experiment::EXPERIMENTS`]
//! reproduces one table/figure; the `progmp-exp` binary runs them,
//! prints the rows/series the paper reports and holds the deterministic
//! ones to the committed `BENCH_paper.json`; EXPERIMENTS.md records
//! paper-vs-measured for each. Timing of the pipeline and the engine
//! lives in the repository benchmark (`benchmark/`).
//!
//! Shared scenario builders and statistics helpers live here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod optimizer;
pub mod report;
pub mod scale;

use mptcp_sim::time::{from_millis, SimTime, MILLIS, SECONDS};
use mptcp_sim::{
    ConnId, ConnStats, ConnectionConfig, PathConfig, ReceiverMode, SchedulerSpec, Sim,
    SubflowConfig,
};
use progmp_core::env::{QueueKind, RegId, SubflowProp};
use progmp_core::exec::ExecCtx;
use progmp_core::testenv::MockEnv;
use std::time::Instant;

/// A subflow over a symmetric clean path of `rtt_ms` round-trip time
/// and `rate` bytes per second.
pub fn path(rtt_ms: u64, rate: u64) -> SubflowConfig {
    SubflowConfig::new(PathConfig::symmetric(from_millis(rtt_ms), rate))
}

/// A simulation seeded with `seed` holding one connection of `scheduler`
/// over `subflows`, timelines recorded.
pub fn one_connection(
    seed: u64,
    subflows: Vec<SubflowConfig>,
    scheduler: SchedulerSpec,
) -> (Sim, ConnId) {
    let mut sim = Sim::new(seed);
    let cfg = ConnectionConfig::new(subflows, scheduler).with_timelines();
    let conn = sim.add_connection(cfg).expect("scheduler compiles");
    (sim, conn)
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
    pub scheduler: String,
    /// Flow size in bytes.
    pub flow_bytes: u64,
    /// Subflow configurations.
    pub subflows: Vec<SubflowConfig>,
    /// Number of runs (distinct seeds).
    pub runs: u64,
    /// Base seed.
    pub seed: u64,
    /// Value written to `R2` right after enqueueing: the §5.3
    /// end-of-flow signal (`1`) or a tail length.
    pub r2_signal: Option<i64>,
    /// Receiver delivery mode (paper §4.2).
    pub receiver_mode: ReceiverMode,
    /// Per-run time limit.
    pub limit: SimTime,
}

impl FlowExperiment {
    /// A default experiment shell.
    pub fn new(scheduler: &str, flow_bytes: u64, subflows: Vec<SubflowConfig>) -> Self {
        FlowExperiment {
            scheduler: scheduler.to_string(),
            flow_bytes,
            subflows,
            runs: 30,
            seed: 1000,
            r2_signal: None,
            receiver_mode: ReceiverMode::Improved,
            limit: 60 * SECONDS,
        }
    }

    /// Signals the application's intent through `R2` one nanosecond
    /// after the flow is enqueued; `None` signals nothing.
    pub fn with_r2_signal(mut self, value: Option<i64>) -> Self {
        self.r2_signal = value;
        self
    }

    /// Sets the receiver delivery mode.
    pub fn with_receiver_mode(mut self, mode: ReceiverMode) -> Self {
        self.receiver_mode = mode;
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
        for i in 0..self.runs {
            let mut sim = Sim::new(self.seed + i);
            let cfg = ConnectionConfig::new(
                self.subflows.clone(),
                SchedulerSpec::dsl(self.scheduler.as_str()),
            )
            .with_receiver_mode(self.receiver_mode)
            .with_timelines();
            let conn = sim.add_connection(cfg).expect("scheduler compiles");
            sim.app_send_at(conn, 0, self.flow_bytes, 0);
            if let Some(value) = self.r2_signal {
                sim.set_register_at(conn, 1, RegId::R2, value);
            }
            sim.run_to_completion(self.limit);
            let c = &sim.connections[conn];
            if let Some(fct) = c.stats.delivery_time_of(self.flow_bytes) {
                fcts.push(fct as f64 / 1e6);
                overheads.push(c.stats.overhead_ratio());
            }
        }
        FlowBatch {
            mean_fct_ms: mean(&fcts),
            completion_rate: fcts.len() as f64 / self.runs as f64,
            p95_fct_ms: percentile(&mut fcts, 0.95),
            mean_overhead: mean(&overheads),
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

/// Mean goodput (bytes/s) up to the delivery of the first `bytes` bytes;
/// 0 when they were never delivered.
pub fn goodput_of(stats: &ConnStats, bytes: u64) -> f64 {
    match stats.delivery_time_of(bytes) {
        Some(t) if t > 0 => bytes as f64 / (t as f64 / 1e9),
        _ => 0.0,
    }
}

/// Runs a saturated bulk transfer and returns mean goodput (bytes/s).
pub fn bulk_goodput(
    scheduler: SchedulerSpec,
    subflows: Vec<SubflowConfig>,
    bytes: u64,
    seed: u64,
) -> f64 {
    let (mut sim, conn) = one_connection(seed, subflows, scheduler);
    sim.add_bulk_source(conn, bytes, 0);
    sim.run_to_completion(600 * SECONDS);
    goodput_of(&sim.connections[conn].stats, bytes)
}

/// Bytes subflow `sbf` transmitted in `[from, to)`. Requires timelines.
pub fn tx_bytes_between(stats: &ConnStats, sbf: u32, from: SimTime, to: SimTime) -> u64 {
    stats
        .tx_timeline
        .iter()
        .filter(|(t, s, _)| *s == sbf && *t >= from && *t < to)
        .map(|(_, _, b)| u64::from(*b))
        .sum()
}

/// Longest gap between consecutive in-order deliveries around a path
/// outage lasting `[from, until]`: deliveries from 400 ms before it to
/// 3 s after it count. Requires timelines.
pub fn max_delivery_stall(stats: &ConnStats, from: SimTime, until: SimTime) -> SimTime {
    let mut last = from.saturating_sub(200 * MILLIS);
    let mut max_stall = 0;
    for &(t, _) in stats
        .delivery_timeline
        .iter()
        .filter(|(t, _)| *t + 400 * MILLIS >= from && *t < until + 3 * SECONDS)
    {
        max_stall = max_stall.max(t.saturating_sub(last));
        last = t;
    }
    max_stall
}

/// The decision point the upcall timings run on: `subflows` subflows
/// (10 ms RTT rising by 5 ms each, window open) and `packets` 1400-byte
/// packets in `Q`.
pub fn mock_env(subflows: u32, packets: u64) -> MockEnv {
    let mut env = MockEnv::new();
    for i in 0..subflows {
        env.add_subflow(i);
        env.set_subflow_prop(i, SubflowProp::Rtt, 10_000 + i64::from(i) * 5_000);
        env.set_subflow_prop(i, SubflowProp::Cwnd, 100);
    }
    for p in 0..packets {
        env.push_packet(QueueKind::SendQueue, 100 + p, 1400 * p as i64, 1400);
    }
    env
}

/// Host nanoseconds per call of `upcall` on `env`: 1000 warm-up calls,
/// then the best of five batches of `iters` (the minimum sheds
/// scheduling noise). Effects are buffered in the context and dropped,
/// so every call sees the same state.
pub fn ns_per_upcall(env: &MockEnv, iters: u32, mut upcall: impl FnMut(&mut ExecCtx<'_>)) -> f64 {
    let mut batch = |n: u32| {
        let t0 = Instant::now();
        for _ in 0..n {
            upcall(&mut ExecCtx::new(env, 1_000_000));
        }
        t0.elapsed().as_nanos() as f64 / f64::from(n)
    };
    batch(1000);
    (0..5).map(|_| batch(iters)).fold(f64::INFINITY, f64::min)
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
            vec![path(10, 1_250_000), path(40, 1_250_000)],
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
            vec![path(10, 1_250_000), path(40, 1_250_000)],
            4_000_000,
            9,
        );
        // Two 1.25 MB/s paths: goodput should approach 2.5 MB/s.
        assert!(gp > 1_800_000.0, "goodput {gp} too low");
    }
}
