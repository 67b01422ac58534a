//! Batched multi-connection simulation: the fleet runner.
//!
//! A [`run_fleet`] call simulates `N` independent MPTCP connections in
//! fixed batches of consecutive global indices. Worker threads pull the
//! next batch from one shared counter; each batch runs to the horizon in
//! a fresh [`Sim`] of its own (no shared mutable state, no locks on the
//! event hot path), which is dropped once its reports are read. Memory
//! therefore scales with the batch size times the worker count, not with
//! `N`, and **results are bit-identical regardless of the worker
//! count**:
//!
//! * every connection's scenario is built from a per-connection seed
//!   drawn from the frozen xorshift64\* stream
//!   ([`conn_seeds`]) — a pure function of `(fleet seed, global index)`;
//! * every batch `Sim` uses the fleet seed, and registers each
//!   connection under its *global* index
//!   ([`Sim::add_connection_with_identity`]), so per-path loss/jitter
//!   streams never depend on the partition;
//! * batch bounds are a function of the global index alone, and
//!   connections in one batch share an event queue but no state, so
//!   their interleaving cannot influence each other's counters;
//! * containment incidents and oracle violations name a connection by
//!   its global index and are merged in `(connection, time)` order, so
//!   the [`FleetReport`] lists them identically at every worker count.
//!
//! The determinism conformance test
//! (`crates/conformance/tests/fleet_determinism.rs`) pins this by
//! running the same fleet at 1, 2, and 8 workers, and against one `Sim`
//! per connection, comparing per-connection
//! [`ConnStats::snapshot_text`] digests byte-for-byte.
//!
//! [`ConnStats::snapshot_text`]: crate::stats::ConnStats::snapshot_text

use crate::config::ConnectionConfig;
use crate::engine::{ConnId, Sim};
use crate::faults::{ChaosRng, FaultPlan};
use crate::oracle::OracleViolation;
use crate::supervisor::{ContainAction, ContainmentConfig, IncidentReport};
use crate::time::SimTime;
use progmp_core::env::RegId;
use progmp_core::CompileError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Connections per batch `Sim`, picked from a sweep over 8–64 on the
/// 10k-connection scale row and the `fleet_bulk` benchmark workload.
/// `crates/conformance/tests/fleet_determinism.rs` mirrors this value.
const BATCH: usize = 16;

/// Application workload of one fleet connection.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Backlogged bulk source that keeps `Q` topped up until `bytes`
    /// have been enqueued (iPerf-style).
    Bulk {
        /// Total transfer size.
        bytes: u64,
        /// Packet property of the data.
        prop: u32,
    },
    /// Discrete application sends: `(time, bytes, prop)`.
    SendAt(Vec<(SimTime, u64, u32)>),
    /// Constant-bitrate source.
    Cbr {
        /// First chunk time.
        start: SimTime,
        /// End of the stream.
        end: SimTime,
        /// Rate in bytes/second.
        rate: u64,
        /// Chunk interval.
        chunk: SimTime,
        /// Packet property of the data.
        prop: u32,
    },
}

/// Everything one connection of the fleet runs: its configuration, its
/// application workload, optional register signalling, and an optional
/// chaos fault plan.
pub struct ConnScenario {
    /// Connection configuration (paths, scheduler, knobs).
    pub config: ConnectionConfig,
    /// Application traffic.
    pub workload: Workload,
    /// Scheduled register writes `(time, register, value)` — the
    /// extended API's application signals.
    pub registers: Vec<(SimTime, RegId, i64)>,
    /// Fault plan to apply, if any.
    pub fault_plan: Option<FaultPlan>,
}

impl ConnScenario {
    /// A scenario with no register signals and no faults.
    pub fn new(config: ConnectionConfig, workload: Workload) -> Self {
        ConnScenario {
            config,
            workload,
            registers: Vec::new(),
            fault_plan: None,
        }
    }
}

/// How fleet batches arm the runtime invariant oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleMode {
    /// No oracle (fastest).
    Off,
    /// Collect violations into the [`FleetReport`] (the scale-bench
    /// configuration).
    Collect,
}

/// Parameters of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of connections.
    pub connections: usize,
    /// Worker threads; 0 means one per available CPU.
    pub workers: usize,
    /// Fleet seed: the root of every derived stream.
    pub seed: u64,
    /// Simulated-time bound per batch.
    pub horizon: SimTime,
    /// Oracle arming mode.
    pub oracle: OracleMode,
    /// Containment supervisor configuration; `None` runs uncontained.
    /// Every containment decision (backoff draws, watchdog ticks,
    /// strikes) is a pure function of `(fleet seed, global index)` and
    /// of that one connection's history, so digests and incident logs
    /// stay bit-identical across worker counts.
    pub containment: Option<ContainmentConfig>,
}

impl FleetConfig {
    /// A fleet of `connections` with `seed`, one worker per CPU, a
    /// 300-simulated-second horizon and the oracle off.
    pub fn new(connections: usize, seed: u64) -> Self {
        FleetConfig {
            connections,
            workers: 0,
            seed,
            horizon: 300 * crate::time::SECONDS,
            oracle: OracleMode::Off,
            containment: None,
        }
    }

    /// Sets the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the simulated-time horizon.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Sets the oracle mode.
    pub fn with_oracle(mut self, oracle: OracleMode) -> Self {
        self.oracle = oracle;
        self
    }

    /// Enables the containment supervisor on every batch.
    pub fn with_containment(mut self, cfg: ContainmentConfig) -> Self {
        self.containment = Some(cfg);
        self
    }

    /// The worker count a run uses: `0` resolves to the CPU count, and
    /// no more workers start than there are connections.
    pub fn effective_workers(&self) -> usize {
        let w = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        w.min(self.connections).max(1)
    }
}

/// Outcome of one fleet connection, in global-index order.
#[derive(Debug, Clone)]
pub struct ConnReport {
    /// Global connection index.
    pub conn: usize,
    /// FNV-1a digest of [`ConnStats::snapshot_text`] — the
    /// bit-identity witness of behaviour compared across worker counts.
    ///
    /// [`ConnStats::snapshot_text`]: crate::stats::ConnStats::snapshot_text
    pub digest: u64,
    /// Bytes delivered in order to the application.
    pub delivered_bytes: u64,
    /// Bytes the application enqueued.
    pub enqueued_bytes: u64,
    /// Packets transmitted.
    pub tx_packets: u64,
    /// Completed scheduler executions.
    pub scheduler_executions: u64,
    /// Total scheduler steps.
    pub scheduler_steps: u64,
    /// Host nanoseconds spent inside scheduler executions.
    pub scheduler_host_ns: u64,
    /// Whether every enqueued byte was acknowledged in time.
    pub all_acked: bool,
}

/// Aggregate outcome of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Per-connection outcomes, ordered by global index.
    pub per_conn: Vec<ConnReport>,
    /// Total events processed across all batches (invariant under the
    /// worker count: each connection's event count is its own).
    pub events_processed: u64,
    /// Oracle violations of the whole fleet (empty unless armed), each
    /// naming its connection's global index, in `(conn, at)` order. Like
    /// [`FleetReport::incidents`] a function of `(seed, scenario)` alone,
    /// whatever the worker count: each batch keeps its own
    /// [`crate::oracle::VIOLATION_CAP`] buffer.
    pub violations: Vec<OracleViolation>,
    /// Containment incidents of the whole fleet (empty unless the
    /// supervisor is enabled), in `(conn, at)` order: the same list at
    /// every worker count.
    pub incidents: Vec<IncidentReport>,
    /// Wall-clock time of the parallel section.
    pub wall: Duration,
    /// Worker threads actually used.
    pub workers: usize,
}

impl FleetReport {
    /// Simulation throughput in events per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.events_processed as f64 / secs
    }

    /// Order-sensitive fold of all per-connection digests: one number
    /// that witnesses the whole fleet's bit-identity ([`fnv1a64`] over
    /// their little-endian bytes, in connection order).
    pub fn digest(&self) -> u64 {
        let bytes: Vec<u8> = self
            .per_conn
            .iter()
            .flat_map(|c| c.digest.to_le_bytes())
            .collect();
        fnv1a64(&bytes)
    }

    /// Completed scheduler executions across the fleet: the effort
    /// ledger's first field, exact where wall time is not.
    pub fn executions(&self) -> u64 {
        self.per_conn.iter().map(|c| c.scheduler_executions).sum()
    }

    /// Scheduler steps (VM instructions, helper scans included) across
    /// the fleet: the effort ledger's second field.
    pub fn steps(&self) -> u64 {
        self.per_conn.iter().map(|c| c.scheduler_steps).sum()
    }

    /// Total host nanoseconds spent inside scheduler executions.
    pub fn scheduler_host_ns(&self) -> u64 {
        self.per_conn.iter().map(|c| c.scheduler_host_ns).sum()
    }

    /// Fraction of connections that acknowledged all enqueued data.
    pub fn completion_rate(&self) -> f64 {
        if self.per_conn.is_empty() {
            return 1.0;
        }
        self.per_conn.iter().filter(|c| c.all_acked).count() as f64 / self.per_conn.len() as f64
    }

    /// Number of quarantine transitions (including pins) across the fleet.
    pub fn quarantines(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.action, ContainAction::Quarantined | ContainAction::Pinned))
            .count()
    }
}

/// FNV-1a 64-bit hash (the digest primitive; stable forever).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        acc ^= u64::from(b);
        acc = acc.wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// The per-connection seed stream: `n` draws from a fresh frozen
/// xorshift64\* generator over the fleet seed. Seed `i` depends only on
/// `(seed, i)`, never on the partition.
pub fn conn_seeds(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = ChaosRng::new(seed ^ 0xF1EE_7F1E_E7F1_EE7F);
    (0..n).map(|_| rng.next_u64()).collect()
}

/// Runs the fleet: builds each connection's scenario from
/// `scenario(global_index, conn_seed)`, splits the fleet into batches of
/// `BATCH` consecutive global indices, and lets every worker thread pull
/// the next batch index from one shared counter until none is left. A
/// batch runs to the horizon in a fresh [`Sim`] that is dropped once its
/// reports are read, so a connection's state lives only as long as its
/// batch. Per-connection reports come back in global order.
///
/// Connections meet only inside a batch: connections that share a link
/// run in one batch.
///
/// # Panics
///
/// Panics if a scenario's scheduler fails to compile.
pub fn run_fleet<F>(cfg: &FleetConfig, scenario: F) -> FleetReport
where
    F: Fn(usize, u64) -> ConnScenario + Sync,
{
    let workers = cfg.effective_workers();
    let seeds = conn_seeds(cfg.seed, cfg.connections);
    let next_batch = AtomicUsize::new(0);
    // Each worker fills a report of its own, batch after batch.
    let run_batches = || {
        let mut part = FleetReport {
            per_conn: Vec::new(),
            events_processed: 0,
            violations: Vec::new(),
            incidents: Vec::new(),
            wall: Duration::ZERO,
            workers,
        };
        loop {
            let batch = next_batch.fetch_add(1, Ordering::Relaxed);
            if batch * BATCH >= seeds.len() {
                return part;
            }
            run_batch(cfg, &scenario, &seeds, batch, &mut part);
        }
    };
    let t0 = Instant::now();
    let mut report = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_batches)).collect();
        let mut parts = handles
            .into_iter()
            .map(|h| h.join().expect("fleet batch panicked"));
        let mut report = parts.next().expect("at least one worker");
        for part in parts {
            report.per_conn.extend(part.per_conn);
            report.events_processed += part.events_processed;
            report.violations.extend(part.violations);
            report.incidents.extend(part.incidents);
        }
        report
    });
    report.wall = t0.elapsed();
    // Each connection's entries come from one batch, in time order, so a
    // stable sort by global index is the `(conn, at)` order.
    report.per_conn.sort_unstable_by_key(|c| c.conn);
    report.violations.sort_by_key(|v| v.conn);
    report.incidents.sort_by_key(|i| i.conn);
    report
}

impl Sim {
    /// Installs one fleet connection under its global `identity`: the
    /// connection itself ([`Sim::add_connection_with_identity`]), its
    /// workload, its register signals and its fault plan.
    pub fn add_scenario(
        &mut self,
        sc: ConnScenario,
        identity: u64,
    ) -> Result<ConnId, CompileError> {
        let conn = self.add_connection_with_identity(sc.config, identity)?;
        match sc.workload {
            Workload::Bulk { bytes, prop } => {
                self.add_bulk_source(conn, bytes, prop);
            }
            Workload::SendAt(sends) => {
                for (at, bytes, prop) in sends {
                    self.app_send_at(conn, at, bytes, prop);
                }
            }
            Workload::Cbr {
                start,
                end,
                rate,
                chunk,
                prop,
            } => self.add_cbr_source(conn, start, end, rate, chunk, prop),
        }
        for (at, reg, value) in sc.registers {
            self.set_register_at(conn, at, reg, value);
        }
        if let Some(plan) = &sc.fault_plan {
            self.apply_fault_plan(conn, plan);
        }
        Ok(conn)
    }
}

/// Runs batch `batch` — global indices `batch * BATCH` onwards, at most
/// `BATCH` of them — to the horizon in a fresh [`Sim`], appends what it
/// reports to `out`, and drops the `Sim`.
fn run_batch<F>(cfg: &FleetConfig, scenario: &F, seeds: &[u64], batch: usize, out: &mut FleetReport)
where
    F: Fn(usize, u64) -> ConnScenario + Sync,
{
    let lo = batch * BATCH;
    let hi = (lo + BATCH).min(seeds.len());
    let mut sim = Sim::new(cfg.seed);
    if let Some(contain) = &cfg.containment {
        sim.enable_containment(contain.clone());
    }
    if cfg.oracle != OracleMode::Off {
        let label = format!("fleet seed={} batch={batch} conns={lo}..{hi}", cfg.seed);
        sim.enable_oracle(label, false);
    }
    for (global, &seed) in seeds.iter().enumerate().take(hi).skip(lo) {
        sim.add_scenario(scenario(global, seed), global as u64)
            .expect("fleet scheduler compiles");
    }
    sim.run_to_completion(cfg.horizon);
    out.per_conn.extend(
        sim.connections
            .iter()
            .zip(lo..)
            .map(|(c, global)| ConnReport {
                conn: global,
                digest: fnv1a64(c.stats.snapshot_text().as_bytes()),
                delivered_bytes: c.stats.delivered_bytes,
                enqueued_bytes: c.stats.enqueued_bytes,
                tx_packets: c.stats.tx_packets,
                scheduler_executions: c.stats.scheduler_executions,
                scheduler_steps: c.stats.scheduler_steps,
                scheduler_host_ns: c.stats.scheduler_host_ns,
                all_acked: c.all_acked(),
            }),
    );
    out.events_processed += sim.events_processed;
    out.violations.extend_from_slice(sim.oracle_violations());
    out.incidents.extend_from_slice(sim.incidents());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ConnectionConfig, SchedulerSpec, SubflowConfig};
    use crate::path::PathConfig;
    use crate::time::{from_millis, SECONDS};

    fn scenario(_global: usize, seed: u64) -> ConnScenario {
        let loss = (seed % 3) as f64 * 0.01;
        let cfg = ConnectionConfig::new(
            vec![
                SubflowConfig::new(
                    PathConfig::symmetric(from_millis(10), 1_250_000).with_loss(loss),
                ),
                SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
            ],
            SchedulerSpec::dsl(crate::engine::tests::MIN_RTT_DSL),
        );
        ConnScenario::new(
            cfg,
            Workload::Bulk {
                bytes: 30_000 + (seed % 5) * 1400,
                prop: 0,
            },
        )
    }

    #[test]
    fn fleet_runs_and_reports_in_global_order() {
        let cfg = FleetConfig::new(6, 42)
            .with_workers(2)
            .with_horizon(60 * SECONDS)
            .with_oracle(OracleMode::Collect);
        let report = run_fleet(&cfg, scenario);
        assert_eq!(report.per_conn.len(), 6);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        for (i, c) in report.per_conn.iter().enumerate() {
            assert_eq!(c.conn, i);
            assert!(c.all_acked, "conn {i} completed");
            assert!(c.delivered_bytes >= 30_000);
        }
        assert!(report.events_processed > 0);
        assert!(report.events_per_sec() > 0.0);
    }

    #[test]
    fn digests_are_identical_across_worker_counts() {
        let run = |workers| {
            let cfg = FleetConfig::new(5, 7)
                .with_workers(workers)
                .with_horizon(60 * SECONDS);
            run_fleet(&cfg, scenario)
        };
        let one = run(1);
        let three = run(3);
        assert_eq!(one.workers, 1);
        assert_eq!(three.workers, 3);
        assert_eq!(one.events_processed, three.events_processed);
        assert_eq!(one.digest(), three.digest());
        for (a, b) in one.per_conn.iter().zip(&three.per_conn) {
            assert_eq!(a.digest, b.digest, "conn {}", a.conn);
            assert_eq!(a.tx_packets, b.tx_packets);
        }
    }

    #[test]
    fn containment_is_invariant_under_sharding() {
        // Every third connection is a starver the supervisor must
        // quarantine; the rest are healthy. Digests and the incident log,
        // as reported, must not depend on the partition.
        let chaotic = |global: usize, seed: u64| {
            let dsl = if global % 3 == 2 {
                "RETURN;"
            } else {
                crate::engine::tests::MIN_RTT_DSL
            };
            let cfg = ConnectionConfig::new(
                vec![
                    SubflowConfig::new(
                        PathConfig::symmetric(from_millis(10), 1_250_000)
                            .with_loss((seed % 3) as f64 * 0.01),
                    ),
                    SubflowConfig::new(PathConfig::symmetric(from_millis(40), 1_250_000)),
                ],
                SchedulerSpec::dsl(dsl),
            );
            ConnScenario::new(
                cfg,
                Workload::Bulk {
                    bytes: 30_000 + (seed % 5) * 1400,
                    prop: 0,
                },
            )
        };
        let run = |workers| {
            let cfg = FleetConfig::new(6, 21)
                .with_workers(workers)
                .with_horizon(120 * SECONDS)
                .with_oracle(OracleMode::Collect)
                .with_containment(ContainmentConfig::default());
            run_fleet(&cfg, chaotic)
        };
        let one = run(1);
        let three = run(3);
        assert!(one.quarantines() > 0, "the starvers must be contained");
        assert_eq!(one.digest(), three.digest());
        let render = |r: &FleetReport| -> Vec<String> {
            r.incidents.iter().map(|i| i.to_string()).collect()
        };
        assert_eq!(render(&one), render(&three));
        for c in &one.per_conn {
            assert!(c.all_acked, "conn {} completed via fallback", c.conn);
        }
    }

    #[test]
    fn violations_name_the_global_connection_at_every_worker_count() {
        // Connection 4 never pushes, yet its program wears a forged
        // certificate that proves work-conservation: the oracle catches
        // it, the supervisor contains it.
        const PROVED: &str =
            "IF (!Q.EMPTY AND !SUBFLOWS.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";
        const GATED: &str =
            "IF (R1 > 0 AND !Q.EMPTY) { SUBFLOWS.MIN(sbf => sbf.RTT).PUSH(Q.POP()); }";
        let stolen = progmp_core::compile(PROVED)
            .unwrap()
            .property_certificate()
            .clone();
        let saboteur = progmp_core::compile(GATED)
            .unwrap()
            .with_property_certificate(stolen);
        let with_saboteur = |global: usize, seed: u64| {
            let mut sc = scenario(global, seed);
            if global == 4 {
                sc.config.scheduler = SchedulerSpec::program(&saboteur, progmp_core::Backend::Vm);
            }
            sc
        };
        let run = |workers| {
            let cfg = FleetConfig::new(6, 21)
                .with_workers(workers)
                .with_horizon(120 * SECONDS)
                .with_oracle(OracleMode::Collect)
                .with_containment(ContainmentConfig::default());
            run_fleet(&cfg, with_saboteur)
        };
        let render = |r: &FleetReport| -> Vec<String> {
            r.violations.iter().map(|v| v.to_string()).collect()
        };
        let (one, three) = (run(1), run(3));
        assert!(!one.violations.is_empty(), "the saboteur is caught");
        assert!(
            one.violations.iter().all(|v| v.conn == 4),
            "{:?}",
            one.violations
        );
        assert_eq!(render(&one), render(&three));
        assert!(
            one.incidents.iter().all(|i| i.conn == 4),
            "{:?}",
            one.incidents
        );
    }

    #[test]
    fn conn_seeds_are_frozen() {
        let a = conn_seeds(1, 4);
        assert_eq!(a, conn_seeds(1, 4));
        assert_ne!(a, conn_seeds(2, 4));
        // Prefix property: growing the fleet never changes earlier seeds.
        assert_eq!(a[..], conn_seeds(1, 8)[..4]);
    }

    #[test]
    fn workers_never_exceed_connections() {
        let cfg = FleetConfig::new(2, 9)
            .with_workers(8)
            .with_horizon(30 * SECONDS);
        let report = run_fleet(&cfg, scenario);
        assert_eq!(report.workers, 2);
        assert_eq!(report.per_conn.len(), 2);
    }

    #[test]
    fn fnv_digest_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
