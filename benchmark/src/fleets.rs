//! The four fleet workloads: one scheduler mix, four balances of
//! install, engine, recovery and checker work.

use mptcp_sim::fleet::{ConnScenario, FleetConfig, OracleMode, Workload};
use mptcp_sim::time::{from_millis, SimTime, SECONDS};
use mptcp_sim::{
    ConnectionConfig, ContainmentConfig, FaultPlan, PathConfig, SchedulerSpec, SubflowConfig,
};
use progmp_core::env::RegId;

/// The seven paper schedulers (§3.4/§5) cycled through every fleet by
/// `global % 7`.
pub const PAPER_SCHEDULERS: [&str; 7] = [
    "minRttSimple",
    "default",
    "roundRobin",
    "redundant",
    "opportunisticRedundant",
    "tap",
    "targetRtt",
];

pub fn scheduler_source(name: &str) -> &'static str {
    progmp_schedulers::sources::ALL
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, s)| *s)
        .expect("scheduler is in progmp_schedulers::sources::ALL")
}

/// What each connection of a fleet sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One backlogged transfer of this many bytes.
    Bulk(u64),
    /// Four sends of this many bytes each, at 0/5/10/15 simulated seconds.
    FourSends(u64),
}

/// Everything that defines one fleet workload besides the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSpec {
    pub name: &'static str,
    pub connections: usize,
    pub traffic: Traffic,
    /// Random loss on the two paths.
    pub loss: Option<(f64, f64)>,
    /// A seeded `FaultPlan` per connection.
    pub faults: bool,
    pub containment: bool,
    pub oracle: OracleMode,
    pub horizon: SimTime,
}

impl FleetSpec {
    /// The fleet behind workload `name`; `None` for the micro workloads.
    pub fn of_workload(name: &str, smoke: bool) -> Option<FleetSpec> {
        match name {
            "fleet_short" => Some(FleetSpec::short(smoke)),
            "fleet_bulk" => Some(FleetSpec::bulk(smoke)),
            "fleet_lossy" => Some(FleetSpec::lossy(smoke)),
            "fleet_checked" => Some(FleetSpec::checked(smoke)),
            _ => None,
        }
    }

    /// Short flows: per-connection install (compile + instantiate) is
    /// nearly all of the work, the engine almost none.
    pub fn short(smoke: bool) -> FleetSpec {
        FleetSpec {
            name: "fleet_short",
            connections: if smoke { 40 } else { 1_000 },
            traffic: Traffic::Bulk(20_000),
            loss: None,
            faults: false,
            containment: false,
            oracle: OracleMode::Off,
            horizon: 120 * SECONDS,
        }
    }

    /// Long flows on clean paths: scheduler execution, calendar, dispatch
    /// and transport dominate. Sends are capped at 1 MB because
    /// `minRttSimple` (no cwnd check) overruns the path queue on a longer
    /// backlog and never completes it within the horizon.
    pub fn bulk(smoke: bool) -> FleetSpec {
        FleetSpec {
            name: "fleet_bulk",
            connections: if smoke { 7 } else { 56 },
            traffic: Traffic::FourSends(if smoke { 100_000 } else { 1_000_000 }),
            loss: None,
            faults: false,
            containment: false,
            oracle: OracleMode::Off,
            horizon: 600 * SECONDS,
        }
    }

    /// Lossy paths plus fault plans: retransmission, RTO, reinjection,
    /// fault clauses and the supervisor's quarantine path all run.
    /// Containment stays on because without it a few connections do not
    /// finish.
    pub fn lossy(smoke: bool) -> FleetSpec {
        FleetSpec {
            name: "fleet_lossy",
            connections: if smoke { 14 } else { 168 },
            traffic: Traffic::Bulk(if smoke { 100_000 } else { 1_000_000 }),
            loss: Some((0.01, 0.02)),
            faults: true,
            containment: true,
            oracle: OracleMode::Off,
            horizon: 600 * SECONDS,
        }
    }

    /// The oracle armed: every connection of the shard is checked after
    /// every event, so the runtime checker does most of the work.
    pub fn checked(smoke: bool) -> FleetSpec {
        FleetSpec {
            name: "fleet_checked",
            connections: if smoke { 16 } else { 128 },
            traffic: Traffic::Bulk(100_000),
            loss: None,
            faults: false,
            containment: false,
            oracle: OracleMode::Collect,
            horizon: 300 * SECONDS,
        }
    }

    pub fn with_oracle(mut self, oracle: OracleMode) -> FleetSpec {
        self.oracle = oracle;
        self
    }

    pub fn with_containment(mut self, on: bool) -> FleetSpec {
        self.containment = on;
        self
    }

    pub fn config(&self, seed: u64, workers: usize) -> FleetConfig {
        let cfg = FleetConfig::new(self.connections, seed)
            .with_workers(workers)
            .with_horizon(self.horizon)
            .with_oracle(self.oracle);
        if self.containment {
            cfg.with_containment(ContainmentConfig::default())
        } else {
            cfg
        }
    }

    /// Scenario of fleet connection `global`; the two-path RTT mix, the
    /// `targetRtt` register and the fault plan vary with the
    /// per-connection seed `run_fleet` derives from the fleet seed.
    pub fn scenario(&self, global: usize, seed: u64) -> ConnScenario {
        let scheduler = PAPER_SCHEDULERS[global % PAPER_SCHEDULERS.len()];
        let (loss_a, loss_b) = self.loss.unwrap_or((0.0, 0.0));
        let subflows = vec![
            SubflowConfig::new(
                PathConfig::symmetric(from_millis(5 + seed % 40), 1_250_000).with_loss(loss_a),
            ),
            SubflowConfig::new(
                PathConfig::symmetric(from_millis(20 + (seed >> 8) % 60), 1_250_000)
                    .with_loss(loss_b),
            ),
        ];
        let cfg = ConnectionConfig::new(subflows, SchedulerSpec::dsl(scheduler_source(scheduler)));
        let workload = match self.traffic {
            Traffic::Bulk(bytes) => Workload::Bulk { bytes, prop: 0 },
            Traffic::FourSends(bytes) => {
                Workload::SendAt((0..4).map(|i| (i * 5 * SECONDS, bytes, 0)).collect())
            }
        };
        let mut sc = ConnScenario::new(cfg, workload);
        match scheduler {
            "tap" => sc.registers.push((0, RegId::R1, 1_000_000)),
            "targetRtt" => sc
                .registers
                .push((0, RegId::R1, 40_000 + (seed % 80_000) as i64)),
            _ => {}
        }
        if self.faults {
            sc.fault_plan = Some(FaultPlan::generate(seed, 2, 20 * SECONDS));
        }
        sc
    }
}
