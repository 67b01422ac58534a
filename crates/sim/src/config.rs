//! Connection and scheduler configuration.

use crate::cc::CcAlgo;
use crate::native::NativeScheduler;
use crate::path::PathConfig;
use crate::receiver::ReceiverMode;
use crate::time::SimTime;
use progmp_core::{compile, Backend, CompileError, SchedulerProgram};
use std::collections::HashMap;
use std::sync::{LazyLock, Mutex};

/// Configuration of one subflow of a connection.
#[derive(Debug, Clone)]
pub struct SubflowConfig {
    /// The network path.
    pub path: PathConfig,
    /// Whether the path manager flags the subflow as backup.
    pub backup: bool,
    /// Application-assigned cost/preference weight (`COST`).
    pub cost: i64,
    /// When the subflow becomes established (0 = from the start).
    pub start_at: SimTime,
}

impl SubflowConfig {
    /// A non-backup, zero-cost subflow established from the start.
    pub fn new(path: PathConfig) -> Self {
        SubflowConfig {
            path,
            backup: false,
            cost: 0,
            start_at: 0,
        }
    }

    /// Marks the subflow as backup.
    pub fn backup(mut self) -> Self {
        self.backup = true;
        self
    }

    /// Sets the cost/preference weight.
    pub fn with_cost(mut self, cost: i64) -> Self {
        self.cost = cost;
        self
    }

    /// Delays establishment until `at`.
    pub fn starting_at(mut self, at: SimTime) -> Self {
        self.start_at = at;
        self
    }
}

/// Which scheduler a connection runs.
pub enum SchedulerSpec {
    /// ProgMP source text, run on `backend`. Each distinct source compiles
    /// once per process (default [`progmp_core::CompileOptions`]) and stays
    /// loaded for its life, like a loaded kernel scheduler: every connection
    /// naming it, in any [`crate::Sim`], binds the one program. A caller
    /// generating sources without bound should compile them itself and
    /// bind them with [`SchedulerSpec::Program`].
    Dsl {
        /// Scheduler source text.
        source: String,
        /// Execution backend.
        backend: Backend,
    },
    /// An already loaded program, bound without compiling anything — the
    /// paper's load-once / `set_scheduler`-per-connection model. Also the
    /// way in for programs built with non-default compile options.
    Program {
        /// The loaded program (a cheap handle; clone it per connection).
        program: SchedulerProgram,
        /// Execution backend.
        backend: Backend,
    },
    /// A native Rust scheduler (the analogue of the paper's C-based
    /// in-kernel schedulers, used as the Fig. 9 overhead baseline).
    Native(Box<dyn NativeScheduler>),
}

impl std::fmt::Debug for SchedulerSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerSpec::Dsl { backend, .. } => {
                write!(f, "SchedulerSpec::Dsl({})", backend.name())
            }
            SchedulerSpec::Program { program, backend } => write!(
                f,
                "SchedulerSpec::Program({}, {})",
                program.name().unwrap_or("<program>"),
                backend.name()
            ),
            SchedulerSpec::Native(n) => write!(f, "SchedulerSpec::Native({})", n.name()),
        }
    }
}

impl SchedulerSpec {
    /// Convenience constructor for a DSL scheduler on the VM backend.
    pub fn dsl(source: impl Into<String>) -> Self {
        SchedulerSpec::Dsl {
            source: source.into(),
            backend: Backend::Vm,
        }
    }

    /// Convenience constructor for a DSL scheduler on a specific backend.
    pub fn dsl_on(source: impl Into<String>, backend: Backend) -> Self {
        SchedulerSpec::Dsl {
            source: source.into(),
            backend,
        }
    }

    /// Binds the loaded `program`, run on `backend`.
    pub fn program(program: &SchedulerProgram, backend: Backend) -> Self {
        SchedulerSpec::Program {
            program: program.clone(),
            backend,
        }
    }
}

/// Every distinct [`SchedulerSpec::Dsl`] source, compiled once under the
/// default options, so the source text is the whole key.
static PROGRAMS: LazyLock<Mutex<HashMap<String, SchedulerProgram>>> =
    LazyLock::new(Default::default);

/// The program for `source`, compiled on first sight. The lock is never
/// held across the compile: threads racing on a first compile all get the
/// handle inserted first. A failed compile inserts nothing, so every
/// attempt reports the error afresh.
pub(crate) fn load(source: &str) -> Result<SchedulerProgram, CompileError> {
    let table = || PROGRAMS.lock().expect("no thread panics holding the table");
    if let Some(program) = table().get(source) {
        return Ok(program.clone());
    }
    let program = compile(source)?;
    Ok(table().entry(source.to_owned()).or_insert(program).clone())
}

/// Configuration of one MPTCP connection.
#[derive(Debug)]
pub struct ConnectionConfig {
    /// The subflows (at least one).
    pub subflows: Vec<SubflowConfig>,
    /// The scheduler.
    pub scheduler: SchedulerSpec,
    /// Congestion-control algorithm.
    pub cc: CcAlgo,
    /// Receiver delivery mode (paper §4.2).
    pub receiver_mode: ReceiverMode,
    /// Maximum segment size in bytes; must be positive.
    pub mss: u32,
    /// Receive buffer capacity in bytes (bounds the advertised window).
    pub recv_buf: u64,
    /// Per-execution scheduler step budget, honoured verbatim when set.
    /// `None` means the admission verifier's certified per-program bound
    /// for a DSL scheduler and [`progmp_core::DEFAULT_STEP_BUDGET`] for a
    /// native one.
    pub step_budget: Option<u64>,
    /// Maximum scheduler re-executions per trigger (compressed-execution
    /// rounds).
    pub max_sched_rounds: u32,
    /// Whether to record per-packet timelines (costs memory).
    pub record_timelines: bool,
}

impl ConnectionConfig {
    /// A connection with the given subflows and scheduler, with defaults:
    /// Reno congestion control, improved receiver, 1400-byte MSS, 4 MiB
    /// receive buffer.
    pub fn new(subflows: Vec<SubflowConfig>, scheduler: SchedulerSpec) -> Self {
        ConnectionConfig {
            subflows,
            scheduler,
            cc: CcAlgo::Reno,
            receiver_mode: ReceiverMode::Improved,
            mss: 1400,
            recv_buf: 4 << 20,
            step_budget: None,
            max_sched_rounds: 256,
            record_timelines: false,
        }
    }

    /// Selects the congestion-control algorithm.
    pub fn with_cc(mut self, cc: CcAlgo) -> Self {
        self.cc = cc;
        self
    }

    /// Selects the receiver mode.
    pub fn with_receiver_mode(mut self, mode: ReceiverMode) -> Self {
        self.receiver_mode = mode;
        self
    }

    /// Sets the MSS.
    pub fn with_mss(mut self, mss: u32) -> Self {
        self.mss = mss;
        self
    }

    /// Sets the receive buffer capacity.
    pub fn with_recv_buf(mut self, bytes: u64) -> Self {
        self.recv_buf = bytes;
        self
    }

    /// Enables timeline recording.
    pub fn with_timelines(mut self) -> Self {
        self.record_timelines = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::from_millis;

    #[test]
    fn builders_apply() {
        let cfg = ConnectionConfig::new(
            vec![
                SubflowConfig::new(PathConfig::symmetric(from_millis(10), 1_000_000))
                    .backup()
                    .with_cost(5)
                    .starting_at(from_millis(100)),
            ],
            SchedulerSpec::dsl("RETURN;"),
        )
        .with_cc(CcAlgo::Lia)
        .with_mss(1000)
        .with_recv_buf(1 << 16)
        .with_timelines();
        assert_eq!(cfg.cc, CcAlgo::Lia);
        assert_eq!(cfg.mss, 1000);
        assert!(cfg.subflows[0].backup);
        assert_eq!(cfg.subflows[0].cost, 5);
        assert_eq!(cfg.subflows[0].start_at, from_millis(100));
        assert!(cfg.record_timelines);
    }

    #[test]
    fn a_rejected_source_is_never_loaded_and_one_byte_makes_another_entry() {
        let in_table = |source: &str| PROGRAMS.lock().unwrap().contains_key(source);
        let rejected = "VAR x = ;";
        for _ in 0..3 {
            assert!(load(rejected).is_err(), "reported on every attempt");
            assert!(!in_table(rejected));
        }

        let source = "IF (!Q.EMPTY) { SUBFLOWS.MAX(sbf => sbf.CWND).PUSH(Q.POP()); }";
        let padded = format!("{source} ");
        let first = load(source).unwrap();
        assert!(first.ptr_eq(&load(source).unwrap()), "shared once loaded");
        let second = load(&padded).unwrap();
        assert!(!first.ptr_eq(&second));
        assert!(in_table(source) && in_table(&padded));
    }

    /// A swap to a source that does not compile reports the error and
    /// changes nothing: not what runs, not what a quarantine parked, not
    /// the program table.
    #[test]
    fn a_rejected_swap_changes_nothing() {
        use crate::connection::Connection;
        use crate::engine::tests::MIN_RTT_DSL;
        use crate::supervisor::{ContainState, ContainmentConfig};

        // What runs, then what is parked: program and step budget.
        let bound = |c: &Connection| -> Vec<(SchedulerProgram, u64)> {
            let parked = c.contain.as_ref().and_then(|r| r.parked.as_ref());
            [c.installed.as_ref(), parked.map(|(p, _)| p)]
                .into_iter()
                .flatten()
                .map(|s| (s.program().unwrap().clone(), s.step_budget))
                .collect()
        };
        let mut sim = crate::Sim::new(5);
        sim.enable_containment(ContainmentConfig);
        let path = PathConfig::symmetric(from_millis(10), 1_000_000);
        // The second connection aborts every run: quarantined at once.
        for budget in [None, Some(3)] {
            let spec = SchedulerSpec::dsl(MIN_RTT_DSL);
            let mut cfg = ConnectionConfig::new(vec![SubflowConfig::new(path.clone())], spec);
            cfg.step_budget = budget;
            let conn = sim.add_connection(cfg).unwrap();
            sim.app_send_at(conn, 0, 14_000, 0);
        }
        sim.run_until(from_millis(1));
        let states = [0, 1].map(|c| sim.connections[c].contain_state());
        assert_eq!(states, [ContainState::Healthy, ContainState::Quarantined]);

        let rejected = "VAR x = ;";
        for (conn, held) in [(0, 1), (1, 2)] {
            let before = bound(&sim.connections[conn]);
            assert_eq!(before.len(), held);
            assert!(sim
                .set_scheduler(conn, SchedulerSpec::dsl(rejected))
                .is_err());
            let after = bound(&sim.connections[conn]);
            assert_eq!(after.len(), held);
            for ((was, was_budget), (is, budget)) in before.iter().zip(&after) {
                assert!(is.ptr_eq(was), "connection {conn}");
                assert_eq!(budget, was_budget);
            }
        }
        assert!(!PROGRAMS.lock().unwrap().contains_key(rejected));
    }
}
