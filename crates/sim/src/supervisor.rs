//! Runtime containment: scheduler quarantine, safe-default fallback, and
//! deterministic backoff re-admission.
//!
//! The supervisor sits between the engine's upcall path and the scheduler
//! backends. Every upcall runs under a fault boundary that converts
//! backend traps, certified-step-budget exhaustion, oracle invariant
//! violations, and eventual-progress stalls into a structured
//! [`FaultClass`] — propagated as a value, never a panic, never a silent
//! log line, and never `catch_unwind`. On a fault the supervisor
//!
//! 1. **quarantines** the program for that connection: the faulting
//!    scheduler is parked whole (instance and step budget; the property
//!    certificate and `RQ` capability are its program's) and a
//!    built-in safe default with minRtt semantics ([`fallback_program`],
//!    one program per process, like any DSL source) takes over;
//! 2. schedules **probationary re-admission** after a deterministic
//!    exponential backoff. Backoff jitter is drawn from a per-connection
//!    xorshift stream keyed by `(simulation seed, connection identity)`
//!    ([`ChaosRng::for_path`]), so containment decisions are a pure
//!    function of the connection's own history — fleet digests stay
//!    bit-identical no matter how many workers the fleet is split
//!    across;
//! 3. trips a per-connection **circuit breaker** after `MAX_STRIKES`
//!    (3) faults, pinning the fallback permanently.
//!
//! Nothing here looks beyond the one connection that faulted, and none of
//! it touches the invariant oracle: what the transport checks find is
//! reported the same way whether or not a supervisor is attached.
//!
//! A connection's containment record — state, strikes, jitter stream,
//! the parked scheduler, the stall watchdog's mark — is a field of the
//! [`Connection`] it describes, next to the scheduler that is running.
//! The supervisor keeps what is per-[`crate::Sim`]: the seed and the
//! incident log.
//!
//! Every transition emits a seed-replayable [`IncidentReport`], rendered
//! in the integer-only replay style of [`crate::faults`]: re-running the
//! same scenario with the same seed reproduces the same incident at the
//! same simulated time.

use crate::config::{load, SchedulerSpec};
use crate::connection::{Connection, Installed};
use crate::faults::ChaosRng;
use crate::time::{SimTime, MILLIS, SECONDS};
use progmp_core::{Backend, ExecError, SchedulerProgram};

/// Domain separation for the supervisor's backoff streams: keeps the
/// jitter draws disjoint from the path chaos streams derived from the
/// same simulation seed.
const SUPERVISOR_SALT: u64 = 0x0C04_17A1_4170_C0DE;

/// The built-in safe default installed on quarantine: the paper's
/// default minRtt scheduler with reinjection priority — the same
/// semantics the engine's baseline tests pin. It provably pops `RQ`, so
/// a quarantined connection can recover loss-suspected segments its
/// original scheduler would have stranded.
pub const FALLBACK_DSL: &str = "
    VAR rqSkb = RQ.TOP;
    VAR avail = SUBFLOWS.FILTER(sbf => !sbf.TSQ_THROTTLED AND !sbf.LOSSY
        AND sbf.CWND > sbf.SKBS_IN_FLIGHT + sbf.QUEUED);
    IF (rqSkb != NULL) {
        VAR rtxSbf = avail.FILTER(sbf => !rqSkb.SENT_ON(sbf)).MIN(sbf => sbf.RTT);
        IF (rtxSbf != NULL) {
            rtxSbf.PUSH(RQ.POP());
            RETURN;
        }
    }
    IF (!Q.EMPTY) {
        avail.MIN(sbf => sbf.RTT).PUSH(Q.POP());
    }";

/// The shared fallback program, loaded like any [`crate::SchedulerSpec::Dsl`]
/// source: quarantined connections each instantiate the one compiled image.
pub fn fallback_program() -> SchedulerProgram {
    load(FALLBACK_DSL).expect("built-in fallback scheduler compiles")
}

/// The structured fault a scheduler upcall (or its oracle watchdog)
/// produced. Each variant maps one containment trigger class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultClass {
    /// The execution exhausted its certified per-upcall step budget.
    StepBudget {
        /// The budget that was in force.
        budget: u64,
    },
    /// A backend raised a structured [`ExecError::Trap`].
    BackendTrap {
        /// Component that raised the trap.
        origin: &'static str,
        /// Trap description.
        detail: String,
    },
    /// The runtime invariant oracle caught the scheduler violating one
    /// of its certified properties (catalogue name attached).
    OracleViolation {
        /// Violated invariant, e.g. `property-work-conservation`.
        invariant: &'static str,
    },
    /// The event queue drained with deliverable data stranded: the
    /// scheduler stopped making progress (a starver, or a program with
    /// no reinjection logic sitting on an `RQ` strand).
    ProgressStall,
}

impl FaultClass {
    /// Stable class name used in replay strings and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultClass::StepBudget { .. } => "step-budget",
            FaultClass::BackendTrap { .. } => "backend-trap",
            FaultClass::OracleViolation { .. } => "oracle-violation",
            FaultClass::ProgressStall => "progress-stall",
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultClass::StepBudget { budget } => {
                write!(f, "step budget of {budget} exhausted")
            }
            FaultClass::BackendTrap { origin, detail } => {
                write!(f, "trap in {origin}: {detail}")
            }
            FaultClass::OracleViolation { invariant } => {
                write!(f, "oracle invariant `{invariant}` violated")
            }
            FaultClass::ProgressStall => f.write_str("eventual-progress stall at quiescence"),
        }
    }
}

/// Converts an [`ExecError`] escaping an upcall into its fault class.
pub fn classify_exec_error(err: &ExecError) -> FaultClass {
    match err {
        ExecError::StepBudgetExhausted { budget } => FaultClass::StepBudget { budget: *budget },
        ExecError::Trap { origin, detail } => FaultClass::BackendTrap {
            origin,
            detail: detail.clone(),
        },
    }
}

/// First-strike backoff before probationary re-admission; each further
/// strike doubles it. Below [`MAX_STRIKES`] the longest is 400 ms plus
/// jitter: containment quarantines aggressively and re-admits within a
/// simulated second, so a transfer survives a misbehaving scheduler
/// without missing its horizon.
pub(crate) const BASE_BACKOFF: SimTime = 200 * MILLIS;

/// Faults before the per-connection circuit breaker pins the fallback
/// permanently.
pub(crate) const MAX_STRIKES: u32 = 3;

/// Period of the per-connection stall watchdog. The watchdog fires a
/// [`FaultClass::ProgressStall`] when a full period passes with
/// schedulable work, an available subflow, and zero forward progress.
/// Check times are multiples of this period from the connection's own
/// first-data event, so stall detection — like every other containment
/// decision — is invariant under fleet partitioning.
pub const STALL_CHECK_INTERVAL: SimTime = SECONDS;

/// Turns containment on ([`crate::Sim::enable_containment`],
/// [`crate::FleetConfig::with_containment`]). It has no settings: the
/// first backoff (200 ms, doubled per strike), the strike limit (3) and
/// the watchdog period ([`STALL_CHECK_INTERVAL`]) are constants.
#[derive(Debug, Clone, Default)]
pub struct ContainmentConfig;

/// Where a connection sits in the containment state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainState {
    /// Original scheduler active, no strikes outstanding.
    Healthy,
    /// Fallback active; a re-admission is scheduled.
    Quarantined,
    /// Original scheduler re-admitted and under watch: the next fault
    /// quarantines again with a doubled backoff.
    Probation,
    /// Per-connection circuit breaker tripped: fallback pinned, no
    /// further re-admission.
    Pinned,
}

/// What the engine must do in response to a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The original scheduler is parked behind the fallback; schedule a
    /// re-admission at `until`.
    Quarantine {
        /// Absolute simulated time of the probationary re-admission.
        until: SimTime,
    },
    /// The original scheduler is parked behind the fallback for good.
    Pin,
    /// The connection is already running the fallback (or pinned); the
    /// incident was recorded and nothing is swapped.
    Recorded,
}

/// State transition an [`IncidentReport`] documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainAction {
    /// Original scheduler quarantined, fallback installed.
    Quarantined,
    /// Per-connection circuit breaker tripped; fallback pinned.
    Pinned,
    /// Original scheduler re-admitted on probation.
    Readmitted,
    /// A fault occurred while the fallback was already active (recorded,
    /// no swap).
    FallbackFault,
}

impl ContainAction {
    /// Stable lower-case name used in replay strings.
    pub fn name(self) -> &'static str {
        match self {
            ContainAction::Quarantined => "quarantined",
            ContainAction::Pinned => "pinned",
            ContainAction::Readmitted => "readmitted",
            ContainAction::FallbackFault => "fallback-fault",
        }
    }
}

/// One seed-replayable containment transition.
#[derive(Debug, Clone)]
pub struct IncidentReport {
    /// Simulated time of the transition.
    pub at: SimTime,
    /// Global connection identity (fleet index; equals the local id in a
    /// standalone [`crate::Sim`]).
    pub conn: u64,
    /// The fault that triggered the transition ([`ContainAction::Readmitted`]
    /// re-states the fault that caused the quarantine being left).
    pub class: FaultClass,
    /// Strike count after this transition.
    pub strikes: u32,
    /// What the supervisor did.
    pub action: ContainAction,
    /// Backoff applied (0 unless the action schedules a re-admission).
    pub backoff: SimTime,
    /// Integer-only replay string in the style of
    /// [`crate::faults::FaultPlan::render`]: re-running the scenario with
    /// this seed reproduces the incident bit-identically.
    pub replay: String,
}

impl std::fmt::Display for IncidentReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "conn {} {} at t={} (strike {}): {} [{}]",
            self.conn,
            self.action.name(),
            self.at,
            self.strikes,
            self.class,
            self.replay,
        )
    }
}

/// Per-connection containment record: a field of the [`Connection`] it
/// describes, created by [`Supervisor::admit`].
pub(crate) struct ConnContain {
    pub(crate) state: ContainState,
    strikes: u32,
    rng: ChaosRng,
    /// While the fallback holds the connection (quarantined or pinned):
    /// the scheduler re-admission restores, and the fault that put it
    /// here. `None` in every other state.
    pub(crate) parked: Option<(Installed, FaultClass)>,
    watchdog_armed: bool,
    progress_mark: u64,
}

impl ConnContain {
    /// Arms the stall watchdog, snapshotting `data_acked` as the progress
    /// mark. Returns `false` when already armed (the connection schedules
    /// a check event only on a fresh arm).
    pub(crate) fn arm_watchdog(&mut self, data_acked: u64) -> bool {
        let fresh = !self.watchdog_armed;
        if fresh {
            self.watchdog_armed = true;
            self.progress_mark = data_acked;
        }
        fresh
    }

    /// One watchdog tick: returns `true` if the connection made forward
    /// progress since the previous tick, and advances the mark either way.
    pub(crate) fn watchdog_progressed(&mut self, data_acked: u64) -> bool {
        let progressed = data_acked > self.progress_mark;
        self.progress_mark = data_acked;
        progressed
    }

    /// Retires the watchdog (transfer complete); the next data-arrival
    /// event re-arms it.
    pub(crate) fn disarm_watchdog(&mut self) {
        self.watchdog_armed = false;
    }
}

/// Why a missing record is a bug: `Sim` admits every connection it
/// creates while a supervisor is attached.
const SUPERVISED: &str = "a supervised connection carries its containment record";

/// The containment supervisor owned by one [`crate::Sim`].
pub struct Supervisor {
    seed: u64,
    /// Every containment transition, in simulated-time order.
    pub incidents: Vec<IncidentReport>,
}

impl Supervisor {
    /// Creates a supervisor for a simulation seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Supervisor {
            seed,
            incidents: Vec::new(),
        }
    }

    /// The record a connection with global `identity` starts under.
    pub(crate) fn admit(&self, identity: u64) -> Box<ConnContain> {
        Box::new(ConnContain {
            state: ContainState::Healthy,
            strikes: 0,
            // Jitter draws are a pure function of (seed, identity):
            // independent of sharding and of other connections.
            rng: ChaosRng::for_path(self.seed ^ SUPERVISOR_SALT, identity, 0),
            parked: None,
            watchdog_armed: false,
            progress_mark: 0,
        })
    }

    /// Number of quarantine transitions recorded so far.
    pub fn quarantines(&self) -> usize {
        self.incidents
            .iter()
            .filter(|i| matches!(i.action, ContainAction::Quarantined | ContainAction::Pinned))
            .count()
    }

    fn replay_string(&self, identity: u64, class: &FaultClass, at: SimTime) -> String {
        let (seed, class) = (self.seed, class.name());
        format!("seed={seed} conn={identity} class={class} at={at}")
    }

    /// Handles a fault on `conn` at `now`. On a strike the shared
    /// fallback takes over and what it replaces is parked on the
    /// connection; the return value tells the engine whether that
    /// happened and when to schedule the re-admission.
    pub(crate) fn on_fault(
        &mut self,
        now: SimTime,
        conn: &mut Connection,
        class: FaultClass,
    ) -> FaultAction {
        let entry = conn.contain.as_deref_mut().expect(SUPERVISED);
        let (action, contain_action, backoff) = match entry.state {
            // The fallback itself faulted (or a stale violation arrived
            // after the swap): record, never double-park.
            ContainState::Quarantined | ContainState::Pinned => {
                (FaultAction::Recorded, ContainAction::FallbackFault, 0)
            }
            ContainState::Healthy | ContainState::Probation => {
                entry.strikes += 1;
                let fallback = SchedulerSpec::program(&fallback_program(), Backend::Vm);
                let fallback = Installed::resolve(fallback, None).expect("a loaded program binds");
                let original = conn
                    .installed
                    .replace(fallback)
                    .expect("scheduler is restored before fault handling");
                entry.parked = Some((original, class.clone()));
                if entry.strikes >= MAX_STRIKES {
                    entry.state = ContainState::Pinned;
                    (FaultAction::Pin, ContainAction::Pinned, 0)
                } else {
                    entry.state = ContainState::Quarantined;
                    // Deterministic exponential backoff with jitter from
                    // the per-connection stream: double per strike, and
                    // spread re-admissions so a fleet of identical
                    // faulters does not thunder back in lockstep.
                    let exp = BASE_BACKOFF << (entry.strikes - 1);
                    let jitter = entry.rng.below(BASE_BACKOFF / 2 + 1);
                    let backoff = exp + jitter;
                    let until = now + backoff;
                    (
                        FaultAction::Quarantine { until },
                        ContainAction::Quarantined,
                        backoff,
                    )
                }
            }
        };
        let strikes = entry.strikes;
        let replay = self.replay_string(conn.identity, &class, now);
        self.incidents.push(IncidentReport {
            at: now,
            conn: conn.identity,
            class,
            strikes,
            action: contain_action,
            backoff,
            replay,
        });
        action
    }

    /// Handles the re-admission timer of `conn`: in `Quarantined` the
    /// parked scheduler is installed again (state moves to `Probation`),
    /// a `Readmitted` incident restates the fault that caused the
    /// quarantine, and `true` is returned; in any other state (e.g. the
    /// connection was pinned while the timer was in flight) nothing
    /// happens.
    pub(crate) fn readmit(&mut self, now: SimTime, conn: &mut Connection) -> bool {
        let entry = conn.contain.as_deref_mut().expect(SUPERVISED);
        if entry.state != ContainState::Quarantined {
            return false;
        }
        let (parked, class) = entry.parked.take().expect("quarantine parks a scheduler");
        entry.state = ContainState::Probation;
        conn.installed = Some(parked);
        let strikes = entry.strikes;
        let replay = self.replay_string(conn.identity, &class, now);
        self.incidents.push(IncidentReport {
            at: now,
            conn: conn.identity,
            class,
            strikes,
            action: ContainAction::Readmitted,
            backoff: 0,
            replay,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use progmp_core::PropStatus;

    /// A supervisor seeded with 42, and a connection admitted under it
    /// as identity 0.
    fn sup() -> (Supervisor, Connection) {
        let s = Supervisor::new(42);
        let c = conn(&s, 0, 0);
        (s, c)
    }

    /// A supervised connection whose scheduler runs under a step budget
    /// of 7, which tells it apart from the fallback.
    fn conn(s: &Supervisor, id: usize, identity: u64) -> Connection {
        let mut c = crate::oracle::tests::conn();
        c.installed.as_mut().unwrap().step_budget = 7;
        c.id = id;
        c.identity = identity;
        c.contain = Some(s.admit(identity));
        c
    }

    fn budget_fault() -> FaultClass {
        FaultClass::StepBudget { budget: 5 }
    }

    fn running_budget(c: &Connection) -> u64 {
        c.step_budget().unwrap()
    }

    #[test]
    fn fallback_compiles_once_and_proves_its_claims() {
        let p = fallback_program();
        assert!(p.ptr_eq(&fallback_program()), "compiled once, shared");
        assert!(p.pops_reinjection_queue());
        assert_eq!(
            p.property_certificate().work_conservation.status,
            PropStatus::Proved,
            "the safe default must be provably work-conserving: {}",
            p.property_certificate().work_conservation.detail
        );
    }

    #[test]
    fn classify_covers_every_exec_error() {
        assert_eq!(
            classify_exec_error(&ExecError::StepBudgetExhausted { budget: 9 }),
            FaultClass::StepBudget { budget: 9 }
        );
        assert!(matches!(
            classify_exec_error(&ExecError::Trap {
                origin: "native",
                detail: "y".into()
            }),
            FaultClass::BackendTrap {
                origin: "native",
                ..
            }
        ));
    }

    #[test]
    fn strike_ladder_quarantines_then_pins() {
        let (mut s, mut c) = sup();
        assert_eq!(c.contain_state(), ContainState::Healthy);
        let fallback_budget = fallback_program().certified_step_bound();

        let a1 = s.on_fault(1_000, &mut c, budget_fault());
        let until1 = match a1 {
            FaultAction::Quarantine { until } => until,
            other => panic!("first fault must quarantine, got {other:?}"),
        };
        assert!(until1 > 1_000);
        assert_eq!(c.contain_state(), ContainState::Quarantined);
        assert_eq!(running_budget(&c), fallback_budget, "the fallback runs");

        assert!(s.readmit(until1, &mut c), "re-admitted");
        assert_eq!(running_budget(&c), 7, "what was parked is back");
        assert_eq!(c.contain_state(), ContainState::Probation);

        let a2 = s.on_fault(until1 + 5, &mut c, budget_fault());
        let until2 = match a2 {
            FaultAction::Quarantine { until } => until,
            other => panic!("probation fault must re-quarantine, got {other:?}"),
        };
        // Exponential: the second backoff window is at least the base
        // doubled (jitter only adds).
        assert!(until2 - (until1 + 5) >= 2 * BASE_BACKOFF);
        assert!(s.readmit(until2, &mut c), "second probation");

        let a3 = s.on_fault(until2 + 5, &mut c, budget_fault());
        assert_eq!(a3, FaultAction::Pin, "third strike trips the breaker");
        assert_eq!(c.contain_state(), ContainState::Pinned);
        assert!(
            !s.readmit(until2 + 10_000_000, &mut c),
            "pinned connections are never re-admitted"
        );
        assert_eq!(running_budget(&c), fallback_budget);

        let actions: Vec<ContainAction> = s.incidents.iter().map(|i| i.action).collect();
        assert_eq!(
            actions,
            vec![
                ContainAction::Quarantined,
                ContainAction::Readmitted,
                ContainAction::Quarantined,
                ContainAction::Readmitted,
                ContainAction::Pinned,
            ]
        );
        assert_eq!(s.quarantines(), 3);
    }

    #[test]
    fn fallback_faults_are_recorded_without_double_parking() {
        let (mut s, mut c) = sup();
        s.on_fault(0, &mut c, budget_fault());
        assert_eq!(c.contain_state(), ContainState::Quarantined);
        let again = s.on_fault(
            10,
            &mut c,
            FaultClass::OracleViolation {
                invariant: "property-work-conservation",
            },
        );
        assert_eq!(again, FaultAction::Recorded);
        assert_eq!(
            c.contain_state(),
            ContainState::Quarantined,
            "state unchanged"
        );
        assert_eq!(
            s.incidents.last().unwrap().action,
            ContainAction::FallbackFault
        );
        // The original is still what is parked, and the re-admission
        // restates the fault that parked it, not the fallback's.
        assert!(s.readmit(20, &mut c));
        assert_eq!(running_budget(&c), 7);
        assert_eq!(s.incidents.last().unwrap().class, budget_fault());
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_identity() {
        let run = |seed: u64, id: usize, identity: u64| {
            let mut s = Supervisor::new(seed);
            let mut c = conn(&s, id, identity);
            match s.on_fault(0, &mut c, budget_fault()) {
                FaultAction::Quarantine { until } => until,
                other => panic!("{other:?}"),
            }
        };
        assert_eq!(
            run(1, 3, 9),
            run(1, 3, 9),
            "pure function of (seed, identity)"
        );
        assert_ne!(
            run(1, 3, 9),
            run(2, 3, 9),
            "different seeds draw different jitter"
        );
        // Identity — not the local index — keys the stream: the local
        // index differing must not matter.
        assert_eq!(
            run(7, 0, 11),
            run(7, 5, 11),
            "backoff keyed by identity, invariant under sharding"
        );
    }

    #[test]
    fn replay_strings_are_integer_only_and_seeded() {
        let (mut s, mut c) = sup();
        s.on_fault(123, &mut c, budget_fault());
        let inc = &s.incidents[0];
        assert_eq!(inc.replay, "seed=42 conn=0 class=step-budget at=123");
        assert!(inc.to_string().contains("quarantined"));
    }
}
